open Cmdliner

(* ---- converters ---- *)

(* the range tests are false for NaN, so it never passes *)
let number ~expected of_string ok s =
  match of_string (String.trim s) with
  | Some x when ok x -> Ok x
  | _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))

let pos_int =
  Arg.conv
    (number ~expected:"a positive integer" int_of_string_opt (fun n -> n >= 1), Format.pp_print_int)

let pos_float =
  Arg.conv
    ( number ~expected:"a positive finite number" float_of_string_opt (fun x ->
          Float.is_finite x && x > 0.0),
      Arg.conv_printer Arg.float )

let named ~what of_name to_name =
  let parse s =
    let s = String.trim s in
    match of_name s with
    | Some v -> Ok v
    | None -> Error (`Msg (Printf.sprintf "unknown %s %S" what s))
  in
  Arg.conv (parse, fun ppf v -> Format.pp_print_string ppf (to_name v))

let list c =
  let l = Arg.list c in
  let parse s =
    match Arg.conv_parser l s with
    | Ok [] -> Error (`Msg "expected at least one value")
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer l)

let mode = named ~what:"mode" Ccr.Runtime.mode_of_name Ccr.Runtime.mode_name
let strategy = named ~what:"strategy" Ccr.Revoker.strategy_of_name Ccr.Revoker.strategy_name
let pattern = Arg.enum (List.map (fun p -> (p, p)) [ "poisson"; "bursty"; "ramp"; "diurnal" ])
let governor_axis = Arg.enum [ ("on", [ true ]); ("off", [ false ]); ("both", [ false; true ]) ]

(* ---- shared flags ---- *)

let jobs ~doc =
  Arg.(value & opt pos_int (Parallel.Pool.default_jobs ()) & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let seed ?(doc = "Deterministic simulation seed.") default =
  Arg.(value & opt int default & info [ "seed" ] ~doc)

let json ~doc = Arg.(value & opt (some string) None & info [ "json" ] ~docv:"PATH" ~doc)
let check ~doc = Arg.(value & flag & info [ "check" ] ~doc)

let check_epilogue ~check ~what runs =
  List.iter (fun (_, report) -> if report <> "" then Format.eprintf "%s" report) runs;
  if not check then 0
  else if List.for_all fst runs then begin
    Format.printf "check: ok (%d %s, zero findings, accounting exact)@." (List.length runs) what;
    0
  end
  else begin
    Format.eprintf "check: FAILED@.";
    1
  end

(* ---- JSON records ---- *)

module Json = struct
  type t =
    | Int of int
    | Float of int * float
    | String of string
    | Bool of bool
    | List of t list
    | Obj of (string * t) list

  let schema ?(tenants = 1) ?(overcommit = "none") () =
    [
      ("topology", String "single");
      ("host_count", Int 1);
      ("balancer", String "none");
      ("tenants", Int tenants);
      ("overcommit", String overcommit);
    ]

  let escape b s =
    String.iter
      (function
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
        | c -> Buffer.add_char b c)
      s

  let add_seq b op cl f l =
    Buffer.add_char b op;
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string b ", ";
        f x)
      l;
    Buffer.add_char b cl

  let rec add b = function
    | Int n -> Buffer.add_string b (string_of_int n)
    | Float (_, x) when not (Float.is_finite x) -> Buffer.add_string b "null"
    | Float (digits, x) -> Printf.bprintf b "%.*f" digits x
    | String s ->
        Buffer.add_char b '"';
        escape b s;
        Buffer.add_char b '"'
    | Bool v -> Buffer.add_string b (string_of_bool v)
    | List l -> add_seq b '[' ']' (add b) l
    | Obj fields ->
        add_seq b '{' '}'
          (fun (k, v) ->
            add b (String k);
            Buffer.add_string b ": ";
            add b v)
          fields

  let to_string v =
    let b = Buffer.create 256 in
    add b v;
    Buffer.contents b

  let records l = "[\n" ^ String.concat ",\n" (List.map (fun r -> "  " ^ to_string r) l) ^ "\n]\n"

  let write path l =
    let oc = open_out path in
    output_string oc (records l);
    close_out oc
end

let write_records path records =
  Option.iter
    (fun path ->
      Json.write path records;
      Format.printf "wrote %d records to %s@." (List.length records) path)
    path
