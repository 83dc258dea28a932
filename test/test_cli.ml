(* Cli: the converters refuse non-finite and out-of-range numbers at
   parse time, --jobs refuses 0, and the one JSON writer escapes every
   string, writes non-finite floats as null and frames record files the
   way the executables always have. *)

open Cmdliner
module Json = Cli.Json

let parses conv s = Result.is_ok (Arg.conv_parser conv s)

let rejects name conv inputs =
  List.iter
    (fun s -> Alcotest.(check bool) (Printf.sprintf "%s refuses %S" name s) false (parses conv s))
    inputs

let accepts name conv inputs =
  List.iter
    (fun s -> Alcotest.(check bool) (Printf.sprintf "%s takes %S" name s) true (parses conv s))
    inputs

let non_finite = [ "nan"; "NaN"; "inf"; "-inf"; "infinity" ]

let test_pos_int () =
  rejects "pos_int" Cli.pos_int ([ "0"; "-1"; "-48"; "1.5"; "" ] @ non_finite);
  accepts "pos_int" Cli.pos_int [ "1"; " 1 "; "48"; string_of_int max_int ]

let test_pos_float () =
  rejects "pos_float" Cli.pos_float ([ "0"; "0.0"; "-0.0"; "-1e-9"; "-5"; "" ] @ non_finite);
  accepts "pos_float" Cli.pos_float [ "5e-324"; "1"; " 0.05 "; "1.7976931348623157e308" ];
  Alcotest.(check (float 0.0)) "value" 60_000.0
    (Result.get_ok (Arg.conv_parser Cli.pos_float "60000"))

let test_fraction () =
  rejects "fraction" Cli.fraction ([ "-1e-9"; "-0.5"; "1.0000001"; "2"; "" ] @ non_finite);
  accepts "fraction" Cli.fraction [ "0"; "0.0"; "0.15"; "1"; "1.0" ]

let test_lists_trim () =
  Alcotest.(check (list string))
    "modes" [ "cornucopia"; "reloaded" ]
    (List.map Ccr.Runtime.mode_name
       (Result.get_ok (Arg.conv_parser (Cli.list Cli.mode) " cornucopia , reloaded ")));
  Alcotest.(check (list (float 0.0)))
    "qps" [ 60_000.0; 110_000.0 ]
    (Result.get_ok (Arg.conv_parser (Cli.list Cli.pos_float) "60000, 110000"));
  rejects "qps list" (Cli.list Cli.pos_float) [ "60000,nan"; "inf,1"; "1,0"; "" ];
  rejects "mode list" (Cli.list Cli.mode) [ ""; "reloaded,bogus" ];
  rejects "mode" Cli.mode [ "bogus"; "" ];
  rejects "strategy" Cli.strategy [ "baseline"; "bogus" ];
  accepts "strategy" Cli.strategy [ "reloaded"; " cheriot " ]

let eval_jobs argv =
  Cmd.eval_value ~argv:(Array.of_list ("t" :: argv)) ~err:Format.str_formatter
    (Cmd.v (Cmd.info "t") (Cli.jobs ~doc:"Domains."))

let test_jobs () =
  let ok argv want =
    match eval_jobs argv with
    | Ok (`Ok n) -> Alcotest.(check int) (String.concat " " argv) want n
    | _ -> Alcotest.failf "%s did not parse" (String.concat " " argv)
  in
  ok [] (Parallel.Pool.default_jobs ());
  ok [ "--jobs"; "3" ] 3;
  ok [ "-j"; "1" ] 1;
  List.iter
    (fun argv ->
      match eval_jobs argv with
      | Error `Parse -> ()
      | _ -> Alcotest.failf "%s was accepted" (String.concat " " argv))
    [ [ "--jobs"; "0" ]; [ "-j"; "0" ]; [ "--jobs=-2" ]; [ "--jobs"; "nan" ] ]

let str s = Json.to_string (Json.String s)

let test_escape () =
  Alcotest.(check string) "quote" {|"a\"b"|} (str {|a"b|});
  Alcotest.(check string) "backslash" {|"a\\b"|} (str {|a\b|});
  Alcotest.(check string) "newline" {|"a\nb"|} (str "a\nb");
  Alcotest.(check string) "tab" {|"a\tb"|} (str "a\tb");
  Alcotest.(check string) "carriage return" {|"a\rb"|} (str "a\rb");
  Alcotest.(check string) "other controls" {|"\u0000\u0001\u001f"|} (str "\000\001\031");
  Alcotest.(check string) "plain" {|"reloaded/flat-3 µs"|} (str "reloaded/flat-3 µs")

let test_values () =
  let s = Json.to_string in
  List.iter
    (fun x -> Alcotest.(check string) (string_of_float x) "null" (s (Json.Float (3, x))))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  Alcotest.(check string) "digits" "1.500" (s (Json.Float (3, 1.5)));
  Alcotest.(check string) "rounding" "0.33333" (s (Json.Float (5, 1.0 /. 3.0)));
  Alcotest.(check string) "int" "-7" (s (Json.Int (-7)));
  Alcotest.(check string) "bool" "true" (s (Json.Bool true));
  Alcotest.(check string) "empty list" "[]" (s (Json.List []));
  Alcotest.(check string) "empty object" "{}" (s (Json.Obj []));
  Alcotest.(check string)
    "nested" {|{"a": [1, 2.0], "b": {"c": false}}|}
    (s Json.(Obj [ ("a", List [ Int 1; Float (1, 2.0) ]); ("b", Obj [ ("c", Bool false) ]) ]))

let test_framing () =
  Alcotest.(check string) "no records" "[\n\n]\n" (Json.records []);
  Alcotest.(check string) "one record" "[\n  {\"seed\": 1}\n]\n"
    (Json.records [ Json.Obj [ ("seed", Json.Int 1) ] ]);
  Alcotest.(check string) "two records" "[\n  {\"seed\": 1},\n  {\"seed\": 2}\n]\n"
    (Json.records [ Json.Obj [ ("seed", Json.Int 1) ]; Json.Obj [ ("seed", Json.Int 2) ] ])

let test_schema () =
  Alcotest.(check string)
    "single host"
    {|{"topology": "single", "host_count": 1, "balancer": "none", "tenants": 1, "overcommit": "none"}|}
    (Json.to_string (Json.Obj (Json.schema ())));
  Alcotest.(check string)
    "fleet" {|{"topology": "flat/3", "host_count": 3, "balancer": "hash", "tenants": 1, "overcommit": "none"}|}
    (Json.to_string
       (Json.Obj (Json.schema ~topology:"flat/3" ~host_count:3 ~balancer:"hash" ())))

let () =
  Alcotest.run "cli"
    [
      ( "converters",
        [
          Alcotest.test_case "positive int" `Quick test_pos_int;
          Alcotest.test_case "positive finite float" `Quick test_pos_float;
          Alcotest.test_case "fraction" `Quick test_fraction;
          Alcotest.test_case "lists trim, refuse empty" `Quick test_lists_trim;
          Alcotest.test_case "jobs refuses 0" `Quick test_jobs;
        ] );
      ( "json",
        [
          Alcotest.test_case "escaping" `Quick test_escape;
          Alcotest.test_case "values" `Quick test_values;
          Alcotest.test_case "file framing" `Quick test_framing;
          Alcotest.test_case "schema fields" `Quick test_schema;
        ] );
    ]
