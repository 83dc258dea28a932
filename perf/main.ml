(* perf/main.exe: the simulator benchmark's command line.

     run --workload W [--seed N] [--seconds S] [--trace 0|1] [--out F]
     compare A.json B.json [--bench BENCHMARK.json]

   [run] prints a human-readable report and, as its last line, one JSON
   object: [correct], [attempted], [failed] and the metrics with their
   units. It exits 1 when a correctness gate failed. *)

open Cmdliner
open Perfbench

let cpu_model () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> "unknown"
  | ic ->
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:"model name" line -> (
            match String.index_opt line ':' with
            | Some i -> String.trim (String.sub line (i + 1) (String.length line - i - 1))
            | None -> "unknown")
        | _ -> scan ()
        | exception End_of_file -> "unknown"
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

(* Append one run record to [path], creating it with a description of
   the host when absent. *)
let append_record path ~label record =
  let doc =
    if Sys.file_exists path then Json.of_file path
    else
      Json.Obj
        [
          ( "meta",
            Json.Obj
              [
                ("label", Json.Str label);
                ("ocaml", Json.Str Sys.ocaml_version);
                ("nproc", Json.int (Domain.recommended_domain_count ()));
                ("cpu", Json.Str (cpu_model ()));
              ] );
          ("runs", Json.Arr []);
        ]
  in
  let doc =
    match doc with
    | Json.Obj kvs ->
        Json.Obj
          (List.map
             (fun (k, v) -> if k = "runs" then (k, Json.Arr (Json.to_list v @ [ record ])) else (k, v))
             kvs)
    | _ -> failwith (path ^ ": not a benchmark record file")
  in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc (Json.to_string doc ^ "\n"))

let run workload seed seconds trace check out label =
  let seed = Option.value seed ~default:(Cells.default_seed workload) in
  let r = Bench.measure ~check ~workload ~seed ~seconds ~traced:(trace = 1) () in
  Bench.pp_report Format.std_formatter r;
  Option.iter (fun path -> append_record path ~label (Bench.record r)) out;
  print_endline (Json.to_string (Bench.result_line r));
  if r.Bench.correct then 0 else 1

let compare bench a b =
  let specs = Compare.specs_of_benchmark (Json.of_file bench) in
  let rows = Compare.compare_sets specs ~a:(Compare.load_runs a) ~b:(Compare.load_runs b) in
  if rows = [] then begin
    prerr_endline "compare: the two files share no workload with untraced runs";
    2
  end
  else begin
    List.iter (Compare.pp_row Format.std_formatter) rows;
    if List.exists (fun (_, r) -> r.Compare.verdict = Compare.Worse) rows then 1 else 0
  end

let workload_arg =
  Arg.(
    required
    & opt (some (enum Cells.workloads)) None
    & info [ "workload" ] ~docv:"W"
        ~doc:"Workload: spec_baseline, spec_revoke, serve_knee or tenant_storm.")

let seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"N"
        ~doc:"Input seed (default: 1 for the SPEC and tenant workloads, 11 for serve_knee).")

let seconds_arg =
  Arg.(
    value & opt float 20.0
    & info [ "seconds" ] ~docv:"S"
        ~doc:"Measure for about $(docv) seconds; at least one pass always runs.")

let trace_arg =
  Arg.(
    value
    & opt (enum [ ("0", 0); ("1", 1) ]) 0
    & info [ "trace" ] ~docv:"0|1"
        ~doc:
          "1: alternate untraced and traced passes and report per-layer metrics instead of \
           the end-to-end ones.")

let check_arg =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:"Attach the protocol sanitizer and race detector to every untraced cell (slow).")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE" ~doc:"Append the run's full record (quartiles, gates) to $(docv).")

let label_arg =
  Arg.(
    value & opt string ""
    & info [ "label" ] ~docv:"L" ~doc:"Label stored in a new $(b,--out) file, e.g. the commit.")

let run_cmd =
  Cmd.v
    (Cmd.info "run" ~doc:"Run one workload of the benchmark.")
    Term.(
      const run $ workload_arg $ seed_arg $ seconds_arg $ trace_arg $ check_arg $ out_arg
      $ label_arg)

let compare_cmd =
  let file n docv = Arg.(required & pos n (some file) None & info [] ~docv) in
  let bench =
    Arg.(
      value & opt file "BENCHMARK.json"
      & info [ "bench" ] ~docv:"FILE" ~doc:"The benchmark definition holding the bounds.")
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Compare two sets of runs (files written by $(b,run --out)) metric by metric: better, \
          same, worse or unresolved. Exits 1 if any metric got worse.")
    Term.(const compare $ bench $ file 0 "A.json" $ file 1 "B.json")

let () =
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "main.exe" ~doc:"The simulator's performance benchmark.") [ run_cmd; compare_cmd ]))
