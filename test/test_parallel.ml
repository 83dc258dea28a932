(* Parallel.Pool: submission-order results, deterministic error
   selection, and the jobs-determinism contract for real simulation
   fan-outs (the library-level half of `dune build @determinism`, which
   compares the executables' output across --jobs values). *)

module Pool = Parallel.Pool
module Runtime = Ccr.Runtime
module Revoker = Ccr.Revoker
module Serve = Workload.Serve
module Slo = Service.Slo

let check = Alcotest.(check bool)

let test_default_jobs () =
  let j = Pool.default_jobs () in
  check "at least 1" true (j >= 1);
  check "capped" true (j <= 16)

let test_order_preserved () =
  let xs = List.init 67 (fun i -> i) in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d" jobs)
        (List.map (fun i -> i * i) xs)
        (Pool.map ~jobs (fun i -> i * i) xs))
    [ 1; 2; 4; 9 ]

let test_empty_and_singleton () =
  Alcotest.(check (list int)) "empty" [] (Pool.map ~jobs:4 (fun i -> i) []);
  Alcotest.(check (list int)) "one" [ 42 ] (Pool.map ~jobs:4 (fun i -> i) [ 42 ])

let test_more_jobs_than_items () =
  Alcotest.(check (list int))
    "jobs > items" [ 2; 4; 6 ]
    (Pool.map ~jobs:12 (( * ) 2) [ 1; 2; 3 ])

let test_lowest_failure_wins () =
  (* items 2 and 5 both raise; the lowest index must surface on every
     schedule, so error output is as deterministic as success output *)
  List.iter
    (fun jobs ->
      match
        Pool.map ~jobs
          (fun i -> if i = 2 || i = 5 then failwith (string_of_int i) else i)
          [ 0; 1; 2; 3; 4; 5; 6 ]
      with
      | _ -> Alcotest.fail "expected failure"
      | exception Failure msg ->
          Alcotest.(check string)
            (Printf.sprintf "jobs=%d" jobs)
            "2" msg)
    [ 1; 3; 8 ]

let test_all_items_run_despite_failure () =
  (* a failure must not stop other items: every element is attempted *)
  let hit = Array.make 16 false in
  (try
     ignore
       (Pool.map ~jobs:4
          (fun i ->
            hit.(i) <- true;
            if i = 0 then failwith "boom")
          (List.init 16 (fun i -> i)))
   with Failure _ -> ());
  check "all attempted" true (Array.for_all (fun b -> b) hit)

(* ---- simulation determinism across jobs ---- *)

(* Identical (seed, mode) simulation points fanned out with different
   jobs values must produce identical results: the pool only reorders
   host execution, never simulated behaviour. *)

let spec_points =
  let p = Workload.Profile.find "hmmer_retro" in
  List.concat_map
    (fun mode -> List.map (fun seed -> (p, mode, seed)) [ 1; 2 ])
    [ Runtime.Safe Revoker.Cornucopia; Runtime.Safe Revoker.Reloaded ]

let run_spec_points ~jobs =
  Pool.map ~jobs
    (fun (p, mode, seed) ->
      let r = Workload.Spec.run ~seed ~ops_scale:0.02 ~mode p in
      ( r.Workload.Result.wall_cycles,
        r.Workload.Result.cpu_cycles,
        r.Workload.Result.bus_total ))
    spec_points

let test_spec_jobs_deterministic () =
  let seq = run_spec_points ~jobs:1 in
  let par = run_spec_points ~jobs:4 in
  Alcotest.(check (list (triple int int int))) "jobs 1 == jobs 4" seq par

let serve_outcome ~jobs =
  let cfg = { Serve.default_config with Serve.requests = 400; seed = 7 } in
  Pool.map ~jobs
    (fun mode ->
      let o = Serve.run ~config:cfg ~governed:false ~mode () in
      ( (o.Serve.offered, o.Serve.served, o.Serve.shed_depth),
        (match Slo.percentile o.Serve.slo 99.0 with Some v -> v | None -> 0.0) ))
    [ Runtime.Safe Revoker.Cornucopia; Runtime.Safe Revoker.Reloaded ]

let test_serve_jobs_deterministic () =
  Alcotest.(check (list (pair (triple int int int) (float 0.0))))
    "serve jobs 1 == jobs 4" (serve_outcome ~jobs:1) (serve_outcome ~jobs:4)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "default jobs" `Quick test_default_jobs;
          Alcotest.test_case "order preserved" `Quick test_order_preserved;
          Alcotest.test_case "empty and singleton" `Quick test_empty_and_singleton;
          Alcotest.test_case "jobs > items" `Quick test_more_jobs_than_items;
          Alcotest.test_case "lowest failure wins" `Quick test_lowest_failure_wins;
          Alcotest.test_case "failure isolation" `Quick
            test_all_items_run_despite_failure;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "spec points" `Quick test_spec_jobs_deterministic;
          Alcotest.test_case "serve points" `Quick test_serve_jobs_deterministic;
        ] );
    ]
