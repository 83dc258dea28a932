open Perfbench

let feq = Alcotest.float 1e-9

let quartiles () =
  (* reference values: Python's statistics.quantiles(xs, n=4) *)
  let check name xs (a, b, c) =
    let q1, m, q3 = Stat.quartiles xs in
    Alcotest.check feq (name ^ " q1") a q1;
    Alcotest.check feq (name ^ " median") b m;
    Alcotest.check feq (name ^ " q3") c q3
  in
  check "1..10" (List.init 10 (fun i -> float_of_int (i + 1))) (2.75, 5.5, 8.25);
  check "unsorted odd" [ 3.0; 1.0; 2.0 ] (1.0, 2.0, 3.0);
  check "two values extrapolate" [ 1.0; 2.0 ] (0.75, 1.5, 2.25);
  check "one value" [ 5.0 ] (5.0, 5.0, 5.0);
  Alcotest.check feq "median of even count" 2.5 (Stat.median [ 4.0; 1.0; 3.0; 2.0 ])

let geomean () =
  Alcotest.check feq "reciprocal ratios cancel" 0.0 (Stat.geomean_overhead_pct [ 2.0; 0.5 ]);
  Alcotest.check (Alcotest.float 1e-9) "1.21 and 1.0" 10.0
    (Stat.geomean_overhead_pct [ 1.21; 1.0 ])

let tail () =
  let p = Alcotest.(option (float 0.0)) in
  Alcotest.check p "19 samples: none" None (Stat.tail_percentile 19);
  Alcotest.check p "20 samples: median" (Some 50.0) (Stat.tail_percentile 20);
  Alcotest.check p "999 samples: p90" (Some 90.0) (Stat.tail_percentile 999);
  Alcotest.check p "1000 samples: p99" (Some 99.0) (Stat.tail_percentile 1000);
  Alcotest.check p "10000 samples: p99.9" (Some 99.9) (Stat.tail_percentile 10_000);
  Alcotest.check p "100000 samples: p99.99" (Some 99.99) (Stat.tail_percentile 100_000)

let slo_picker () =
  let pick = Stat.max_rate_at_slo ~limit_us:1000.0 in
  Alcotest.check feq "first failure caps the ladder" 90.0
    (pick [ (110.0, 800.0, 0); (80.0, 50.0, 0); (100.0, 1100.0, 0); (90.0, 900.0, 0) ]);
  Alcotest.check feq "a shed request fails the point" 80.0 (pick [ (80.0, 50.0, 0); (90.0, 60.0, 3) ]);
  Alcotest.check feq "limit is inclusive" 80.0 (pick [ (80.0, 1000.0, 0) ]);
  Alcotest.check feq "nothing passes" 0.0 (pick [ (80.0, 1500.0, 0) ])

let verdicts () =
  let lower = { Compare.name = "host_s"; lower_is_better = true; bound = 0.1 } in
  let higher = { lower with Compare.lower_is_better = false } in
  let v spec a b = Compare.verdict_name (Compare.judge spec ~a ~b).Compare.verdict in
  let around x = List.init 10 (fun i -> x +. (0.001 *. float_of_int i)) in
  let s = Alcotest.string in
  Alcotest.check s "identical" "same" (v lower (around 1.0) (around 1.0));
  Alcotest.check s "within the bound" "same" (v lower (around 1.0) (around 1.05));
  Alcotest.check s "past the bound" "worse" (v lower (around 1.0) (around 1.2));
  Alcotest.check s "clear gain, 10 pairs" "better" (v lower (around 1.0) (around 0.8));
  Alcotest.check s "direction: higher is better" "worse" (v higher (around 1.0) (around 0.8));
  Alcotest.check s "gain smaller than the spread" "same"
    (v lower [ 1.0; 1.05; 0.95; 1.04; 0.96 ] [ 0.99; 1.04; 0.94; 1.03; 0.95 ]);
  let wide = [ 1.0; 1.5; 0.7; 1.3; 0.8 ] in
  Alcotest.check s "spread wider than the bound" "unresolved" (v lower wide [ 0.9; 1.2; 0.8; 1.0; 0.85 ]);
  Alcotest.check s "wide spread, every run better" "better" (v lower wide [ 0.5; 0.55; 0.6 ]);
  Alcotest.check s "few pairs need every run better" "same" (v lower [ 1.0; 1.001; 1.002 ] [ 0.8; 0.8; 1.0005 ]);
  let r = Compare.judge lower ~a:(around 1.0) ~b:(around 0.8) in
  Alcotest.(check int) "wins" 10 r.Compare.wins;
  Alcotest.(check int) "pairs" 10 r.Compare.pairs

let json_round_trip () =
  let v =
    Json.Obj
      [
        ("a", Json.Arr [ Json.Num 1.5; Json.int 3; Json.Null; Json.Bool true ]);
        ("s", Json.Str "q\"u\\o\nte");
        ("e", Json.Obj []);
      ]
  in
  Alcotest.(check bool) "parse (print v) = v" true (Json.parse (Json.to_string v) = v);
  Alcotest.(check bool) "precision kept" true
    (Json.parse (Json.to_string (Json.Num 0.1234567890123456789)) = Json.Num 0.1234567890123456789)

(* Every workload, one tiny traced pass: all metrics BENCHMARK.json
   names are emitted, with the units it gives, and every gate holds. *)
let benchmark = lazy (Json.of_file "../../BENCHMARK.json")

let declared section =
  List.map
    (fun m -> (Json.to_string_exn (Json.member "name" m), Json.to_string_exn (Json.member "unit" m)))
    (Json.to_list (Json.member section (Lazy.force benchmark)))

let smoke (name, workload) () =
  let r =
    Bench.measure ~scale:0.02 ~setup_reps:1 ~workload ~seed:(Cells.default_seed workload) ~seconds:0.0
      ~traced:true ()
  in
  List.iter (fun f -> Printf.printf "gate: %s\n" f) r.Bench.failures;
  Alcotest.(check bool) (name ^ ": gates pass") true r.Bench.correct;
  Alcotest.(check int) (name ^ ": nothing failed") 0 r.Bench.failed;
  let emitted ms = List.map (fun m -> (m.Bench.name, m.Bench.unit_)) ms in
  let pairs = Alcotest.(list (pair string string)) in
  Alcotest.check pairs (name ^ ": end-to-end metrics") (declared "end_to_end") (emitted r.Bench.end_to_end);
  Alcotest.check pairs (name ^ ": per-layer metrics")
    (List.sort compare (declared "per_layer"))
    (List.sort compare (emitted r.Bench.per_layer));
  List.iter
    (fun m ->
      if not (Float.is_finite m.Bench.value) then Alcotest.failf "%s: %s is not finite" name m.Bench.name)
    (r.Bench.end_to_end @ r.Bench.per_layer)

let () =
  Alcotest.run "perf"
    [
      ( "stat",
        [
          Alcotest.test_case "quartiles" `Quick quartiles;
          Alcotest.test_case "geomean" `Quick geomean;
          Alcotest.test_case "tail percentile" `Quick tail;
          Alcotest.test_case "max rate at slo" `Quick slo_picker;
        ] );
      ("compare", [ Alcotest.test_case "verdicts" `Quick verdicts ]);
      ("json", [ Alcotest.test_case "round trip" `Quick json_round_trip ]);
      ("smoke", List.map (fun w -> Alcotest.test_case (fst w) `Quick (smoke w)) Cells.workloads);
    ]
