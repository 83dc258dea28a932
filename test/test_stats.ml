(* Statistics library tests. *)

module Summary = Stats.Summary
module Cdf = Stats.Cdf
module Table = Stats.Table

let checkf = Alcotest.(check (float 1e-9))
let check = Alcotest.(check bool)

let test_mean_geomean () =
  checkf "mean" 2.0 (Summary.mean [ 1.0; 2.0; 3.0 ]);
  checkf "geomean" 2.0 (Summary.geomean [ 1.0; 2.0; 4.0 ]);
  Alcotest.check_raises "geomean nonpositive"
    (Invalid_argument "Summary.geomean: non-positive sample") (fun () ->
      ignore (Summary.geomean [ 1.0; 0.0 ]))

let test_percentiles () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  checkf "p0" 1.0 (Summary.percentile xs 0.0);
  checkf "p50" 3.0 (Summary.percentile xs 50.0);
  checkf "p100" 5.0 (Summary.percentile xs 100.0);
  checkf "p25 interpolated" 2.0 (Summary.percentile xs 25.0);
  checkf "p10" 1.4 (Summary.percentile xs 10.0);
  List.iter
    (fun p ->
      Alcotest.check_raises (Printf.sprintf "p = %g rejected" p)
        (Invalid_argument "Summary.percentile: p outside [0, 100]") (fun () ->
          ignore (Summary.percentile [ 1.0; 2.0; 3.0; 4.0 ] p)))
    [ 150.0; -5.0; nan ]

let test_summary () =
  let s = Summary.of_list [ 4.0; 1.0; 3.0; 2.0 ] in
  Alcotest.(check int) "n" 4 s.Summary.n;
  checkf "min" 1.0 s.Summary.min;
  checkf "max" 4.0 s.Summary.max;
  checkf "median" 2.5 s.Summary.median;
  checkf "mean" 2.5 s.Summary.mean

let test_cdf () =
  let c = Cdf.of_samples [ 1.0; 2.0; 2.0; 10.0 ] in
  checkf "below" 0.0 (Cdf.at c 0.5);
  checkf "half" 0.75 (Cdf.at c 2.0);
  checkf "all" 1.0 (Cdf.at c 10.0);
  checkf "inverse median" 2.0 (Cdf.inverse c 0.5);
  checkf "inverse max" 10.0 (Cdf.inverse c 1.0);
  check "points nonempty" true (Cdf.points c <> [])

let test_table_renders () =
  let t = Table.create ~header:[ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "333"; "4" ];
  let buf = Buffer.create 64 in
  Table.render (Format.formatter_of_buffer buf) t;
  Format.pp_print_flush (Format.formatter_of_buffer buf) ();
  check "contains rows" true (String.length (Buffer.contents buf) > 0)

(* ---- boxplot ---- *)

let test_boxplot () =
  check "empty is None" true (Stats.Boxplot.of_samples ~label:"x" [] = None);
  match Stats.Boxplot.of_samples ~label:"x" [ 5.0; 1.0; 3.0; 2.0; 4.0 ] with
  | None -> Alcotest.fail "expected a box"
  | Some b ->
      checkf "min" 1.0 b.Stats.Boxplot.min;
      checkf "median" 3.0 b.Stats.Boxplot.median;
      checkf "max" 5.0 b.Stats.Boxplot.max;
      let buf = Buffer.create 256 in
      let f = Format.formatter_of_buffer buf in
      Stats.Boxplot.render f ~unit:"us" [ b ];
      Format.pp_print_flush f ();
      check "renders" true (String.length (Buffer.contents buf) > 0)

(* ---- histogram ---- *)

let test_histogram_basics () =
  let h = Stats.Histogram.create () in
  Alcotest.check_raises "empty percentile"
    (Invalid_argument "Histogram.percentile: empty") (fun () ->
      ignore (Stats.Histogram.percentile h 50.0));
  List.iter (Stats.Histogram.record h) [ 1.0; 10.0; 100.0; 1000.0 ];
  Alcotest.(check int) "count" 4 (Stats.Histogram.count h);
  let p50 = Stats.Histogram.percentile h 50.0 in
  let err = Stats.Histogram.max_relative_error h in
  check "p50 near 10" true (p50 >= 10.0 *. (1.0 -. err) && p50 <= 10.0 *. (1.0 +. 2.0 *. err));
  check "p100 near 1000" true (Stats.Histogram.percentile h 100.0 >= 1000.0 *. (1.0 -. err))

let test_histogram_merge () =
  let a = Stats.Histogram.create () and b = Stats.Histogram.create () in
  Stats.Histogram.record a 5.0;
  Stats.Histogram.record b 50.0;
  let m = Stats.Histogram.merge a b in
  Alcotest.(check int) "merged count" 2 (Stats.Histogram.count m);
  let bad = Stats.Histogram.create ~buckets_per_decade:8 () in
  Alcotest.check_raises "geometry mismatch"
    (Invalid_argument "Histogram.merge: geometry mismatch") (fun () ->
      ignore (Stats.Histogram.merge a bad))

let test_histogram_edges () =
  let h = Stats.Histogram.create () in
  (* values outside [lo, hi) clamp into the edge buckets *)
  Stats.Histogram.record h 1e-9;
  Stats.Histogram.record h 1e12;
  Alcotest.(check int) "count" 2 (Stats.Histogram.count h);
  let err = Stats.Histogram.max_relative_error h in
  let p0 = Stats.Histogram.percentile h 0.0 in
  let p100 = Stats.Histogram.percentile h 100.0 in
  check "p0 lands in the lowest bucket" true (p0 <= 0.1 *. (1.0 +. err) +. 1e-9);
  check "p100 lands in the highest bucket" true (p100 >= 1e7);
  check "edge percentiles stay ordered" true (p0 <= p100);
  (* out-of-range p clamps rather than raising *)
  checkf "p(-5) = p0" p0 (Stats.Histogram.percentile h (-5.0));
  checkf "p(250) = p100" p100 (Stats.Histogram.percentile h 250.0);
  (* nan is neither below 0 nor above 100: it must not read as p0 *)
  Alcotest.check_raises "p = nan rejected"
    (Invalid_argument "Histogram.percentile: p is nan") (fun () ->
      ignore (Stats.Histogram.percentile h nan))

let test_histogram_merge_empty () =
  let a = Stats.Histogram.create () and b = Stats.Histogram.create () in
  let m = Stats.Histogram.merge a b in
  Alcotest.(check int) "empty + empty" 0 (Stats.Histogram.count m);
  Alcotest.check_raises "merged empty percentile"
    (Invalid_argument "Histogram.percentile: empty") (fun () ->
      ignore (Stats.Histogram.percentile m 50.0));
  Stats.Histogram.record a 42.0;
  let m = Stats.Histogram.merge a b in
  Alcotest.(check int) "nonempty + empty" 1 (Stats.Histogram.count m);
  let err = Stats.Histogram.max_relative_error m in
  let p50 = Stats.Histogram.percentile m 50.0 in
  check "sample survives the merge" true
    (p50 >= 42.0 *. (1.0 -. err) && p50 <= 42.0 *. (1.0 +. 2.0 *. err))

(* merge_all is the fleet aggregation path: hosts report in whatever
   order they finish, some may have served nothing, and the fleet-wide
   percentile must not care. *)
let test_histogram_merge_all () =
  let empty = Stats.Histogram.merge_all [] in
  Alcotest.(check int) "no hosts" 0 (Stats.Histogram.count empty);
  let a = Stats.Histogram.create () in
  List.iter (Stats.Histogram.record a) [ 3.0; 7.0; 11.0 ];
  let solo = Stats.Histogram.merge_all [ a ] in
  Alcotest.(check int) "single-host fleet keeps its count" 3
    (Stats.Histogram.count solo);
  checkf "single-host fleet keeps its p50"
    (Stats.Histogram.percentile a 50.0)
    (Stats.Histogram.percentile solo 50.0);
  (* hosts with disjoint latency ranges: decades apart, so every sample
     lands in a distinct bucket and nothing may collide away *)
  let lo = Stats.Histogram.create ()
  and mid = Stats.Histogram.create ()
  and hi = Stats.Histogram.create () in
  Stats.Histogram.record lo 0.5;
  Stats.Histogram.record mid 500.0;
  Stats.Histogram.record hi 500_000.0;
  let idle = Stats.Histogram.create () in
  let m = Stats.Histogram.merge_all [ lo; idle; mid; hi ] in
  Alcotest.(check int) "disjoint ranges all counted" 3
    (Stats.Histogram.count m);
  let err = Stats.Histogram.max_relative_error m in
  check "low extreme survives" true
    (Stats.Histogram.percentile m 0.0 <= 0.5 *. (1.0 +. err));
  check "high extreme survives" true
    (Stats.Histogram.percentile m 100.0 >= 500_000.0 *. (1.0 -. err));
  (* order independence: every permutation of the host list produces the
     same percentile at every probed quantile *)
  let rec permutations = function
    | [] -> [ [] ]
    | l ->
        List.concat_map
          (fun x ->
            let rest = List.filter (fun y -> y != x) l in
            List.map (fun p -> x :: p) (permutations rest))
          l
  in
  let reference = Stats.Histogram.merge_all [ lo; mid; hi; a ] in
  List.iter
    (fun perm ->
      let m = Stats.Histogram.merge_all perm in
      Alcotest.(check int)
        "permutation count" (Stats.Histogram.count reference)
        (Stats.Histogram.count m);
      List.iter
        (fun q ->
          checkf "permutation percentile"
            (Stats.Histogram.percentile reference q)
            (Stats.Histogram.percentile m q))
        [ 0.0; 25.0; 50.0; 90.0; 99.0; 100.0 ])
    (permutations [ lo; mid; hi; a ]);
  let bad = Stats.Histogram.create ~buckets_per_decade:8 () in
  Alcotest.check_raises "merge_all geometry mismatch"
    (Invalid_argument "Histogram.merge_all: geometry mismatch") (fun () ->
      ignore (Stats.Histogram.merge_all [ a; bad ]))

(* ---- quantile edge semantics, pinned (see histogram.mli) ----

   These document exact behaviour callers lean on: an empty histogram
   raises (and percentile_opt says None), a single sample answers every
   quantile with its bucket's upper edge, and a bucket saturated by
   every sample — including the clamped range-edge buckets — answers
   every quantile with that one edge. *)

let test_histogram_quantile_edges () =
  let empty = Stats.Histogram.create () in
  Alcotest.check_raises "empty percentile raises"
    (Invalid_argument "Histogram.percentile: empty") (fun () ->
      ignore (Stats.Histogram.percentile empty 99.0));
  check "empty percentile_opt is None" true
    (Stats.Histogram.percentile_opt empty 99.0 = None);
  (* single sample: every p, including the clamped out-of-range ones,
     reports the same bucket upper edge, and it bounds the sample from
     above within the relative-error budget *)
  let single = Stats.Histogram.create () in
  Stats.Histogram.record single 37.0;
  let err = Stats.Histogram.max_relative_error single in
  let edge = Stats.Histogram.percentile single 50.0 in
  check "single sample below its bucket edge" true
    (edge >= 37.0 && edge <= 37.0 *. (1.0 +. err) +. 1e-9);
  List.iter
    (fun p -> checkf "single sample: every p, one answer" edge
        (Stats.Histogram.percentile single p))
    [ -10.0; 0.0; 1.0; 50.0; 99.9; 100.0; 400.0 ];
  check "percentile_opt agrees when nonempty" true
    (Stats.Histogram.percentile_opt single 99.0 = Some edge);
  (* saturated bucket: every sample clamps into the top edge bucket, so
     every quantile is that bucket's upper edge *)
  let sat = Stats.Histogram.create () in
  for _ = 1 to 1000 do
    Stats.Histogram.record sat 1e9 (* beyond hi = 1e7: clamps *)
  done;
  Alcotest.(check int) "saturated count" 1000 (Stats.Histogram.count sat);
  let top = Stats.Histogram.percentile sat 100.0 in
  check "saturated top bucket at or past hi" true (top >= 1e7);
  List.iter
    (fun p -> checkf "saturated bucket: every p, one answer" top
        (Stats.Histogram.percentile sat p))
    [ 0.0; 0.1; 50.0; 99.0; 100.0 ]

let prop_histogram_percentile_bounded =
  QCheck.Test.make ~name:"histogram percentile within relative-error bound of exact"
    ~count:100
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 1 200) (map (fun x -> x +. 0.5) (float_bound_exclusive 5000.0))))
    (fun xs ->
      let h = Stats.Histogram.create () in
      List.iter (Stats.Histogram.record h) xs;
      let err = Stats.Histogram.max_relative_error h in
      let sorted = List.sort compare xs in
      let n = List.length sorted in
      (* nearest-rank empirical quantile, the definition the histogram
         upper-bounds *)
      let exact_rank q =
        let k = max 1 (int_of_float (ceil (q /. 100.0 *. float_of_int n))) in
        List.nth sorted (k - 1)
      in
      List.for_all
        (fun q ->
          let exact = exact_rank q in
          let est = Stats.Histogram.percentile h q in
          est >= exact -. 1e-9 && est <= exact *. (1.0 +. err) +. 1e-9)
        [ 10.0; 50.0; 90.0; 99.0 ])

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentiles are monotone in p" ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 1 40) (float_bound_inclusive 1000.0))
              (pair (float_bound_inclusive 100.0) (float_bound_inclusive 100.0)))
    (fun (xs, (p1, p2)) ->
      QCheck.assume (xs <> []);
      let lo = min p1 p2 and hi = max p1 p2 in
      Summary.percentile xs lo <= Summary.percentile xs hi +. 1e-9)

(* The definition [Summary.percentile] had before it selected: sort the
   whole sample under [Float.compare] and interpolate between the two
   order statistics around the rank. *)
let sorted_percentile xs p =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 1 then a.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
  end

(* Duplicates, signed zeros and nan are where a selection could part
   from the sort: many draws repeat a small set of values. *)
let gen_samples =
  QCheck.Gen.(
    list_size (int_range 1 2_000)
      (frequency
         [
           (1, return nan);
           (1, return 0.0);
           (1, return (-0.0));
           (4, map float_of_int (int_range (-20) 20));
           (4, float_range (-1e6) 1e6);
         ]))

let gen_p = QCheck.Gen.(oneof [ return 0.0; return 99.9; return 100.0; float_range 0.0 100.0 ])

let prop_percentile_selects_as_sort_reads =
  QCheck.Test.make ~name:"selection equals the sort-based percentile" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(pair (fun xs -> Printf.sprintf "<%d samples>" (List.length xs)) float)
       QCheck.Gen.(pair gen_samples gen_p))
    (fun (xs, p) ->
      let want = sorted_percentile xs p in
      (* the array entry point reads a prefix and leaves the rest alone *)
      let n = List.length xs in
      let a = Array.append (Array.of_list xs) [| infinity; neg_infinity |] in
      let got = Summary.percentile_in_place a n p in
      Float.equal want (Summary.percentile xs p)
      && Float.equal want got
      && a.(n) = infinity
      && a.(n + 1) = neg_infinity)

let test_percentile_in_place_allocation () =
  let a = Array.init 75_000 (fun i -> float_of_int ((i * 7919) mod 1_000)) in
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Summary.percentile_in_place a 75_000 99.9));
  (* the boxed result, nothing per sample *)
  Alcotest.(check (float 0.0)) "minor words" 2.0 (Gc.minor_words () -. before);
  Alcotest.check_raises "prefix longer than the array"
    (Invalid_argument "Summary.percentile: empty") (fun () ->
      ignore (Summary.percentile_in_place [| 1.0 |] 2 50.0))

let prop_cdf_inverse_consistent =
  QCheck.Test.make ~name:"cdf(inverse q) >= q" ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 1 40) (float_bound_inclusive 1000.0))
              (float_bound_inclusive 1.0))
    (fun (xs, q) ->
      QCheck.assume (xs <> []);
      let c = Cdf.of_samples xs in
      Cdf.at c (Cdf.inverse c q) >= q -. 1e-9)

let prop_summary_bounds =
  QCheck.Test.make ~name:"mean and median lie within [min,max]" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 60) (float_bound_inclusive 1000.0))
    (fun xs ->
      QCheck.assume (xs <> []);
      let s = Summary.of_list xs in
      s.Summary.min <= s.Summary.mean +. 1e-9
      && s.Summary.mean <= s.Summary.max +. 1e-9
      && s.Summary.min <= s.Summary.median
      && s.Summary.median <= s.Summary.max)

let () =
  Alcotest.run "stats"
    [
      ( "summary",
        [
          Alcotest.test_case "mean/geomean" `Quick test_mean_geomean;
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          Alcotest.test_case "summary" `Quick test_summary;
          Alcotest.test_case "in-place percentile allocation" `Quick
            test_percentile_in_place_allocation;
        ] );
      ("cdf", [ Alcotest.test_case "cdf" `Quick test_cdf ]);
      ("boxplot", [ Alcotest.test_case "boxplot" `Quick test_boxplot ]);
      ( "histogram",
        [
          Alcotest.test_case "basics" `Quick test_histogram_basics;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
          Alcotest.test_case "edge buckets" `Quick test_histogram_edges;
          Alcotest.test_case "merge empty" `Quick test_histogram_merge_empty;
          Alcotest.test_case "quantile edge semantics" `Quick
            test_histogram_quantile_edges;
          Alcotest.test_case "merge_all" `Quick test_histogram_merge_all;
        ] );
      ("table", [ Alcotest.test_case "render" `Quick test_table_renders ]);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_percentile_monotone; prop_percentile_selects_as_sort_reads;
            prop_cdf_inverse_consistent;
            prop_summary_bounds; prop_histogram_percentile_bounded ]
      );
    ]
