(* Summary statistics the benchmark reports. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)] (the
   default "exclusive" method) computes them, so that the spreads this
   benchmark reports are the ones an outside reader recomputes from the
   same values. The middle value is the median. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stat.quartiles: empty";
  if n = 1 then (a.(0), a.(0), a.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

(* Candidate tail percentiles, in thousandths of a percent. *)
let tail_candidates = [ 99_990; 99_900; 99_000; 90_000; 50_000 ]

(* The highest percentile with at least ten samples beyond it, so that a
   tail is never read off one or two outliers; [None] below 20 samples.
   Integer arithmetic: (100 - 99.9) is not exactly 0.1 in floating
   point. *)
let tail_percentile n =
  List.find_opt (fun p -> n * (100_000 - p) >= 10 * 100_000) tail_candidates
  |> Option.map (fun p -> float_of_int p /. 1000.0)

(* Geometric-mean overhead of paired ratios (test / base), in percent. *)
let geomean_overhead_pct ratios = (Stats.Summary.geomean ratios -. 1.0) *. 100.0

(* The highest rate of an ascending ladder below which every point met
   the SLO: tail latency within [limit_us] and nothing shed. A failing
   point caps the answer even if a higher rate happens to pass, so the
   result is the knee of the curve, not a lucky outlier. 0 when the
   lowest rate already fails. *)
let max_rate_at_slo ~limit_us points =
  let rec go best = function
    | [] -> best
    | (rate, tail_us, shed) :: rest ->
        if tail_us <= limit_us && shed = 0 then go rate rest else best
  in
  go 0.0 (List.sort (fun (a, _, _) (b, _, _) -> compare a b) points)
