(* A/B verdicts over two sets of benchmark runs, by the bounds that
   BENCHMARK.json fixes for its end-to-end metrics.

   Runs pair up in the order each set recorded them, per workload: run
   them interleaved (A, B, B, A, ...) so that slow phases of a shared
   host fall on both sides. *)

type spec = { name : string; lower_is_better : bool; bound : float }

let specs_of_benchmark json =
  List.map
    (fun m ->
      {
        name = Json.to_string_exn (Json.member "name" m);
        lower_is_better = Json.to_string_exn (Json.member "better" m) = "lower";
        bound = Json.to_float (Json.member "bound" m);
      })
    (Json.to_list (Json.member "end_to_end" json))

type verdict = Better | Same | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

type row = {
  metric : string;
  a : float list;
  b : float list;
  change : float; (* (median B - median A) / |median A|, signed as measured *)
  wins : int; (* pairs in which B reads better than A; ties count for neither *)
  pairs : int;
  verdict : verdict;
}

(* The rule (choosing-metrics guide, section 8):
   - B is worse when its median is worse than A's by more than the bound.
   - When A's own spread (interquartile range over median) is wider than
     the bound, nothing is resolved unless every run of B reads better
     (or, for a regression, worse) than every run of A.
   - B is better when its median beats A's by more than A's spread and,
     given at least ten pairs, B wins nine tenths of them; with fewer
     pairs, every run of B must beat every run of A. *)
let judge spec ~a ~b =
  let qa1, ma, qa3 = Stat.quartiles a in
  let _, mb, _ = Stat.quartiles b in
  let better x y = if spec.lower_is_better then x < y else x > y in
  let scale = if ma = 0.0 then 1.0 else Float.abs ma in
  let change = (mb -. ma) /. scale in
  let worse_by = if spec.lower_is_better then change else -.change in
  let iqr = qa3 -. qa1 in
  let all_better = List.for_all (fun y -> List.for_all (fun x -> better y x) a) b in
  let all_worse = List.for_all (fun y -> List.for_all (fun x -> better x y) a) b in
  let pairs = min (List.length a) (List.length b) in
  let take xs = List.filteri (fun i _ -> i < pairs) xs in
  let wins = List.length (List.filter (fun (x, y) -> better y x) (List.combine (take a) (take b))) in
  let gained =
    worse_by < 0.0
    && Float.abs (mb -. ma) > iqr
    && if pairs >= 10 then wins * 10 >= pairs * 9 else all_better
  in
  let verdict =
    if iqr /. scale > spec.bound then
      if all_better then Better else if all_worse && worse_by > spec.bound then Worse else Unresolved
    else if worse_by > spec.bound then Worse
    else if gained then Better
    else Same
  in
  { metric = spec.name; a; b; change; wins; pairs; verdict }

(* Untraced run records of a file written by [run --out]. *)
let load_runs path =
  Json.to_list (Json.member "runs" (Json.of_file path))
  |> List.filter (fun r -> Json.member "trace" r = Json.Bool false)

let values runs ~workload ~metric =
  List.filter_map
    (fun r ->
      if Json.member "workload" r <> Json.Str workload then None
      else
        match Json.member "value" (Json.member metric (Json.member "metrics" r)) with
        | Json.Num v -> Some v
        | _ -> None)
    runs

let workloads_of runs =
  List.fold_left
    (fun acc r ->
      let w = Json.to_string_exn (Json.member "workload" r) in
      if List.mem w acc then acc else acc @ [ w ])
    [] runs

(* Rows for every workload both sets ran and every bounded metric. *)
let compare_sets specs ~a ~b =
  List.concat_map
    (fun w ->
      List.filter_map
        (fun spec ->
          match (values a ~workload:w ~metric:spec.name, values b ~workload:w ~metric:spec.name) with
          | [], _ | _, [] -> None
          | va, vb -> Some (w, judge spec ~a:va ~b:vb))
        specs)
    (List.filter (fun w -> List.mem w (workloads_of b)) (workloads_of a))

let pp_row fmt (w, r) =
  let q xs =
    let q1, m, q3 = Stat.quartiles xs in
    Printf.sprintf "%.5g [%.5g, %.5g] n=%d" m q1 q3 (List.length xs)
  in
  Format.fprintf fmt "%-14s %-24s A %-36s B %-36s %+7.2f%%  wins %d/%d  %s@." w r.metric (q r.a) (q r.b)
    (100.0 *. r.change) r.wins r.pairs (verdict_name r.verdict)
