type t = {
  bpd : int; (* buckets per decade *)
  lo : float;
  hi : float;
  counts : int array;
  mutable total : int;
}

let nbuckets bpd lo hi =
  int_of_float (ceil (Float.log10 (hi /. lo) *. float_of_int bpd)) + 1

let create ?(buckets_per_decade = 32) ?(lo = 0.1) ?(hi = 1e7) () =
  if lo <= 0.0 || hi <= lo then invalid_arg "Histogram.create: bad range";
  {
    bpd = buckets_per_decade;
    lo;
    hi;
    counts = Array.make (nbuckets buckets_per_decade lo hi) 0;
    total = 0;
  }

let bucket_of t v =
  if v <= t.lo then 0
  else if v >= t.hi then Array.length t.counts - 1
  else
    let b = int_of_float (Float.log10 (v /. t.lo) *. float_of_int t.bpd) in
    max 0 (min (Array.length t.counts - 1) b)

(* upper edge of a bucket *)
let value_of t b = t.lo *. (10.0 ** (float_of_int (b + 1) /. float_of_int t.bpd))

let record t v =
  let b = bucket_of t v in
  t.counts.(b) <- t.counts.(b) + 1;
  t.total <- t.total + 1

let count t = t.total

let percentile t p =
  if t.total = 0 then invalid_arg "Histogram.percentile: empty";
  if Float.is_nan p then invalid_arg "Histogram.percentile: p is nan";
  let p = if p < 0.0 then 0.0 else if p > 100.0 then 100.0 else p in
  let target =
    max 1 (int_of_float (ceil (p /. 100.0 *. float_of_int t.total)))
  in
  let rec go b acc =
    if b >= Array.length t.counts then value_of t (Array.length t.counts - 1)
    else
      let acc = acc + t.counts.(b) in
      if acc >= target then value_of t b else go (b + 1) acc
  in
  go 0 0

let percentile_opt t p = if t.total = 0 then None else Some (percentile t p)

let merge a b =
  if a.bpd <> b.bpd || a.lo <> b.lo || a.hi <> b.hi then
    invalid_arg "Histogram.merge: geometry mismatch";
  let m = create ~buckets_per_decade:a.bpd ~lo:a.lo ~hi:a.hi () in
  Array.iteri (fun i n -> m.counts.(i) <- n + b.counts.(i)) a.counts;
  m.total <- a.total + b.total;
  m

(* Bucket-wise integer sums commute and associate, so any merge order
   over histograms of one geometry yields the same counts — the property
   fleet-wide aggregation relies on when per-host histograms arrive in
   whatever order the worker pool finished them. *)
let merge_all = function
  | [] -> create ()
  | first :: _ as hs ->
      let m = create ~buckets_per_decade:first.bpd ~lo:first.lo ~hi:first.hi () in
      List.iter
        (fun h ->
          if h.bpd <> m.bpd || h.lo <> m.lo || h.hi <> m.hi then
            invalid_arg "Histogram.merge_all: geometry mismatch";
          Array.iteri (fun i n -> m.counts.(i) <- m.counts.(i) + n) h.counts;
          m.total <- m.total + h.total)
        hs;
      m

let max_relative_error t = (10.0 ** (1.0 /. float_of_int t.bpd)) -. 1.0
