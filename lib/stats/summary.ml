type t = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  q1 : float;
  median : float;
  q3 : float;
  max : float;
}

let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Summary.percentile: empty";
  if n = 1 then a.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
  end

let percentile xs p =
  if not (p >= 0.0 && p <= 100.0) then invalid_arg "Summary.percentile: p outside [0, 100]";
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  percentile_sorted a p

let mean xs =
  match xs with
  | [] -> invalid_arg "Summary.mean: empty"
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean xs =
  match xs with
  | [] -> invalid_arg "Summary.geomean: empty"
  | _ ->
      let sum =
        List.fold_left
          (fun acc x ->
            if x <= 0.0 then invalid_arg "Summary.geomean: non-positive sample";
            acc +. log x)
          0.0 xs
      in
      exp (sum /. float_of_int (List.length xs))

let of_list xs =
  let a = Array.of_list xs in
  if Array.length a = 0 then invalid_arg "Summary.of_list: empty";
  Array.sort Float.compare a;
  let n = Array.length a in
  let mu = mean xs in
  let var =
    Array.fold_left (fun acc x -> acc +. ((x -. mu) ** 2.0)) 0.0 a /. float_of_int n
  in
  {
    n;
    mean = mu;
    stddev = sqrt var;
    min = a.(0);
    q1 = percentile_sorted a 25.0;
    median = percentile_sorted a 50.0;
    q3 = percentile_sorted a 75.0;
    max = a.(n - 1);
  }

let pp fmt t =
  Format.fprintf fmt "n=%d mean=%.3g sd=%.3g min=%.3g q1=%.3g med=%.3g q3=%.3g max=%.3g"
    t.n t.mean t.stddev t.min t.q1 t.median t.q3 t.max
