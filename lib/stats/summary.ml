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

(* [Float.compare x y < 0] on unboxed floats: nan sorts below every
   other value and equals itself, and -0.0 equals 0.0. *)
let[@inline] lt (x : float) y = x < y || (x <> x && y = y)

(* Reorder [a.(0 .. n-1)] so that [a.(k)] holds the element of rank [k]
   under [lt], everything before it is not above it and everything after
   it not below it: Hoare's selection around a median-of-three pivot,
   partitioned three ways so that runs of equal samples cost linear
   time. *)
let select a n k =
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let l = !lo and h = !hi in
    let m = l + ((h - l) / 2) in
    let med =
      if lt a.(l) a.(m) then
        if lt a.(m) a.(h) then m else if lt a.(l) a.(h) then h else l
      else if lt a.(l) a.(h) then l
      else if lt a.(m) a.(h) then h
      else m
    in
    let pivot = a.(med) in
    (* [l, below) < pivot, [below, i) = pivot, (above, h] > pivot *)
    let below = ref l and i = ref l and above = ref h in
    while !i <= !above do
      let v = a.(!i) in
      if lt v pivot then begin
        a.(!i) <- a.(!below);
        a.(!below) <- v;
        incr below;
        incr i
      end
      else if lt pivot v then begin
        a.(!i) <- a.(!above);
        a.(!above) <- v;
        decr above
      end
      else incr i
    done;
    if k < !below then hi := !below - 1
    else if k > !above then lo := !above + 1
    else begin
      lo := k;
      hi := k
    end
  done

(* [percentile_sorted] reads the order statistics at ranks [lo] and
   [lo + 1]; selection finds the first, and the second is the smallest
   element after it. *)
let percentile_in_place a n p =
  if not (p >= 0.0 && p <= 100.0) then invalid_arg "Summary.percentile: p outside [0, 100]";
  if n < 1 || n > Array.length a then invalid_arg "Summary.percentile: empty";
  if n = 1 then a.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let frac = rank -. float_of_int lo in
    select a n lo;
    let at_lo = a.(lo) in
    let at_hi = ref at_lo in
    if lo < n - 1 then begin
      at_hi := a.(lo + 1);
      for i = lo + 2 to n - 1 do
        if lt a.(i) !at_hi then at_hi := a.(i)
      done
    end;
    at_lo +. (frac *. (!at_hi -. at_lo))
  end

let percentile xs p =
  let a = Array.of_list xs in
  percentile_in_place a (Array.length a) p

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
