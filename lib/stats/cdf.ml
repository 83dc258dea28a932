type t = float array (* sorted samples *)

let of_samples xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let n t = Array.length t

(* binary search: count of samples <= x *)
let count_le t x =
  let lo = ref 0 and hi = ref (Array.length t) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  !lo

let at t x =
  if Array.length t = 0 then 0.0
  else float_of_int (count_le t x) /. float_of_int (Array.length t)

let inverse t q =
  let len = Array.length t in
  if len = 0 then invalid_arg "Cdf.inverse: empty";
  let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
  let idx = int_of_float (ceil (q *. float_of_int len)) - 1 in
  t.(max 0 (min (len - 1) idx))

(* Most points [points] returns. *)
let resolution = 200

let points t =
  let len = Array.length t in
  if len = 0 then []
  else begin
    let step = max 1 (len / resolution) in
    let acc = ref [] in
    let i = ref 0 in
    while !i < len do
      acc := (t.(!i), float_of_int (!i + 1) /. float_of_int len) :: !acc;
      i := !i + step
    done;
    acc := (t.(len - 1), 1.0) :: !acc;
    List.rev !acc
  end

(* Plot size in characters. *)
let width = 72
let height = 16

let render fmt curves =
  let curves = List.filter (fun (_, c) -> n c > 0) curves in
  if curves <> [] then begin
    let mins = List.map (fun (_, c) -> c.(0)) curves in
    let maxs = List.map (fun (_, c) -> c.(n c - 1)) curves in
    let lo = max 1e-9 (List.fold_left min infinity mins) in
    let hi = List.fold_left max 0.0 maxs in
    let hi = if hi <= lo then lo *. 10.0 else hi in
    let x_of col =
      lo *. ((hi /. lo) ** (float_of_int col /. float_of_int (width - 1)))
    in
    let grid = Array.make_matrix height width ' ' in
    List.iteri
      (fun ci (_, c) ->
        let ch = Char.chr (Char.code 'a' + (ci mod 26)) in
        for col = 0 to width - 1 do
          let q = at c (x_of col) in
          let row = int_of_float (q *. float_of_int (height - 1)) in
          let row = height - 1 - max 0 (min (height - 1) row) in
          if grid.(row).(col) = ' ' then grid.(row).(col) <- ch
        done)
      curves;
    Array.iteri
      (fun i row ->
        let frac = 1.0 -. (float_of_int i /. float_of_int (height - 1)) in
        Format.fprintf fmt "%5.2f |%s@." frac (String.init width (Array.get row)))
      grid;
    Format.fprintf fmt "      %s@." (String.make width '-');
    Format.fprintf fmt "      %-10.3g%*s%10.3g (log scale)@." lo (width - 20) "" hi;
    List.iteri
      (fun ci (name, _) ->
        Format.fprintf fmt "      %c = %s@." (Char.chr (Char.code 'a' + (ci mod 26))) name)
      curves
  end
