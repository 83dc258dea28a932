type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create ~seed = { state = mix (Int64.of_int seed) }

let next t =
  t.state <- Int64.add t.state golden;
  mix t.state

let split t = { state = mix (Int64.logxor (next t) 0xA5A5A5A5DEADBEEFL) }

let int t n =
  if n <= 0 then invalid_arg "Prng.int";
  Int64.to_int (Int64.rem (Int64.logand (next t) Int64.max_int) (Int64.of_int n))

let float t bound =
  let u =
    Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.0
  in
  u *. bound

let bool t = Int64.logand (next t) 1L = 1L

let exponential t ~mean =
  let u = float t 1.0 in
  let u = if u <= 0.0 then 1e-12 else u in
  -.mean *. log u

let pareto t ~scale ~shape =
  let u = float t 1.0 in
  let u = if u <= 0.0 then 1e-12 else u in
  scale /. (u ** (1.0 /. shape))
