(* The 64-bit state lives in an 8-byte buffer, read and written unboxed:
   a [mutable int64] field would box a fresh word on every step. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  set64 t 0 s;
  t

let create ~seed = of_state (mix (Int64.of_int seed))

(* Inlined into every draw, so the state word and the mixed output stay
   unboxed locals. *)
let[@inline] step t =
  let s = Int64.add (get64 t 0) golden in
  set64 t 0 s;
  mix s

let next t = step t
let split t = of_state (mix (Int64.logxor (step t) 0xA5A5A5A5DEADBEEFL))

let int t n =
  if n <= 0 then invalid_arg "Prng.int";
  Int64.to_int (Int64.rem (Int64.logand (step t) Int64.max_int) (Int64.of_int n))

let float t bound =
  let u =
    Int64.to_float (Int64.shift_right_logical (step t) 11) /. 9007199254740992.0
  in
  u *. bound

let bool t = Int64.logand (step t) 1L = 1L

let exponential t ~mean =
  let u = float t 1.0 in
  let u = if u <= 0.0 then 1e-12 else u in
  -.mean *. log u

let pareto t ~scale ~shape =
  let u = float t 1.0 in
  let u = if u <= 0.0 then 1e-12 else u in
  scale /. (u ** (1.0 /. shape))
