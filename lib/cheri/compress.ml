let mantissa_width = 14
let max_mantissa = (1 lsl mantissa_width) - 1

(* Smallest e >= 0 with length <= (2^mantissa_width - 1) * 2^e; for e = 0
   any length below 2^mw is exact without alignment constraints. *)
let exponent_for_length len =
  if len < 1 lsl mantissa_width then 0
  else
    let rec go e =
      if len <= max_mantissa lsl e then e else go (e + 1)
    in
    go 1

let align_down x a = x land lnot (a - 1)
let align_up x a = (x + a - 1) land lnot (a - 1)

(* Bounds padded out to [2^e] alignment. Rounding the base down and the
   top up can carry the length past what exponent [e]'s mantissa holds;
   then the next exponent is taken, as CHERI Concentrate's exponent
   carry does. Top-level, not a closure: it runs on every malloc. *)
let rec padded ~base ~length e =
  let a = 1 lsl e in
  let base' = align_down base a in
  let top' = align_up (base + length) a in
  if top' - base' > max_mantissa lsl e then padded ~base ~length (e + 1)
  else (base', top' - base')

let representable ~base ~length =
  let e = exponent_for_length length in
  if e = 0 then (base, length) else padded ~base ~length e

let is_exact ~base ~length =
  let base', length' = representable ~base ~length in
  base' = base && length' = length

let required_alignment len = 1 lsl exponent_for_length len

let round_length len =
  let a = required_alignment len in
  align_up len a

(* Representable space beyond the bounds: one quarter of the region size
   below base and above top, with a 2 KiB floor. CHERI Concentrate's true
   window is asymmetric and encoding-dependent; the quarter-size model
   keeps the property the revoker relies on: the base never moves, and far
   out-of-bounds arithmetic strips the tag. *)
let representable_window ~base ~length =
  let base', length' = representable ~base ~length in
  let slack = Int.max 2048 (length' / 4) in
  (Int.max 0 (base' - slack), base' + length' + slack)
