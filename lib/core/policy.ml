type t = { fraction : float; min_quarantine : int; block_factor : float }

let default = { fraction = 0.25; min_quarantine = 128 * 1024; block_factor = 2.0 }
let with_min t min_quarantine = { t with min_quarantine }
let with_fraction t fraction = { t with fraction }

let threshold t ~live ~quarantine =
  let total = live + quarantine in
  Int.max t.min_quarantine (int_of_float (t.fraction *. float_of_int total))

let should_revoke t ~live ~quarantine = quarantine > threshold t ~live ~quarantine

let should_block t ~live ~quarantine =
  float_of_int quarantine
  > t.block_factor *. float_of_int (threshold t ~live ~quarantine)

(* Load-adaptive trigger (the serving governor's policy extension): scale
   the trigger fraction with the instantaneous foreground load so epochs
   open eagerly in troughs (harvesting idle cycles) and late at peaks.
   The deferred ceiling stays strictly under the block margin — adapting
   the trigger must never push normal operation into §5.3's blocking
   regime, which remains the hard backstop. *)
let eager_scale = 0.5
let defer_scale = 1.5

let adaptive t ~load =
  let load = if load < 0.0 then 0.0 else if load > 1.0 then 1.0 else load in
  let scale = eager_scale +. (load *. (defer_scale -. eager_scale)) in
  let scale = min scale (0.9 *. t.block_factor) in
  { t with fraction = t.fraction *. scale }
