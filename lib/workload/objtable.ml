module Capability = Cheri.Capability
module Machine = Sim.Machine
module Prng = Sim.Prng

let granule = 16
let chunk_slots = 256 (* one 4 KiB table chunk *)

type t = {
  rt : Ccr.Runtime.t;
  chunks : Capability.t array; (* "globals": caps to the table chunks *)
  nslots : int;
  live : Bytes.t;
  sizes : int array;
  mutable nlive : int;
}

let create rt ctx ~slots =
  if slots <= 0 then invalid_arg "Objtable.create";
  let nchunks = (slots + chunk_slots - 1) / chunk_slots in
  let chunks =
    Array.init nchunks (fun _ -> Ccr.Runtime.malloc rt ctx (chunk_slots * granule))
  in
  {
    rt;
    chunks;
    nslots = slots;
    live = Bytes.make slots '\000';
    sizes = Array.make slots 0;
    nlive = 0;
  }


let slots t = t.nslots
let chunk_count t = Array.length t.chunks

let chunk_cap t i =
  if i < 0 || i >= Array.length t.chunks then
    invalid_arg "Objtable: chunk out of range";
  t.chunks.(i)
let live_count t = t.nlive
let is_live t i = Bytes.get t.live i <> '\000'
let size_of t i = t.sizes.(i)

(* Slot [i]'s chunk capability and address: the accesses go through the
   [_at] forms, so no moved capability is built per access. *)
let slot_chunk t i =
  if i < 0 || i >= t.nslots then invalid_arg "Objtable: slot out of range";
  t.chunks.(i / chunk_slots)

let slot_addr chunk i = Capability.base chunk + (i mod chunk_slots * granule)

let get t ctx i =
  let chunk = slot_chunk t i in
  Machine.load_cap_at ctx chunk (slot_addr chunk i)

let put t ctx i c ~size =
  let chunk = slot_chunk t i in
  Machine.store_cap_at ctx chunk (slot_addr chunk i) c;
  if not (is_live t i) then begin
    Bytes.set t.live i '\001';
    t.nlive <- t.nlive + 1
  end;
  t.sizes.(i) <- size

let kill t i =
  if is_live t i then begin
    Bytes.set t.live i '\000';
    t.nlive <- t.nlive - 1
  end

(* Linear-probe from a random start for a slot with the wanted liveness;
   O(slots) worst case but O(1) in the regimes the workloads run at. *)
let probe t rng ~lo ~hi ~want =
  let span = hi - lo in
  if span <= 0 then None
  else begin
    let start = lo + Prng.int rng span in
    let rec go i n =
      if n = 0 then None
      else if is_live t i = want then Some i
      else go (if i + 1 >= hi then lo else i + 1) (n - 1)
    in
    go start span
  end

let random_live t rng ~hot ~weight =
  if t.nlive = 0 then None
  else begin
    let hot_slots = int_of_float (hot *. float_of_int t.nslots) in
    let use_hot = hot_slots > 0 && Prng.float rng 1.0 < weight in
    match
      if use_hot then probe t rng ~lo:0 ~hi:hot_slots ~want:true else None
    with
    | Some i -> Some i
    | None -> probe t rng ~lo:0 ~hi:t.nslots ~want:true
  end

let random_dead t rng =
  if t.nlive >= t.nslots then None else probe t rng ~lo:0 ~hi:t.nslots ~want:false
