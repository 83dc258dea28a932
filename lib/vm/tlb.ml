type entry = {
  vpage : int;
  pte : Pte.t;
  mutable clg_snapshot : bool;
  mutable writable_snapshot : bool;
}

type counters = {
  mutable hits : int;
  mutable misses : int;
  mutable shootdowns : int;
}

type t = { slots : entry option array; mask : int; st : counters }

let create ?(entries = 256) () =
  assert (entries land (entries - 1) = 0);
  {
    slots = Array.make entries None;
    mask = entries - 1;
    st = { hits = 0; misses = 0; shootdowns = 0 };
  }

(* Returns the slot's own option on a hit instead of rebuilding [Some e]:
   this runs once per simulated memory access, and the fresh allocation
   was measurable GC pressure. *)
let lookup t ~vpage =
  match t.slots.(vpage land t.mask) with
  | Some e as o when e.vpage = vpage ->
      t.st.hits <- t.st.hits + 1;
      o
  | Some _ | None ->
      t.st.misses <- t.st.misses + 1;
      None

let insert t ~vpage pte =
  let e =
    { vpage; pte; clg_snapshot = pte.Pte.clg; writable_snapshot = pte.Pte.writable }
  in
  t.slots.(vpage land t.mask) <- Some e;
  e

let refresh e =
  e.clg_snapshot <- e.pte.Pte.clg;
  e.writable_snapshot <- e.pte.Pte.writable

let invalidate_page t ~vpage =
  match t.slots.(vpage land t.mask) with
  | Some e when e.vpage = vpage -> t.slots.(vpage land t.mask) <- None
  | Some _ | None -> ()

(* Batch invalidation: one acknowledged IPI covers the whole list. The
   shootdown counter ticks per batch received, not per page, so lost-ack
   retries are visible as extra acks in the statistics. *)
let invalidate_pages t ~vpages =
  List.iter (fun vpage -> invalidate_page t ~vpage) vpages;
  if vpages <> [] then t.st.shootdowns <- t.st.shootdowns + 1

let flush t = Array.fill t.slots 0 (Array.length t.slots) None
let hits t = t.st.hits
let misses t = t.st.misses
let shootdowns t = t.st.shootdowns
