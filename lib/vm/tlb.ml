type entry = { vpage : int; pte : Pte.t; mutable clg_snapshot : bool }
type t = { slots : entry option array; mask : int }

let create ?(entries = 256) () =
  assert (entries land (entries - 1) = 0);
  { slots = Array.make entries None; mask = entries - 1 }

(* Returns the slot's own option on a hit instead of rebuilding [Some e]:
   this runs on every simulated memory access, inlined into the
   machine's access path, and the fresh allocation was measurable GC
   pressure. *)
let[@inline] lookup t ~vpage =
  match Array.unsafe_get t.slots (vpage land t.mask) with
  | Some e as o when e.vpage = vpage -> o
  | Some _ | None -> None

let insert t ~vpage pte =
  let e = { vpage; pte; clg_snapshot = pte.Pte.clg } in
  t.slots.(vpage land t.mask) <- Some e;
  e

let refresh e = e.clg_snapshot <- e.pte.Pte.clg

let invalidate_page t ~vpage =
  match t.slots.(vpage land t.mask) with
  | Some e when e.vpage = vpage -> t.slots.(vpage land t.mask) <- None
  | Some _ | None -> ()

(* Batch invalidation: one acknowledged IPI covers the whole list. *)
let invalidate_pages t ~vpages = List.iter (fun vpage -> invalidate_page t ~vpage) vpages
let flush t = Array.fill t.slots 0 (Array.length t.slots) None
