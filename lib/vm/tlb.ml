(* Flat slots, so that a hit reads the vpage tag and the PTE reference
   straight out of two arrays instead of through an option box and an
   entry record: this runs on every simulated memory access. *)
type t = {
  vpages : int array; (* the cached vpage, or -1 *)
  ptes : Pte.t array; (* the live PTE; stale in an empty slot *)
  clg : bool array; (* the clg bit latched at fill (or refresh) *)
  stamps : int array; (* the fill's number *)
  mask : int;
  mutable fills : int;
}

let create ?(entries = 256) () =
  assert (entries land (entries - 1) = 0);
  let unused = Pte.make ~frame:0 ~writable:false ~clg:false in
  {
    vpages = Array.make entries (-1);
    ptes = Array.make entries unused;
    clg = Array.make entries false;
    stamps = Array.make entries 0;
    mask = entries - 1;
    fills = 0;
  }

(* The hit path's reads are unchecked: [lookup] masks its index, and
   [pte] and [clg] mask theirs again, so no read leaves the arrays
   whatever slot a caller passes. *)
let[@inline] lookup t ~vpage =
  let s = vpage land t.mask in
  if Array.unsafe_get t.vpages s = vpage then s else -1

let[@inline] pte t s = Array.unsafe_get t.ptes (s land t.mask)
let[@inline] clg t s = Array.unsafe_get t.clg (s land t.mask)
let stamp t s = t.stamps.(s)

let insert t ~vpage pte =
  let s = vpage land t.mask in
  t.fills <- t.fills + 1;
  t.vpages.(s) <- vpage;
  t.ptes.(s) <- pte;
  t.clg.(s) <- pte.Pte.clg;
  t.stamps.(s) <- t.fills;
  s

let refresh t s ~stamp =
  if t.stamps.(s) = stamp then t.clg.(s) <- t.ptes.(s).Pte.clg

let invalidate_page t ~vpage =
  let s = vpage land t.mask in
  if t.vpages.(s) = vpage then t.vpages.(s) <- -1

(* Batch invalidation: one acknowledged IPI covers the whole list. *)
let invalidate_pages t ~vpages = List.iter (fun vpage -> invalidate_page t ~vpage) vpages

(* The tags alone: a slot whose tag is -1 is never read. *)
let flush t = Array.fill t.vpages 0 (Array.length t.vpages) (-1)
