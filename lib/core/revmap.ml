module Capability = Cheri.Capability
module Perms = Cheri.Perms
module Layout = Vm.Layout
module Machine = Sim.Machine

type t = {
  m : Machine.t;
  mutable aspace : Vm.Aspace.t; (* host-side probes translate through this *)
  layout : Layout.t;
  shadow_cap : Capability.t; (* spans the shadow region; data perms only *)
  mutable bits : int;
}

let granule = 16

let create ?aspace m =
  let aspace = match aspace with Some a -> a | None -> Machine.aspace m in
  let layout = Machine.layout m in
  let root = Capability.root ~length:(1 lsl 40) in
  let shadow_cap =
    Capability.set_bounds root ~base:layout.Layout.shadow_base
      ~length:(layout.Layout.shadow_limit - layout.Layout.shadow_base)
  in
  let shadow_cap =
    Capability.restrict_perms shadow_cap
      (Perms.union Perms.load (Perms.union Perms.store Perms.global))
  in
  assert (Capability.tag shadow_cap);
  { m; aspace; layout; shadow_cap; bits = 0 }

(* Fork inheritance: the child's shadow pages are CoW copies of the
   parent's, so its painted-bit population starts at the parent's. *)
let seed_bits t n = t.bits <- n

(* Exec: the process got a fresh (all-clear) shadow region. *)
let rebind t ~aspace =
  t.aspace <- aspace;
  t.bits <- 0

let check_range t ~addr ~size =
  if addr land (granule - 1) <> 0 || size land (granule - 1) <> 0 || size <= 0 then
    invalid_arg "Revmap: unaligned paint/clear";
  if not (Layout.contains_heap t.layout addr && addr + size <= t.layout.Layout.heap_limit)
  then invalid_arg "Revmap: range outside heap"

(* Set or clear the shadow bits of granules [g0, g1): each 64-bit word
   covering them is read-modified-written through the user mapping, on
   the bits in range only. Returns the number of bits actually flipped;
   the caller folds it into [t.bits] in the same host-side section as its
   trace emit — each [rmw_bits_at] is a scheduling point, so updating the
   counter word-by-word would let a checker comparing [set_bits] against
   the event ledger observe a half-applied range from another thread. *)
let rmw_range t ctx ~addr ~size ~set =
  check_range t ~addr ~size;
  let g0 = (addr - t.layout.Layout.heap_base) / granule in
  let g1 = g0 + (size / granule) in
  let flipped = ref 0 in
  for w = g0 / 64 to (g1 - 1) / 64 do
    let lo = Int.max g0 (w * 64) - (w * 64) and hi = Int.min g1 ((w + 1) * 64) - (w * 64) in
    (* atomic: a concurrent paint and clear of neighbouring bits in the
       same word must not lose or resurrect updates *)
    flipped :=
      !flipped
      + Machine.rmw_bits_at ctx t.shadow_cap
          (t.layout.Layout.shadow_base + (w * 8))
          ~lo ~hi ~set
  done;
  !flipped

let paint t ctx ~addr ~size =
  let delta = rmw_range t ctx ~addr ~size ~set:true in
  t.bits <- t.bits + delta;
  Machine.trace_emit t.m ~time:(Machine.now ctx) ~core:(Machine.core_id ctx)
    ~pid:(Machine.ctx_pid ctx) ~arg2:size Sim.Trace.Paint addr

let clear t ctx ~addr ~size =
  let delta = rmw_range t ctx ~addr ~size ~set:false in
  t.bits <- t.bits - delta;
  Machine.trace_emit t.m ~time:(Machine.now ctx) ~core:(Machine.core_id ctx)
    ~pid:(Machine.ctx_pid ctx) ~arg2:size Sim.Trace.Unpaint addr

(* Zero-alloc, with [Layout.contains_heap] inline: one probe per tagged
   granule swept, so the moved capability and the boxed word were the
   sweep loop's main GC traffic. *)
let test t ctx a =
  if a < t.layout.Layout.heap_base || a >= t.layout.Layout.heap_limit then false
  else begin
    let g = (a - t.layout.Layout.heap_base) / granule in
    let word_addr = t.layout.Layout.shadow_base + (g / 64 * 8) in
    Machine.load_u64_bit ctx t.shadow_cap word_addr ~bit:(g land 63)
  end

let test_host t a =
  if not (Layout.contains_heap t.layout a) then false
  else begin
    let g = (a - t.layout.Layout.heap_base) / granule in
    let word_addr = t.layout.Layout.shadow_base + (g / 64 * 8) in
    match Vm.Aspace.translate t.aspace word_addr with
    | None -> false
    | Some (pa, _) ->
        let word = Tagmem.Mem.read_u64 (Machine.mem t.m) pa in
        not (Int64.equal (Int64.logand word (Int64.shift_left 1L (g land 63))) 0L)
  end

let revoke_cap t ctx c =
  if not (Capability.tag c) then c
  else if test t ctx (Capability.base c) then Capability.clear_tag c
  else c

let set_bits t = t.bits
