module Capability = Cheri.Capability
module Perms = Cheri.Perms
module Layout = Vm.Layout
module Machine = Sim.Machine
module Cost = Sim.Cost

let chunk_size = 64 * 1024
let granule = Sizeclass.granule

(* The live and dirty sets are keyed by block base address. Every base is
   granule-aligned (size classes are multiples of the granule, the bump
   pointer aligns to at least a granule), so they are stored as flat
   per-granule tables indexed by (addr - heap_base) / granule — a packed
   u16 table holding the live block's rounded size in granules (0 =
   dead, 0xffff = huge, spilled to a side table) and a dirty bitmap.
   Hashtables here cost ~60% of a mature-heap malloc/free pair (hashing
   plus cache-cold bucket chains); the flat tables make both lookups one
   indexed load, and packing the size table 2 bytes per granule keeps a
   31k-slot live set inside a couple of megabytes of host cache. The
   tables grow with the bump pointer, never the whole heap region, so a
   sparsely-used heap stays cheap. *)

(* Per-size-class free stack: a growable int array popped/pushed at the
   top. Replaces [int list] heads — the conses landed all over the minor
   heap, so a mature heap's pop was a guaranteed host-cache miss, where
   the stack top stays hot. Pop order is identical to the list version:
   pushes mirror conses, and bulk refills (carve_chunk) only ever happen
   when the stack is empty, so "prepend" degenerates to a reversed push
   run. *)
type stack = { mutable sp : int; mutable elems : int array }

let stack_create () = { sp = 0; elems = Array.make 64 0 }

let stack_push s v =
  if s.sp = Array.length s.elems then begin
    let e = Array.make (2 * s.sp) 0 in
    Array.blit s.elems 0 e 0 s.sp;
    s.elems <- e
  end;
  s.elems.(s.sp) <- v;
  s.sp <- s.sp + 1

let stack_clone s = { sp = s.sp; elems = Array.copy s.elems }

(* Rounded sizes are granule multiples; [huge_marker] spills the (rare)
   blocks of 0xffff granules (~1 MiB) or more to [huge_sizes]. *)
let huge_marker = 0xffff

type t = {
  m : Machine.t;
  aspace : Vm.Aspace.t; (* the address space whose heap this allocator serves *)
  heap_cap : Capability.t;
  free_lists : stack array; (* per size class: slot base addresses *)
  large_free : (int, int list) Hashtbl.t; (* rounded size -> addresses *)
  mutable live_size : Bytes.t; (* u16 per granule: live size in granules *)
  huge_sizes : (int, int) Hashtbl.t; (* granule index -> byte size *)
  mutable dirty_bits : Bytes.t; (* per-granule: freed block awaiting reuse scrub *)
  heap_base : int;
  heap_limit : int;
  mutable bump : int;
  mutable live_bytes : int;
  mutable total_allocated : int;
  mutable total_freed : int;
  mutable allocations : int;
  mutable peak_rss : int;
  mutable scrub_bytes : int;
}

let gidx t addr = (addr - t.heap_base) / granule
let meta_len t = Bytes.length t.live_size / 2

let size_entry t g = Bytes.get_uint16_le t.live_size (g * 2)

let set_size_entry t g v = Bytes.set_uint16_le t.live_size (g * 2) v

(* Record a live block's rounded size; 0 clears. *)
let set_live_size t g size =
  if size = 0 then begin
    if size_entry t g = huge_marker then Hashtbl.remove t.huge_sizes g;
    set_size_entry t g 0
  end
  else
    let gr = size / granule in
    if gr >= huge_marker then begin
      Hashtbl.replace t.huge_sizes g size;
      set_size_entry t g huge_marker
    end
    else set_size_entry t g gr

let get_live_size t g =
  match size_entry t g with
  | 0 -> 0
  | e when e = huge_marker -> Hashtbl.find t.huge_sizes g
  | e -> e * granule

(* Grow the metadata tables to cover granule indices [0, n). *)
let ensure_meta t n =
  if n > meta_len t then begin
    let n' = max n (max 1024 (2 * meta_len t)) in
    let a = Bytes.make (n' * 2) '\000' in
    Bytes.blit t.live_size 0 a 0 (Bytes.length t.live_size);
    t.live_size <- a;
    let b = Bytes.make ((n' + 7) / 8) '\000' in
    Bytes.blit t.dirty_bits 0 b 0 (Bytes.length t.dirty_bits);
    t.dirty_bits <- b
  end

let is_dirty t g =
  Char.code (Bytes.unsafe_get t.dirty_bits (g lsr 3)) land (1 lsl (g land 7)) <> 0

let set_dirty t g v =
  let byte = Char.code (Bytes.unsafe_get t.dirty_bits (g lsr 3)) in
  let bit = 1 lsl (g land 7) in
  Bytes.unsafe_set t.dirty_bits (g lsr 3)
    (Char.unsafe_chr (if v then byte lor bit else byte land lnot bit))

let create ?aspace m =
  let aspace = match aspace with Some a -> a | None -> Machine.aspace m in
  let layout = Vm.Aspace.layout aspace in
  let heap_base = layout.Layout.heap_base in
  let heap_limit = layout.Layout.heap_limit in
  let root = Capability.root ~length:(1 lsl 40) in
  let heap_cap =
    Capability.set_bounds root ~base:heap_base ~length:(heap_limit - heap_base)
  in
  assert (Capability.tag heap_cap);
  {
    m;
    aspace;
    heap_cap;
    free_lists = Array.init Sizeclass.num_classes (fun _ -> stack_create ());
    large_free = Hashtbl.create 64;
    live_size = Bytes.empty;
    huge_sizes = Hashtbl.create 8;
    dirty_bits = Bytes.empty;
    heap_base;
    heap_limit;
    bump = heap_base;
    live_bytes = 0;
    total_allocated = 0;
    total_freed = 0;
    allocations = 0;
    peak_rss = 0;
    scrub_bytes = 0;
  }

let heap_cap t = t.heap_cap

let note_rss t =
  let rss = Vm.Aspace.mapped_pages t.aspace in
  if rss > t.peak_rss then t.peak_rss <- rss

(* Fork: the child's heap is byte-identical to the parent's (copy-on-write),
   so its allocator state must be too. Free lists and the live/dirty sets are
   duplicated; lifetime statistics restart from zero for the new process. *)
let clone t ~aspace =
  {
    m = t.m;
    aspace;
    heap_cap = t.heap_cap;
    free_lists = Array.map stack_clone t.free_lists;
    large_free = Hashtbl.copy t.large_free;
    live_size = Bytes.copy t.live_size;
    huge_sizes = Hashtbl.copy t.huge_sizes;
    dirty_bits = Bytes.copy t.dirty_bits;
    heap_base = t.heap_base;
    heap_limit = t.heap_limit;
    bump = t.bump;
    live_bytes = t.live_bytes;
    total_allocated = 0;
    total_freed = 0;
    allocations = 0;
    peak_rss = 0;
    scrub_bytes = 0;
  }

let align_up x a = (x + a - 1) land lnot (a - 1)

let bump_alloc t ctx ~size ~align =
  let base = align_up t.bump align in
  if base + size > t.heap_limit then raise Out_of_memory;
  t.bump <- base + size;
  ensure_meta t (gidx t t.bump);
  Machine.map ctx ~vaddr:base ~len:size ~writable:true;
  base

(* Only called with an empty stack (malloc refills on demand), so the
   reversed push run serves slots in ascending-address order, exactly as
   the old list prepend did. *)
let carve_chunk t ctx cls =
  let slot = Sizeclass.size_of_class cls in
  let base = bump_alloc t ctx ~size:chunk_size ~align:Vm.Phys.page_size in
  let nslots = chunk_size / slot in
  let s = t.free_lists.(cls) in
  for i = nslots - 1 downto 0 do
    stack_push s (base + (i * slot))
  done

let derive t base size =
  let c = Capability.set_bounds_exact t.heap_cap ~base ~length:size in
  assert (Capability.tag c);
  Capability.restrict_perms c Perms.read_write

let malloc t ctx req =
  Machine.charge ctx Cost.malloc_fixed;
  let size = Sizeclass.rounded_size req in
  let base =
    match Sizeclass.class_of_size size with
    | Some cls ->
        let s = t.free_lists.(cls) in
        if s.sp = 0 then carve_chunk t ctx cls;
        s.sp <- s.sp - 1;
        s.elems.(s.sp)
    | None -> (
        match Hashtbl.find_opt t.large_free size with
        | Some (base :: rest) ->
            Hashtbl.replace t.large_free size rest;
            base
        | Some [] | None ->
            bump_alloc t ctx ~size ~align:(Cheri.Compress.required_alignment size))
  in
  let g = gidx t base in
  set_live_size t g size;
  t.live_bytes <- t.live_bytes + size;
  t.total_allocated <- t.total_allocated + size;
  t.allocations <- t.allocations + 1;
  let cap = derive t base size in
  (* Freed memory is "poisoned" lazily: zeroing is deferred until reuse
     (§2.2.2, footnote 7 of the paper), so recycled blocks are scrubbed
     here while fresh mappings arrive pre-zeroed. *)
  if is_dirty t g then begin
    set_dirty t g false;
    t.scrub_bytes <- t.scrub_bytes + size;
    Machine.zero ctx cap
  end
  else Machine.touch ctx cap ~write:true;
  note_rss t;
  cap

(* A base is a live allocation iff it is granule-aligned, inside the
   bumped region, and its granule's size entry is nonzero. *)
let live_size_at t base =
  if
    base land (granule - 1) <> 0
    || base < t.heap_base
    || gidx t base >= meta_len t
  then 0
  else get_live_size t (gidx t base)

let lookup_live t base op =
  match live_size_at t base with
  | 0 ->
      invalid_arg
        (Printf.sprintf "Allocator.%s: %#x is not a live allocation (double free?)" op base)
  | size -> size

let return_to_lists t ~addr ~size =
  set_dirty t (gidx t addr) true;
  match Sizeclass.class_of_size size with
  | Some cls when Sizeclass.size_of_class cls = size ->
      stack_push t.free_lists.(cls) addr
  | Some _ | None ->
      let l = Option.value ~default:[] (Hashtbl.find_opt t.large_free size) in
      Hashtbl.replace t.large_free size (addr :: l)

let withdraw t ctx cap =
  Machine.charge ctx Cost.free_fixed;
  let base = Capability.base cap in
  let size = lookup_live t base "withdraw" in
  set_live_size t (gidx t base) 0;
  t.live_bytes <- t.live_bytes - size;
  t.total_freed <- t.total_freed + size;
  size

let free t ctx cap =
  let base = Capability.base cap in
  let size = withdraw t ctx cap in
  Machine.touch ctx cap ~write:true;
  return_to_lists t ~addr:base ~size

let release_range t ctx ~addr ~size =
  Machine.charge ctx Cost.free_fixed;
  return_to_lists t ~addr ~size

let usable_size t ~addr =
  match live_size_at t addr with 0 -> None | size -> Some size
let live_bytes t = t.live_bytes
let total_allocated_bytes t = t.total_allocated
let total_freed_bytes t = t.total_freed
let allocation_count t = t.allocations
let peak_rss_pages t = t.peak_rss

let scrub_bytes t = t.scrub_bytes
