module Capability = Cheri.Capability
module Machine = Sim.Machine
module Prng = Sim.Prng
module Regfile = Sim.Regfile
module Runtime = Ccr.Runtime

let granule = Objtable.granule

(* Register conventions shared with the reference interpreter (Spec). *)
let r_work = 1
let r_chase = 2
let r_recent = 3

exception Divergence of string

(* Entry kinds. One entry per reference-interpreter operation (plus one
   per prologue allocation); [K_none] records an op whose slot pick found
   nothing and therefore did nothing. *)
let k_none = 0
let k_kill = 1 (* churn without realloc *)
let k_churn = 2 (* free + realloc into the same slot *)
let k_birth = 3 (* alloc into a dead slot *)
let k_access = 4

let block = 1024

(* Granule indices per block. An entry pushes at most [max 32 (reads +
   writes)] of them (body-init stores are capped at 32), so a block also
   ends once [gidx_room] are used, and the buffer holds that much plus one
   entry's worst case. *)
let gidx_room = 8 * block

type t = {
  p : Profile.t;
  rng : Prng.t;
  initial : int; (* prologue (table warm-up) allocations *)
  ops : int;
  mutable born : int; (* prologue entries drawn so far *)
  mutable drawn : int; (* stream ops drawn so far *)
  (* host-side shadow of the object table *)
  obj_len : int array; (* per slot: the live object's length, 0 = dead *)
  mutable nlive : int;
  (* the current block *)
  mutable n : int;
  mutable n_prologue : int; (* leading entries that are table warm-up, not ops *)
  kinds : int array;
  slots : int array;
  sizes : int array; (* requested (sampled) allocation size *)
  lens : int array; (* predicted capability length / live-object length *)
  aux : int array; (* K_kill/K_churn: 1 = clear r_work after the free *)
  gidx : int array; (* shared granule-index stream, consumed positionally:
                       allocs push [(g lsl 1) lor is_ptr] per body store,
                       accesses push plain indices, reads then writes *)
  mutable ng : int;
  chase_hi : int array; (* raw PRNG draws for pointer-chase steps, split *)
  chase_lo : int array; (* into bits 31..62 / 0..30 (see [mod_hilo]) *)
  mutable nc : int;
}

let compile (p : Profile.t) ~rng ~ops =
  let gmax = Int.max 32 (p.Profile.reads_per_op + p.Profile.writes_per_op) in
  let nchase = block * p.Profile.chase_depth in
  {
    p;
    rng;
    initial = int_of_float (p.Profile.target_live *. float_of_int p.Profile.slots);
    ops;
    born = 0;
    drawn = 0;
    obj_len = Array.make p.Profile.slots 0;
    nlive = 0;
    n = 0;
    n_prologue = 0;
    kinds = Array.make block 0;
    slots = Array.make block 0;
    sizes = Array.make block 0;
    lens = Array.make block 0;
    aux = Array.make block 0;
    gidx = Array.make (gidx_room + gmax) 0;
    ng = 0;
    chase_hi = Array.make nchase 0;
    chase_lo = Array.make nchase 0;
    nc = 0;
  }

(* ---- drawing a block ----

   Replays the reference interpreter's PRNG consumption exactly — same
   draws, same order — against a host-side shadow of the object table
   (liveness flags and object lengths are host bookkeeping in the
   reference too, so the shadow is exact, not approximate). Draws whose
   *reduction* depends on simulated machine state (pointer-chase steps:
   the modulus is the length of whatever capability the chase actually
   reached) are stored raw and reduced at execution time with the same
   arithmetic [Prng.int] would have used.

   Two machine-state assumptions are baked in and asserted (never
   silently) by the executor:
   - a live slot's capability is tagged: live slots hold malloc'd
     capabilities to unfreed memory, which nothing untags without chaos
     hooks armed (drivers fall back to the reference interpreter when
     [Machine.chaos_armed]);
   - [Runtime.malloc req] returns a capability of length
     [Alloc.Sizeclass.rounded_size req], for both allocators. *)

let push s k slot size len aux =
  let i = s.n in
  s.kinds.(i) <- k;
  s.slots.(i) <- slot;
  s.sizes.(i) <- size;
  s.lens.(i) <- len;
  s.aux.(i) <- aux;
  s.n <- i + 1

let push_gidx s x =
  s.gidx.(s.ng) <- x;
  s.ng <- s.ng + 1

let is_live s i = s.obj_len.(i) <> 0

(* Shadow of [Objtable.probe], draw for draw; -1 when no slot qualifies.
   Top-level rather than closures so that drawing allocates nothing. *)
let rec scan s i n ~lo ~hi ~want =
  if n = 0 then -1
  else if is_live s i = want then i
  else scan s (if i + 1 >= hi then lo else i + 1) (n - 1) ~lo ~hi ~want

let probe s ~lo ~hi ~want =
  let span = hi - lo in
  if span <= 0 then -1 else scan s (lo + Prng.int s.rng span) span ~lo ~hi ~want

let random_live s ~hot ~weight =
  if s.nlive = 0 then -1
  else begin
    let nslots = Array.length s.obj_len in
    let hot_slots = int_of_float (hot *. float_of_int nslots) in
    let slot =
      if hot_slots > 0 && Prng.float s.rng 1.0 < weight then
        probe s ~lo:0 ~hi:hot_slots ~want:true
      else -1
    in
    if slot >= 0 then slot else probe s ~lo:0 ~hi:nslots ~want:true
  end

let random_dead s =
  let nslots = Array.length s.obj_len in
  if s.nlive >= nslots then -1 else probe s ~lo:0 ~hi:nslots ~want:false

(* Shadow of [Spec.alloc_into]: sample the size, predict the malloc'd
   length, draw the body-init store positions and pointer coin-flips. *)
let alloc s k slot aux =
  let p = s.p in
  let size = Profile.sample s.rng p.Profile.size_c in
  let len = Alloc.Sizeclass.rounded_size size in
  let granules = len / granule in
  for _ = 1 to Int.min granules 32 do
    let g = Prng.int s.rng granules in
    let is_ptr = Prng.float s.rng 1.0 < p.Profile.ptr_density in
    push_gidx s ((g lsl 1) lor Bool.to_int is_ptr)
  done;
  if not (is_live s slot) then s.nlive <- s.nlive + 1;
  s.obj_len.(slot) <- len;
  push s k slot size len aux

let churn s ~realloc =
  let slot = random_live s ~hot:1.0 ~weight:0.0 in
  if slot < 0 then push s k_none 0 0 0 0
  else begin
    let clear = Bool.to_int (Prng.bool s.rng) in
    s.obj_len.(slot) <- 0;
    s.nlive <- s.nlive - 1;
    if realloc then alloc s k_churn slot clear else push s k_kill slot 0 0 clear
  end

let birth s =
  let slot = random_dead s in
  if slot < 0 then push s k_none 0 0 0 0 else alloc s k_birth slot 0

let access s =
  let p = s.p in
  let slot = random_live s ~hot:p.Profile.hot_fraction ~weight:p.Profile.hot_weight in
  if slot < 0 then push s k_none 0 0 0 0
  else begin
    let len = s.obj_len.(slot) in
    let n = Int.min len 32768 / granule in
    for _ = 1 to p.Profile.reads_per_op + p.Profile.writes_per_op do
      push_gidx s (Prng.int s.rng n)
    done;
    (* chase moduli depend on which capability the chase reaches at
       run time: store the raw 63-bit draw, reduce at exec *)
    for _ = 1 to p.Profile.chase_depth do
      let x = Int64.logand (Prng.next s.rng) Int64.max_int in
      s.chase_hi.(s.nc) <- Int64.to_int (Int64.shift_right_logical x 31);
      s.chase_lo.(s.nc) <- Int64.to_int (Int64.logand x 0x7FFF_FFFFL);
      s.nc <- s.nc + 1
    done;
    push s k_access slot 0 len 0
  end

let room s = s.n < block && s.ng < gidx_room

(* Draw the next block: the rest of the prologue first, then ops, while
   the block has room. An empty block means the stream has run out. *)
let fill s =
  let p = s.p in
  s.n <- 0;
  s.ng <- 0;
  s.nc <- 0;
  while room s && s.born < s.initial do
    alloc s k_birth s.born 0;
    s.born <- s.born + 1
  done;
  s.n_prologue <- s.n;
  while room s && s.drawn < s.ops do
    let x = Prng.float s.rng 1.0 in
    if x < p.Profile.churn then churn s ~realloc:true
    else if x < p.Profile.churn +. p.Profile.kill_only then churn s ~realloc:false
    else if x < p.Profile.churn +. p.Profile.kill_only +. p.Profile.birth_only then
      birth s
    else access s;
    s.drawn <- s.drawn + 1
  done

(* [mod_hilo hi lo n] = [x mod n] for [x = hi * 2^31 + lo] (the raw
   63-bit draw split when drawn), matching what
   [Prng.int rng n] = [Int64.rem (x) (of_int n)] would have returned for
   a non-negative [x]. Exact for every [n] < 2^31: [hi mod n] and
   [2^31 mod n] are each < 2^31, so their product is < 2^62 and the sum
   with [lo] (< 2^31) cannot overflow a 63-bit OCaml int. *)
let mod_hilo hi lo n = (((hi mod n) * (2147483648 mod n)) + lo) mod n

(* ---- execution ----

   The decode loop allocates nothing per op beyond what the reference
   semantics itself demands (the capability records loaded from or
   stored to simulated memory): table slots are addressed through the
   chunk "globals" with [load_cap_at]/[store_cap_at], data accesses use
   [touch_u64_at]/[store_u64_at], whose safe point runs the STW
   checkpoint once per scheduling slice. *)

let exec (s : t) (p : Profile.t) rt ctx ~ops_done =
  if p != s.p then invalid_arg "Opstream.exec: not the profile the stream was compiled from";
  if s.born > 0 || s.drawn > 0 then invalid_arg "Opstream.exec: stream already run";
  let regs = Machine.regs (Machine.self ctx) in
  let table = Objtable.create rt ctx ~slots:p.Profile.slots in
  let nchunks = Objtable.chunk_count table in
  let chunks = Array.init nchunks (Objtable.chunk_cap table) in
  let chunk_bases = Array.map Capability.base chunks in
  let gpos = ref 0 in
  let cpos = ref 0 in
  let load_slot slot =
    let ci = slot / Objtable.chunk_slots in
    let va = chunk_bases.(ci) + (slot mod Objtable.chunk_slots * granule) in
    Machine.load_cap_at ctx chunks.(ci) va
  in
  let store_slot slot c =
    let ci = slot / Objtable.chunk_slots in
    let va = chunk_bases.(ci) + (slot mod Objtable.chunk_slots * granule) in
    Machine.store_cap_at ctx chunks.(ci) va c
  in
  let do_alloc i slot =
    let c = Runtime.malloc rt ctx s.sizes.(i) in
    let len = s.lens.(i) in
    if Capability.length c <> len then
      raise (Divergence "malloc length differs from compiled prediction");
    Regfile.set regs r_work c;
    let granules = len / granule in
    let stores = min granules 32 in
    let base = Capability.base c in
    for _ = 1 to stores do
      let e = s.gidx.(!gpos) in
      incr gpos;
      let g = e lsr 1 in
      let va = base + (g * granule) in
      if e land 1 = 1 then begin
        let v = Regfile.get regs r_recent in
        if Capability.tag v then Machine.store_cap_at ctx c va v
        else Machine.store_u64_at ctx c va (Int64.of_int g)
      end
      else Machine.store_u64_at ctx c va (Int64.of_int g)
    done;
    store_slot slot c;
    Regfile.set regs r_recent c
  in
  let do_kill i slot =
    let c = load_slot slot in
    if not (Capability.tag c) then
      raise (Divergence "live slot holds an untagged capability");
    Regfile.set regs r_work c;
    Runtime.free rt ctx c;
    if s.aux.(i) land 1 = 1 then Regfile.set regs r_work Capability.null;
    if Capability.equal (Regfile.get regs r_recent) c then
      Regfile.set regs r_recent Capability.null
  in
  let do_access i slot =
    let c = load_slot slot in
    if not (Capability.tag c) then
      raise (Divergence "live slot holds an untagged capability");
    Regfile.set regs r_work c;
    Regfile.set regs r_recent c;
    let len = Capability.length c in
    if len <> s.lens.(i) then
      raise (Divergence "object length differs from compiled prediction");
    let base = Capability.base c in
    for _ = 1 to p.Profile.reads_per_op do
      let g = s.gidx.(!gpos) in
      incr gpos;
      Machine.touch_u64_at ctx c (base + (g * granule))
    done;
    for _ = 1 to p.Profile.writes_per_op do
      let g = s.gidx.(!gpos) in
      incr gpos;
      Machine.store_u64_at ctx c (base + (g * granule)) (Int64.of_int slot)
    done;
    let cursor = ref c in
    for _ = 1 to p.Profile.chase_depth do
      let hi = s.chase_hi.(!cpos) and lo = s.chase_lo.(!cpos) in
      incr cpos;
      let cur = !cursor in
      let clen = Capability.length cur in
      if clen < granule then
        raise (Divergence "chase cursor shorter than a granule");
      let g = mod_hilo hi lo (clen / granule) in
      let va = Capability.base cur + (g * granule) in
      let next = Machine.load_cap_at ctx cur va in
      if Capability.tag next && Capability.can_load next then begin
        Regfile.set regs r_chase next;
        Machine.touch_u64_at ctx next (Capability.base next);
        cursor := next
      end
      else Machine.charge ctx Sim.Cost.alu
    done
  in
  let compute = p.Profile.compute_per_op in
  fill s;
  while s.n > 0 do
    gpos := 0;
    cpos := 0;
    for i = 0 to s.n - 1 do
      let slot = s.slots.(i) in
      (match s.kinds.(i) with
      | 0 (* K_none *) -> ()
      | 1 (* K_kill *) -> do_kill i slot
      | 2 (* K_churn *) ->
          do_kill i slot;
          do_alloc i slot
      | 3 (* K_birth *) -> do_alloc i slot
      | _ (* K_access *) -> do_access i slot);
      if i >= s.n_prologue then begin
        if compute > 0 then Machine.charge ctx compute;
        incr ops_done
      end
    done;
    fill s
  done
