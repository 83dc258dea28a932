let line_size = 64
let line_shift = 6

type level = {
  lines : int array; (* line address or -1 *)
  dirty : Bytes.t;
  mask : int;
}

type stats = {
  mutable l1_hits : int;
  mutable l2_hits : int;
  mutable bus_reads : int;
  mutable bus_writes : int;
  mutable accesses : int;
}

type t = { l1 : level; l2 : level; st : stats }

let mk_level kib =
  let n = kib * 1024 / line_size in
  assert (n land (n - 1) = 0);
  { lines = Array.make n (-1); dirty = Bytes.make n '\000'; mask = n - 1 }

let create ?(l1_kib = 4) ?(l2_kib = 64) () =
  {
    l1 = mk_level l1_kib;
    l2 = mk_level l2_kib;
    st = { l1_hits = 0; l2_hits = 0; bus_reads = 0; bus_writes = 0; accesses = 0 };
  }

let l1_latency = 2
let l2_latency = 14
let dram_latency = 120

let slot lv line = line land lv.mask
let is_dirty lv s = Bytes.get lv.dirty s <> '\000'
let set_dirty lv s v = Bytes.set lv.dirty s (if v then '\001' else '\000')

(* Install [line] in [lv]; if a dirty line is evicted from L2, that is a
   bus writeback. L1 evictions fall back into L2 silently (inclusive
   model approximation). *)
let install st lv line ~l2 ~write =
  let s = slot lv line in
  if l2 && lv.lines.(s) >= 0 && lv.lines.(s) <> line && is_dirty lv s then
    st.bus_writes <- st.bus_writes + 1;
  lv.lines.(s) <- line;
  set_dirty lv s write

(* The L1-hit step of every access variant: [n] back-to-back accesses
   to [line] while it is in L1 mark it dirty on a write and count as
   hits. [false], with nothing updated, when [line] is not in L1. Inlined
   into each variant, so a hit makes no call. *)
let[@inline] l1_hit t line ~write ~n =
  let l1 = t.l1 in
  let s = slot l1 line in
  Array.unsafe_get l1.lines s = line
  && begin
       if write then Bytes.unsafe_set l1.dirty s '\001';
       let st = t.st in
       st.accesses <- st.accesses + n;
       st.l1_hits <- st.l1_hits + n;
       true
     end

(* One access to [line], not in L1: an L2 hit fills L1, an L2 miss fills
   both from DRAM at [miss_latency]. Left for the compiler to inline, as
   it does: the 4 KiB L1 misses often, and a call per miss measurably
   slowed the simulator (DESIGN.md, "The access path"). *)
let miss t line ~write ~miss_latency =
  let st = t.st in
  st.accesses <- st.accesses + 1;
  let s2 = slot t.l2 line in
  if t.l2.lines.(s2) = line then begin
    if write then set_dirty t.l2 s2 true;
    st.l2_hits <- st.l2_hits + 1;
    install st t.l1 line ~l2:false ~write;
    l2_latency
  end
  else begin
    st.bus_reads <- st.bus_reads + 1;
    install st t.l2 line ~l2:true ~write;
    install st t.l1 line ~l2:false ~write;
    miss_latency
  end

(* [n] non-temporal accesses to [line], not in L1. They install nothing,
   so each repeats the outcome of the first: an L2 hit, or a DRAM access
   with one bus read (and one writeback for a write) each. *)
let nt_miss t line ~write ~n =
  let st = t.st in
  st.accesses <- st.accesses + n;
  let s2 = slot t.l2 line in
  if t.l2.lines.(s2) = line then begin
    if write then set_dirty t.l2 s2 true;
    st.l2_hits <- st.l2_hits + n;
    n * l2_latency
  end
  else begin
    st.bus_reads <- st.bus_reads + n;
    if write then st.bus_writes <- st.bus_writes + n;
    n * dram_latency
  end

let[@inline] access t ~addr ~write =
  let line = addr lsr line_shift in
  if l1_hit t line ~write ~n:1 then l1_latency
  else miss t line ~write ~miss_latency:dram_latency

let[@inline] access_stream t ~addr ~write =
  let line = addr lsr line_shift in
  if l1_hit t line ~write ~n:1 then l1_latency
  else miss t line ~write ~miss_latency:(dram_latency / 2)

let[@inline] access_nt t ~addr ~write =
  let line = addr lsr line_shift in
  if l1_hit t line ~write ~n:1 then l1_latency else nt_miss t line ~write ~n:1

let granule = 16 (* bytes per tag granule, [Mem.granule] *)

(* Batched granule runs: charge [count] back-to-back granule accesses from
   [addr] on, across as many lines as they cover, in a single call, with
   stats and final cache state identical to [count] individual calls. The
   sweep kernel's cost model, whose contract is exact equivalence with the
   per-granule loop. A line whose first access hits L1 is all L1 hits, for
   either variant. Otherwise a streaming line's first access installs it,
   so the rest are L1 hits, and a non-temporal line repeats its first
   access's outcome. *)
let rec run t ~addr ~write ~count ~nt acc =
  if count <= 0 then acc
  else begin
    (* the accesses that fall in [addr]'s line *)
    let n = Int.min count ((line_size - (addr land (line_size - 1))) / granule) in
    let line = addr lsr line_shift in
    let lat =
      if l1_hit t line ~write ~n then n * l1_latency
      else if nt then nt_miss t line ~write ~n
      else begin
        let first = miss t line ~write ~miss_latency:(dram_latency / 2) in
        (* the line is in L1 now *)
        ignore (l1_hit t line ~write ~n:(n - 1));
        first + ((n - 1) * l1_latency)
      end
    in
    run t ~addr:(addr + (n * granule)) ~write ~count:(count - n) ~nt (acc + lat)
  end

let access_stream_run t ~addr ~write ~count =
  assert (addr land (granule - 1) = 0);
  run t ~addr ~write ~count ~nt:false 0

let access_nt_run t ~addr ~write ~count =
  assert (addr land (granule - 1) = 0);
  run t ~addr ~write ~count ~nt:true 0

let stats t = t.st

let flush t =
  let drop lv ~count =
    Array.iteri
      (fun s line ->
        if line >= 0 then begin
          if count && is_dirty lv s then t.st.bus_writes <- t.st.bus_writes + 1;
          lv.lines.(s) <- -1;
          set_dirty lv s false
        end)
      lv.lines
  in
  drop t.l1 ~count:false;
  drop t.l2 ~count:true

let bus_total st = st.bus_reads + st.bus_writes
