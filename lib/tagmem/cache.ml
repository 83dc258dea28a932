let line_size = 64
let line_shift = 6

type stats = {
  mutable l1_hits : int;
  mutable l2_hits : int;
  mutable bus_reads : int;
  mutable bus_writes : int;
  mutable accesses : int;
}

(* Both levels' arrays sit in [t] itself, so an L1 hit reads the line
   tag one load from [t]. A slot's line address is -1 when empty; its
   dirty byte is '\001' when dirty. *)
type t = {
  l1_lines : int array;
  l1_dirty : Bytes.t;
  l1_mask : int;
  l2_lines : int array;
  l2_dirty : Bytes.t;
  l2_mask : int;
  st : stats;
}

let lines_of kib =
  let n = kib * 1024 / line_size in
  assert (n land (n - 1) = 0);
  n

let create ?(l1_kib = 4) ?(l2_kib = 64) () =
  let n1 = lines_of l1_kib and n2 = lines_of l2_kib in
  {
    l1_lines = Array.make n1 (-1);
    l1_dirty = Bytes.make n1 '\000';
    l1_mask = n1 - 1;
    l2_lines = Array.make n2 (-1);
    l2_dirty = Bytes.make n2 '\000';
    l2_mask = n2 - 1;
    st = { l1_hits = 0; l2_hits = 0; bus_reads = 0; bus_writes = 0; accesses = 0 };
  }

let l1_latency = 2
let l2_latency = 14
let dram_latency = 120

(* Every slot below is [line land mask], inside its arrays, so the
   unchecked reads and writes stay in range. *)
let dirty_byte write = if write then '\001' else '\000'

(* Install [line] in L1. Its evictions fall back into L2 silently
   (inclusive model approximation). *)
let install_l1 t line ~write =
  let s = line land t.l1_mask in
  Array.unsafe_set t.l1_lines s line;
  Bytes.unsafe_set t.l1_dirty s (dirty_byte write)

(* Install [line] in L2; evicting a dirty line is a bus writeback. *)
let install_l2 t line ~write =
  let s = line land t.l2_mask in
  let old = Array.unsafe_get t.l2_lines s in
  if old >= 0 && old <> line && Bytes.unsafe_get t.l2_dirty s <> '\000' then
    t.st.bus_writes <- t.st.bus_writes + 1;
  Array.unsafe_set t.l2_lines s line;
  Bytes.unsafe_set t.l2_dirty s (dirty_byte write)

(* The L1-hit step of every access variant: [n] back-to-back accesses
   to [line] while it is in L1 mark it dirty on a write and count as
   hits. [false], with nothing updated, when [line] is not in L1. Inlined
   into each variant, so a hit makes no call. *)
let[@inline] l1_hit t line ~write ~n =
  let s = line land t.l1_mask in
  Array.unsafe_get t.l1_lines s = line
  && begin
       if write then Bytes.unsafe_set t.l1_dirty s '\001';
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
  let s2 = line land t.l2_mask in
  if Array.unsafe_get t.l2_lines s2 = line then begin
    if write then Bytes.unsafe_set t.l2_dirty s2 '\001';
    st.l2_hits <- st.l2_hits + 1;
    install_l1 t line ~write;
    l2_latency
  end
  else begin
    st.bus_reads <- st.bus_reads + 1;
    install_l2 t line ~write;
    install_l1 t line ~write;
    miss_latency
  end

(* [n] non-temporal accesses to [line], not in L1. They install nothing,
   so each repeats the outcome of the first: an L2 hit, or a DRAM access
   with one bus read (and one writeback for a write) each. *)
let nt_miss t line ~write ~n =
  let st = t.st in
  st.accesses <- st.accesses + n;
  let s2 = line land t.l2_mask in
  if Array.unsafe_get t.l2_lines s2 = line then begin
    if write then Bytes.unsafe_set t.l2_dirty s2 '\001';
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

let[@inline] stream_line t line ~write =
  if l1_hit t line ~write ~n:1 then l1_latency
  else miss t line ~write ~miss_latency:(dram_latency / 2)

let[@inline] access_stream t ~addr ~write = stream_line t (addr lsr line_shift) ~write

let[@inline] access_nt t ~addr ~write =
  let line = addr lsr line_shift in
  if l1_hit t line ~write ~n:1 then l1_latency else nt_miss t line ~write ~n:1

let access_stream_lines t ~addr ~write ~n =
  let line = addr lsr line_shift in
  let lat = ref 0 in
  for l = line to line + n - 1 do
    lat := !lat + stream_line t l ~write
  done;
  !lat

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
  let drop lines dirty ~count =
    Array.iteri
      (fun s line ->
        if line >= 0 then begin
          if count && Bytes.get dirty s <> '\000' then t.st.bus_writes <- t.st.bus_writes + 1;
          lines.(s) <- -1;
          Bytes.set dirty s '\000'
        end)
      lines
  in
  drop t.l1_lines t.l1_dirty ~count:false;
  drop t.l2_lines t.l2_dirty ~count:true

let bus_total st = st.bus_reads + st.bus_writes
