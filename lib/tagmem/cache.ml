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

let access_gen t ~addr ~write ~miss_latency =
  let st = t.st in
  st.accesses <- st.accesses + 1;
  let line = addr lsr line_shift in
  let s1 = slot t.l1 line in
  if t.l1.lines.(s1) = line then begin
    if write then set_dirty t.l1 s1 true;
    st.l1_hits <- st.l1_hits + 1;
    l1_latency
  end
  else begin
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
  end

let access t ~addr ~write = access_gen t ~addr ~write ~miss_latency:dram_latency

let access_stream t ~addr ~write =
  access_gen t ~addr ~write ~miss_latency:(dram_latency / 2)

(* [n] back-to-back [access_stream]s within one line: the first installs
   the line in L1, so the remaining [n - 1] are L1 hits. *)
let stream_line t ~addr ~write ~n =
  let first = access_stream t ~addr ~write in
  let st = t.st in
  st.accesses <- st.accesses + (n - 1);
  st.l1_hits <- st.l1_hits + (n - 1);
  first + ((n - 1) * l1_latency)

let access_nt t ~addr ~write =
  let st = t.st in
  st.accesses <- st.accesses + 1;
  let line = addr lsr line_shift in
  let s1 = slot t.l1 line in
  if t.l1.lines.(s1) = line then begin
    if write then set_dirty t.l1 s1 true;
    st.l1_hits <- st.l1_hits + 1;
    l1_latency
  end
  else begin
    let s2 = slot t.l2 line in
    if t.l2.lines.(s2) = line then begin
      if write then set_dirty t.l2 s2 true;
      st.l2_hits <- st.l2_hits + 1;
      l2_latency
    end
    else begin
      st.bus_reads <- st.bus_reads + 1;
      if write then st.bus_writes <- st.bus_writes + 1;
      dram_latency
    end
  end

(* [n] back-to-back [access_nt]s within one line: non-temporal accesses
   never install, so each repeats the outcome of the first (or misses to
   DRAM each time). *)
let nt_line t ~addr ~write ~n =
  let first = access_nt t ~addr ~write in
  let st = t.st in
  let rest = n - 1 in
  st.accesses <- st.accesses + rest;
  let line = addr lsr line_shift in
  if t.l1.lines.(slot t.l1 line) = line then begin
    st.l1_hits <- st.l1_hits + rest;
    first + (rest * l1_latency)
  end
  else if t.l2.lines.(slot t.l2 line) = line then begin
    st.l2_hits <- st.l2_hits + rest;
    first + (rest * l2_latency)
  end
  else begin
    st.bus_reads <- st.bus_reads + rest;
    if write then st.bus_writes <- st.bus_writes + rest;
    first + (rest * dram_latency)
  end

let granule = 16 (* bytes per tag granule, [Mem.granule] *)

(* Batched granule runs: charge [count] back-to-back granule accesses from
   [addr] on, across as many lines as they cover, in a single call, with
   stats and final cache state identical to [count] individual calls. The
   sweep kernel's cost model, whose contract is exact equivalence with the
   per-granule loop. A line whose first access hits L1 is all L1 hits, for
   either variant; that case is taken inline, since a swept page's lines
   are often resident already. *)
let rec run t ~addr ~write ~count ~nt acc =
  if count <= 0 then acc
  else begin
    (* the accesses that fall in [addr]'s line *)
    let n = Int.min count ((line_size - (addr land (line_size - 1))) / granule) in
    let line = addr lsr line_shift in
    let s1 = slot t.l1 line in
    let lat =
      if t.l1.lines.(s1) = line then begin
        if write then set_dirty t.l1 s1 true;
        let st = t.st in
        st.accesses <- st.accesses + n;
        st.l1_hits <- st.l1_hits + n;
        n * l1_latency
      end
      else if nt then nt_line t ~addr ~write ~n
      else stream_line t ~addr ~write ~n
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
