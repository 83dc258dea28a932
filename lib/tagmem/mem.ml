module Capability = Cheri.Capability

let granule = 16

(* Demand paging: data bytes and capability words live in per-page
   chunks. A page nobody has written reads through [zero_page], which is
   shared by every memory and never written; its first write gives it a
   private data chunk, and its first tagged capability store a private
   capability chunk. A capability chunk holds each tagged granule's
   bounds, permissions and object type as the two immediate words of
   [Capability.encode], at the granule's own offset in the page (16 bytes
   per granule); the address is the granule's first 8 data bytes. So a
   tagged store writes words and allocates nothing, and the chunks hold
   no pointers for the collector to mark. Tags stay one dense bitmap so
   the word-scan kernels read them exactly as before. Invariants: a page
   whose data chunk is [zero_page] is all zero bytes and has no tag set;
   a granule whose tag is set has a capability chunk holding its words,
   and its first data word is its capability's address. *)
let page_size = 4096
let page_shift = 12
let page_mask = page_size - 1
let zero_page = Bytes.make page_size '\000'
let no_caps = Bytes.empty

type t = {
  size : int;
  data : Bytes.t array; (* per page; [zero_page] until first written *)
  caps : Bytes.t array; (* per page; [no_caps] until first tagged store *)
  tags : Bytes.t; (* one bit per granule *)
}

(* One tag bit per granule, packed little-endian: granule [g] is bit
   [g land 7] of byte [g lsr 3], so [Bytes.get_int64_le tags (8*w)]
   yields a 64-granule word whose bit [g land 63] is granule [64*w + g].
   The array is sized to a whole number of 64-bit words so the word-scan
   kernels can always load full words. *)
let create ~size =
  let size = (size + granule - 1) / granule * granule in
  let ngran = size / granule in
  let npages = (size + page_size - 1) / page_size in
  {
    size;
    data = Array.make npages zero_page;
    caps = Array.make npages no_caps;
    tags = Bytes.make ((ngran + 63) / 64 * 8) '\000';
  }

let size m = m.size

(* Every unchecked chunk access below follows [check], which puts the
   page index inside [data] and [caps], and an offset test that keeps
   the word inside its page's chunk: a chunk's bounds check would read
   its header, host lines away from the word. *)
let check m a w =
  if a < 0 || a + w > m.size then
    invalid_arg (Printf.sprintf "Mem: access [%#x,+%d) outside [0,%#x)" a w m.size)

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap64 : int64 -> int64 = "%bswap_int64"

(* Little-endian words at an offset the caller has proved in range. *)
let[@inline] unsafe_get_le b off = if Sys.big_endian then swap64 (get64u b off) else get64u b off

let[@inline] unsafe_set_le b off v = set64u b off (if Sys.big_endian then swap64 v else v)

let gidx a = a / granule

(* The page's own data chunk, created on first use. *)
let writable_page m p =
  let d = Array.unsafe_get m.data p in
  if d != zero_page then d
  else begin
    let d = Bytes.make page_size '\000' in
    m.data.(p) <- d;
    d
  end

let cap_page m p =
  let c = Array.unsafe_get m.caps p in
  if c != no_caps then c
  else begin
    let c = Bytes.make page_size '\000' in
    m.caps.(p) <- c;
    c
  end

(* Branch-free SWAR popcount over a tag word. *)
let popcount64 n =
  let open Int64 in
  let n = sub n (logand (shift_right_logical n 1) 0x5555555555555555L) in
  let n =
    add
      (logand n 0x3333333333333333L)
      (logand (shift_right_logical n 2) 0x3333333333333333L)
  in
  let n = logand (add n (shift_right_logical n 4)) 0x0f0f0f0f0f0f0f0fL in
  to_int (shift_right_logical (mul n 0x0101010101010101L) 56)

(* check-free inner-loop primitive: caller has validated the range *)
let unsafe_read_tag m g =
  Char.code (Bytes.unsafe_get m.tags (g lsr 3)) land (1 lsl (g land 7)) <> 0

let read_tag m a =
  check m a 1;
  unsafe_read_tag m (gidx a)

let set_tag_bit m g =
  let byte = Char.code (Bytes.unsafe_get m.tags (g lsr 3)) in
  Bytes.unsafe_set m.tags (g lsr 3) (Char.unsafe_chr (byte lor (1 lsl (g land 7))))

let clear_tag_bit m g =
  let byte = Char.code (Bytes.unsafe_get m.tags (g lsr 3)) in
  Bytes.unsafe_set m.tags (g lsr 3) (Char.unsafe_chr (byte land lnot (1 lsl (g land 7))))

let clear_tag m a =
  check m a 1;
  clear_tag_bit m (gidx a)

(* Clear tags of every granule overlapping [a, a+w), whole bitmap bytes
   at a time between the edges. The caller has validated the range. *)
let clear_tags_range m a w =
  let g0 = gidx a and g1 = gidx (a + w - 1) in
  let b0 = (g0 + 7) lsr 3 and b1 = (g1 + 1) lsr 3 in
  if b0 >= b1 then
    for g = g0 to g1 do
      clear_tag_bit m g
    done
  else begin
    for g = g0 to (b0 lsl 3) - 1 do
      clear_tag_bit m g
    done;
    Bytes.unsafe_fill m.tags b0 (b1 - b0) '\000';
    for g = b1 lsl 3 to g1 do
      clear_tag_bit m g
    done
  end

let read_byte m a =
  Char.code (Bytes.unsafe_get (Array.unsafe_get m.data (a lsr page_shift)) (a land page_mask))

let write_byte m a v =
  Bytes.unsafe_set (writable_page m (a lsr page_shift)) (a land page_mask)
    (Char.unsafe_chr (v land 0xff))

let read_u8 m a =
  check m a 1;
  read_byte m a

let write_u8 m a v =
  check m a 1;
  write_byte m a v;
  clear_tag_bit m (gidx a)

let read_u64 m a =
  check m a 8;
  let off = a land page_mask in
  if off <= page_size - 8 then unsafe_get_le (Array.unsafe_get m.data (a lsr page_shift)) off
  else begin
    (* straddles a page boundary *)
    let v = ref 0L in
    for i = 7 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (read_byte m (a + i)))
    done;
    !v
  end

(* Single-bit read of the little-endian u64 at [a]: equals
   [Int64.logand (read_u64 m a) (Int64.shift_left 1L bit) <> 0L] without
   boxing the word — the revocation-map probe runs this per tagged
   granule swept. *)
let read_u64_bit m a bit =
  check m a 8;
  read_byte m (a + (bit lsr 3)) land (1 lsl (bit land 7)) <> 0

(* Bits set in each byte value. *)
let byte_popcount =
  String.init 256 (fun b ->
      let rec count b = if b = 0 then 0 else (b land 1) + count (b lsr 1) in
      Char.chr (count b))

(* Set ([set]) or clear bits [lo, hi) of the little-endian u64 at [a]
   byte by byte, returning how many bits flipped. Tags go as they do for
   [write_u64]; a data page is only materialised when a bit flips, which
   no read can tell apart. *)
let update_bits m a ~lo ~hi ~set =
  check m a 8;
  if lo < 0 || hi > 64 || lo >= hi then invalid_arg "Mem.update_bits: bit range";
  let flipped = ref 0 in
  for i = lo lsr 3 to (hi - 1) lsr 3 do
    let b0 = Int.max lo (i * 8) - (i * 8) and b1 = Int.min hi ((i + 1) * 8) - (i * 8) in
    let mask = ((1 lsl (b1 - b0)) - 1) lsl b0 in
    let old = read_byte m (a + i) in
    let changed = if set then mask land lnot old else mask land old in
    if changed <> 0 then begin
      write_byte m (a + i) (old lxor changed);
      flipped := !flipped + Char.code (String.unsafe_get byte_popcount changed)
    end
  done;
  if a land (granule - 1) <= granule - 8 then clear_tag_bit m (gidx a)
  else clear_tags_range m a 8;
  !flipped

let write_u64 m a v =
  check m a 8;
  let off = a land page_mask in
  if off <= page_size - 8 then unsafe_set_le (writable_page m (a lsr page_shift)) off v
  else
    for i = 0 to 7 do
      write_byte m (a + i) (Int64.to_int (Int64.shift_right_logical v (8 * i)))
    done;
  if a land (granule - 1) <= granule - 8 then clear_tag_bit m (gidx a)
  else clear_tags_range m a 8

let aligned a = a land (granule - 1) = 0

(* The granule's first data word, which for a tagged granule is its
   capability's address. The caller has checked [a] and its alignment. *)
let[@inline] addr_word m a =
  Int64.to_int (unsafe_get_le (Array.unsafe_get m.data (a lsr page_shift)) (a land page_mask))

let read_cap m a =
  check m a granule;
  if not (aligned a) then invalid_arg "Mem.read_cap: unaligned";
  let addr = addr_word m a in
  if unsafe_read_tag m (gidx a) then
    Capability.decode (Array.unsafe_get m.caps (a lsr page_shift)) (a land page_mask) ~addr
  else Capability.set_addr Capability.null addr

let write_cap m a c =
  check m a granule;
  if not (aligned a) then invalid_arg "Mem.write_cap: unaligned";
  let p = a lsr page_shift and off = a land page_mask in
  let tagged = c.Capability.tag in
  (* first, so that a capability [encode] rejects changes nothing *)
  if tagged then Capability.encode c (cap_page m p) off;
  let d = writable_page m p in
  unsafe_set_le d off (Int64.of_int c.Capability.addr);
  unsafe_set_le d (off + 8) 0L;
  if tagged then set_tag_bit m (gidx a) else clear_tag_bit m (gidx a)

let cap_base m a =
  check m a granule;
  Capability.encoded_base (Array.unsafe_get m.caps (a lsr page_shift)) (a land page_mask)

let cap_word m a i =
  check m a granule;
  if not (aligned a) then invalid_arg "Mem.cap_word: unaligned";
  if i lsr 1 <> 0 then invalid_arg "Mem.cap_word: word index";
  let c = Array.unsafe_get m.caps (a lsr page_shift) in
  if c == no_caps then invalid_arg "Mem.cap_word: no tagged store on the page";
  Int64.to_int (unsafe_get_le c ((a land page_mask) + (8 * i)))

let cap_addr m a =
  check m a granule;
  if not (aligned a) then invalid_arg "Mem.cap_addr: unaligned";
  addr_word m a

(* First/last whole granule of [lo, hi) clamped to the memory, as an
   inclusive granule-index range (empty iff g0 > g1). Hoisting this one
   range computation replaces the per-granule bounds [check] the checked
   entry points pay. *)
let granule_span m ~lo ~hi =
  let lo = Int.max 0 lo and hi = Int.min m.size hi in
  let g0 = (lo + granule - 1) / granule in
  let g1 = (hi / granule) - 1 in
  (g0, g1)

let iter_granules m ~lo ~hi f =
  let g0, g1 = granule_span m ~lo ~hi in
  for g = g0 to g1 do
    f (g * granule) (unsafe_read_tag m g)
  done

let word_of_tags m w = Bytes.get_int64_le m.tags (w lsl 3)

(* Mask selecting bits [b0, b1] (inclusive) of a 64-bit word. *)
let bit_mask b0 b1 =
  let width = b1 - b0 + 1 in
  if width >= 64 then -1L
  else Int64.shift_left (Int64.sub (Int64.shift_left 1L width) 1L) b0

let iter_tagged_words m ~lo ~hi f =
  let g0, g1 = granule_span m ~lo ~hi in
  if g0 <= g1 then begin
    let w0 = g0 lsr 6 and w1 = g1 lsr 6 in
    for w = w0 to w1 do
      let word = word_of_tags m w in
      if not (Int64.equal word 0L) then begin
        (* clip the edge words to the requested range *)
        let b0 = if w = w0 then g0 land 63 else 0 in
        let b1 = if w = w1 then g1 land 63 else 63 in
        let word = Int64.logand word (bit_mask b0 b1) in
        if not (Int64.equal word 0L) then f ((w lsl 6) * granule) word
      end
    done
  end

let count_tags m ~lo ~hi =
  let n = ref 0 in
  iter_tagged_words m ~lo ~hi (fun _ word -> n := !n + popcount64 word);
  !n

let find_tagged m ~lo ~hi =
  let found = ref None in
  (try
     iter_tagged_words m ~lo ~hi (fun base word ->
         (* lowest set bit = first tagged granule in this word *)
         let bit = popcount64 (Int64.sub (Int64.logand word (Int64.neg word)) 1L) in
         found := Some (base + (bit * granule));
         raise Exit)
   with Exit -> ());
  !found

(* 32 tag bits as an immediate int: 4 bitmap bytes, no boxed word. *)
let tag_bits m a =
  check m a (32 * granule);
  if a land ((32 * granule) - 1) <> 0 then
    invalid_arg "Mem.tag_bits: not 32-granule aligned";
  let t = m.tags and b = gidx a lsr 3 in
  Char.code (Bytes.unsafe_get t b)
  lor (Char.code (Bytes.unsafe_get t (b + 1)) lsl 8)
  lor (Char.code (Bytes.unsafe_get t (b + 2)) lsl 16)
  lor (Char.code (Bytes.unsafe_get t (b + 3)) lsl 24)

(* Zeroing a whole page drops its chunks: it reads as [zero_page] again. *)
let drop_page m p =
  m.data.(p) <- zero_page;
  m.caps.(p) <- no_caps

(* One page piece of [lo, hi) at a time; [check] puts each piece's page
   in [data], and the piece ends at its page's end. *)
let fill m ~lo ~hi v =
  check m lo 0;
  check m hi 0;
  if hi > lo then begin
    let c = Char.unsafe_chr (v land 0xff) in
    let a = ref lo in
    while !a < hi do
      let off = !a land page_mask in
      let n = Int.min (hi - !a) (page_size - off) in
      let p = !a lsr page_shift in
      if c = '\000' && n = page_size then drop_page m p
      else if c <> '\000' || Array.unsafe_get m.data p != zero_page then
        Bytes.unsafe_fill (writable_page m p) off n c;
      a := !a + n
    done;
    clear_tags_range m lo (hi - lo)
  end

(* Copy [len] bytes from [src] to [dst], preserving tags and capability
   words, one page piece at a time. Both ranges must be
   granule-aligned, as must [len], and they must not overlap; copy-on-write
   duplicates whole frames, which satisfies this. *)
let copy_range m ~src ~dst ~len =
  check m src len;
  check m dst len;
  if not (aligned src && aligned dst && len land (granule - 1) = 0) then
    invalid_arg "Mem.copy_range: unaligned";
  if len > 0 && src < dst + len && dst < src + len then
    invalid_arg "Mem.copy_range: overlapping ranges";
  let pos = ref 0 in
  while !pos < len do
    let s = src + !pos and d = dst + !pos in
    let n =
      Int.min (len - !pos)
        (Int.min (page_size - (s land page_mask)) (page_size - (d land page_mask)))
    in
    let sp = s lsr page_shift and dp = d lsr page_shift in
    let sdata = m.data.(sp) in
    if sdata == zero_page then begin
      (* a zero source page carries no tags either *)
      if n = page_size then drop_page m dp
      else if m.data.(dp) != zero_page then Bytes.fill m.data.(dp) (d land page_mask) n '\000';
      clear_tags_range m d n
    end
    else begin
      Bytes.blit sdata (s land page_mask) (writable_page m dp) (d land page_mask) n;
      let gs = gidx s and gd = gidx d in
      for i = 0 to (n / granule) - 1 do
        if unsafe_read_tag m (gs + i) then begin
          Bytes.blit m.caps.(sp) ((s land page_mask) + (i * granule)) (cap_page m dp)
            ((d land page_mask) + (i * granule)) granule;
          set_tag_bit m (gd + i)
        end
        else clear_tag_bit m (gd + i)
      done
    end;
    pos := !pos + n
  done
