type t = {
  tag : bool;
  base : int;
  length : int;
  addr : int;
  perms : Perms.t;
  otype : int; (* 0 = unsealed *)
  win_lo : int; (* cached representable window of (base, length): *)
  win_hi : int; (* [set_addr] runs on every simulated access and sweep
                   probe, and recomputing the window there dominated its
                   cost. Derived from base/length only, so every
                   [{ c with ... }] that keeps the bounds keeps it. *)
}

(* A value with fresh bounds and its window:
   [Compress.representable_window ~base ~length], for bounds that are
   already representable (every constructor here normalizes them first).
   Inlined, so it allocates only the record. *)
let[@inline] with_window ~tag ~base ~length ~addr ~perms ~otype =
  let slack = Int.max 2048 (length / 4) in
  { tag; base; length; addr; perms; otype; win_lo = Int.max 0 (base - slack);
    win_hi = base + length + slack }

let null =
  { tag = false; base = 0; length = 0; addr = 0; perms = Perms.empty;
    otype = 0; win_lo = 0; win_hi = 2048 }

let root ~length =
  with_window ~tag:true ~base:0 ~length ~addr:0 ~perms:Perms.all ~otype:0

let tag c = c.tag
let base c = c.base
let length c = c.length
let top c = c.base + c.length
let addr c = c.addr
let perms c = c.perms
let otype c = c.otype
let is_sealed c = c.otype <> 0

let in_bounds ?(width = 1) c =
  width >= 1 && c.addr >= c.base && c.addr + width <= top c

let untag c = { c with tag = false }

let set_bounds_gen ~exact c ~base ~length =
  if length < 0 || base < 0 then untag { c with base; length = Int.max length 0; addr = base }
  else
    let base', length' = Compress.representable ~base ~length in
    let fits = base' >= c.base && base' + length' <= top c in
    let ok =
      c.tag && not (is_sealed c) && fits
      && (not exact || (base' = base && length' = length))
    in
    with_window ~tag:ok ~base:base' ~length:length' ~addr:base ~perms:c.perms
      ~otype:c.otype

let set_bounds c ~base ~length = set_bounds_gen ~exact:false c ~base ~length
let set_bounds_exact c ~base ~length = set_bounds_gen ~exact:true c ~base ~length

let set_addr c a =
  if not c.tag then { c with addr = a }
  else if is_sealed c then untag { c with addr = a }
  else { c with addr = a; tag = a >= c.win_lo && a < c.win_hi }

let incr_addr c delta = set_addr c (c.addr + delta)

(* A sealed capability cannot change: narrowing its permissions untags
   it, as CAndPerm does. *)
let restrict_perms c p = { c with perms = Perms.inter c.perms p; tag = c.tag && not (is_sealed c) }
let clear_perm c p = { c with perms = Perms.remove c.perms p; tag = c.tag && not (is_sealed c) }
let clear_tag = untag

let seal c ~otype =
  if c.tag && (not (is_sealed c)) && otype > 0 then { c with otype }
  else untag { c with otype = Int.max otype 0 }

let unseal c ~otype =
  if c.tag && c.otype = otype && otype > 0 then { c with otype = 0 }
  else untag c

let deref_ok ?(width = 1) c perm =
  c.tag && (not (is_sealed c)) && Perms.mem c.perms perm && in_bounds ~width c

let can_load ?width c = deref_ok ?width c Perms.load
let can_store ?width c = deref_ok ?width c Perms.store

let can_load_cap c =
  deref_ok ~width:16 c (Perms.union Perms.load Perms.load_cap)

let can_store_cap c =
  deref_ok ~width:16 c (Perms.union Perms.store Perms.store_cap)

let is_subset c parent =
  c.base >= parent.base && top c <= top parent
  && Perms.subset c.perms parent.perms

let equal a b =
  a.tag = b.tag && a.base = b.base && a.length = b.length && a.addr = b.addr
  && Perms.equal a.perms b.perms && a.otype = b.otype

(* ---- flat encoding ---- *)

(* Base and length take the low 40 bits of their words, permissions and
   the object type the bits above. *)
let field_bits = 40
let field_mask = (1 lsl field_bits) - 1
let otype_bits = 22

let encode c b off =
  if c.base lsr field_bits <> 0 || c.length lsr field_bits <> 0
     || c.otype lsr otype_bits <> 0
  then invalid_arg "Capability.encode: field out of range";
  Bytes.set_int64_le b off (Int64.of_int (c.base lor ((c.perms :> int) lsl field_bits)));
  Bytes.set_int64_le b (off + 8) (Int64.of_int (c.length lor (c.otype lsl field_bits)))

let encoded_base b off = Int64.to_int (Bytes.get_int64_le b off) land field_mask

let decode b off ~addr =
  let w0 = Int64.to_int (Bytes.get_int64_le b off)
  and w1 = Int64.to_int (Bytes.get_int64_le b (off + 8)) in
  with_window ~tag:true ~base:(w0 land field_mask) ~length:(w1 land field_mask) ~addr
    ~perms:(Perms.of_int (w0 lsr field_bits)) ~otype:(w1 lsr field_bits)

let pp fmt c =
  Format.fprintf fmt "%c[%#x,%#x)@%#x %a%s"
    (if c.tag then 'v' else 'x')
    c.base (top c) c.addr Perms.pp c.perms
    (if is_sealed c then Printf.sprintf " sealed:%d" c.otype else "")
