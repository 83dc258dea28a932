(* Open addressing with linear probing over a flat key array: a lookup
   makes no C call and no polymorphic comparison, and an insertion
   allocates no bucket cell. Keys are allocation bases, so they are
   non-negative and granule-aligned: [empty] (-1) marks a free slot, and
   the home slot comes from a multiplicative hash of the granule index.
   Deletion shifts the rest of the probe run back instead of leaving a
   tombstone, so every probe ends at the first empty slot.

   A slot's capability takes [stride] bytes of [caps] at [stride * slot]:
   the two words [Capability.encode] writes, then the address. Bytes
   hold no pointers, so a binding costs the collector nothing to mark. *)

module Capability = Cheri.Capability

type t = {
  mutable keys : int array; (* power-of-two length; [empty] = free *)
  mutable vals : int array;
  mutable caps : Bytes.t; (* [stride] bytes per slot *)
  mutable shift : int; (* 63 - log2 (capacity) *)
  mutable count : int;
}

let empty = -1
let stride = 24

(* ⌊2^63 / φ⌋, made odd: Fibonacci hashing's multiplier for 63-bit
   ints. The top bits of the wrapped product pick the slot. *)
let golden = 0x4F1BBCDCBFA53E0B

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let make capacity =
  {
    keys = Array.make capacity empty;
    vals = Array.make capacity 0;
    caps = Bytes.create (stride * capacity);
    shift = 63 - log2 capacity;
    count = 0;
  }

let create n =
  let capacity = ref 8 in
  while !capacity < 2 * n do
    capacity := 2 * !capacity
  done;
  make !capacity

let length t = t.count
let capacity t = Array.length t.keys
let home t k = ((k lsr 4) * golden) lsr t.shift

(* The slot holding [k], or the empty slot that ends its probe run. *)
let rec slot keys mask k i =
  let ki = keys.(i) in
  if ki = k || ki = empty then i else slot keys mask k ((i + 1) land mask)

let find_slot t k =
  let keys = t.keys in
  slot keys (Array.length keys - 1) k (home t k)

let find t k =
  let i = find_slot t k in
  if t.keys.(i) = k then t.vals.(i) else empty

let bound_slot t k =
  let i = find_slot t k in
  if t.keys.(i) = k then i else raise Not_found

let cap t k =
  let off = stride * bound_slot t k in
  Capability.decode t.caps off ~addr:(Int64.to_int (Bytes.get_int64_le t.caps (off + 16)))

let move_slot ~src j ~dst i =
  dst.keys.(i) <- src.keys.(j);
  dst.vals.(i) <- src.vals.(j);
  Bytes.blit src.caps (stride * j) dst.caps (stride * i) stride

(* Doubling keeps the load factor at or below 1/2. *)
let grow t =
  let g = make (2 * Array.length t.keys) in
  let mask = Array.length g.keys - 1 in
  Array.iteri
    (fun j k -> if k <> empty then move_slot ~src:t j ~dst:g (slot g.keys mask k (home g k)))
    t.keys;
  t.keys <- g.keys;
  t.vals <- g.vals;
  t.caps <- g.caps;
  t.shift <- g.shift

let replace t k v c =
  if k < 0 then invalid_arg "Addrtbl.replace: negative key";
  if v < 0 then invalid_arg "Addrtbl.replace: negative value";
  if not (Capability.tag c) then invalid_arg "Addrtbl.replace: untagged capability";
  let i = find_slot t k in
  (* first, so that a capability [encode] rejects binds nothing *)
  Capability.encode c t.caps (stride * i);
  Bytes.set_int64_le t.caps ((stride * i) + 16) (Int64.of_int (Capability.addr c));
  t.vals.(i) <- v;
  if t.keys.(i) = empty then begin
    t.keys.(i) <- k;
    t.count <- t.count + 1;
    if 2 * t.count > Array.length t.keys then grow t
  end

let set t k v =
  if v < 0 then invalid_arg "Addrtbl.set: negative value";
  t.vals.(bound_slot t k) <- v

let remove t k =
  let keys = t.keys in
  let mask = Array.length keys - 1 in
  let i = slot keys mask k (home t k) in
  if keys.(i) = k then begin
    t.count <- t.count - 1;
    (* Walk the run after the hole. An entry whose home lies cyclically
       at or before the hole moves into it, and its old slot becomes the
       hole; one whose home lies after the hole stays. *)
    let hole = ref i and j = ref ((i + 1) land mask) in
    while keys.(!j) <> empty do
      if (!j - home t keys.(!j)) land mask >= (!j - !hole) land mask then begin
        move_slot ~src:t !j ~dst:t !hole;
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    keys.(!hole) <- empty
  end

let fold f t acc =
  let acc = ref acc in
  Array.iteri (fun i k -> if k <> empty then acc := f k t.vals.(i) !acc) t.keys;
  !acc
