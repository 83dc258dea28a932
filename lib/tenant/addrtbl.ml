(* Open addressing with linear probing over a flat key array: a lookup
   makes no C call and no polymorphic comparison, and an insertion
   allocates no bucket cell. Keys are allocation bases, so they are
   non-negative and granule-aligned: [empty] (-1) marks a free slot, and
   the home slot comes from a multiplicative hash of the granule index.
   Deletion shifts the rest of the probe run back instead of leaving a
   tombstone, so every probe ends at the first empty slot. *)

type 'a t = {
  mutable keys : int array; (* power-of-two length; [empty] = free *)
  mutable vals : 'a array; (* [absent] in every free slot *)
  mutable shift : int; (* 63 - log2 (capacity) *)
  mutable count : int;
  absent : 'a;
}

let empty = -1

(* ⌊2^63 / φ⌋, made odd: Fibonacci hashing's multiplier for 63-bit
   ints. The top bits of the wrapped product pick the slot. *)
let golden = 0x4F1BBCDCBFA53E0B

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let make ~absent capacity =
  {
    keys = Array.make capacity empty;
    vals = Array.make capacity absent;
    shift = 63 - log2 capacity;
    count = 0;
    absent;
  }

let create ~absent n =
  let capacity = ref 8 in
  while !capacity < 2 * n do
    capacity := 2 * !capacity
  done;
  make ~absent !capacity

let length t = t.count
let capacity t = Array.length t.keys
let home t k = ((k lsr 4) * golden) lsr t.shift

(* The slot holding [k], or the empty slot that ends its probe run. *)
let rec slot keys mask k i =
  let ki = keys.(i) in
  if ki = k || ki = empty then i else slot keys mask k ((i + 1) land mask)

let find t k =
  let keys = t.keys in
  let i = slot keys (Array.length keys - 1) k (home t k) in
  if keys.(i) = k then t.vals.(i) else t.absent

(* Doubling keeps the load factor at or below 1/2. *)
let grow t =
  let old_keys = t.keys and old_vals = t.vals in
  let g = make ~absent:t.absent (2 * Array.length old_keys) in
  let mask = Array.length g.keys - 1 in
  Array.iteri
    (fun j k ->
      if k <> empty then begin
        let i = slot g.keys mask k (home g k) in
        g.keys.(i) <- k;
        g.vals.(i) <- old_vals.(j)
      end)
    old_keys;
  t.keys <- g.keys;
  t.vals <- g.vals;
  t.shift <- g.shift

let replace t k v =
  if k < 0 then invalid_arg "Addrtbl.replace: negative key";
  let keys = t.keys in
  let i = slot keys (Array.length keys - 1) k (home t k) in
  t.vals.(i) <- v;
  if keys.(i) = empty then begin
    keys.(i) <- k;
    t.count <- t.count + 1;
    if 2 * t.count > Array.length keys then grow t
  end

let remove t k =
  let keys = t.keys and vals = t.vals in
  let mask = Array.length keys - 1 in
  let i = slot keys mask k (home t k) in
  if keys.(i) = k then begin
    t.count <- t.count - 1;
    (* Walk the run after the hole. An entry whose home lies cyclically
       at or before the hole moves into it, and its old slot becomes the
       hole; one whose home lies after the hole stays. *)
    let hole = ref i and j = ref ((i + 1) land mask) in
    while keys.(!j) <> empty do
      let kj = keys.(!j) in
      if (!j - home t kj) land mask >= (!j - !hole) land mask then begin
        keys.(!hole) <- kj;
        vals.(!hole) <- vals.(!j);
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    keys.(!hole) <- empty;
    vals.(!hole) <- t.absent
  end

let fold f t acc =
  let acc = ref acc in
  Array.iteri (fun i k -> if k <> empty then acc := f k t.vals.(i) !acc) t.keys;
  !acc
