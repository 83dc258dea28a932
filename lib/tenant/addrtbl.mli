(** A hash table keyed by allocation bases: the quota ledger's entry
    table ({!Ledger}), which every charge, free and credit probes.

    Open addressing with linear probing: a flat [int array] of keys
    ([-1] marks a free slot) beside a value array, the home slot taken
    from a multiplicative hash of [key lsr 4], and backward-shift
    deletion. The load factor stays at or below 1/2. Unlike the
    standard [Hashtbl] it makes no C call to hash, no polymorphic
    comparison to probe, and allocates no cell per binding. Keys must
    be non-negative. Iteration order is unspecified. *)

type 'a t

val create : absent:'a -> int -> 'a t
(** [create ~absent n] is an empty table sized for [n] bindings without
    growing. {!find} returns [absent] for a key with no binding, so
    callers can test for it with [==]. *)

val length : 'a t -> int
val find : 'a t -> int -> 'a
(** The key's binding, or the table's [absent] value. *)

val replace : 'a t -> int -> 'a -> unit
(** Bind the key, replacing any binding it had. Raises
    [Invalid_argument] on a negative key. *)

val remove : 'a t -> int -> unit
(** Drop the key's binding, if any. *)

val fold : (int -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc

val capacity : 'a t -> int
(** The slot count, a power of two at least twice {!length}. *)

val home : 'a t -> int -> int
(** The slot where a probe for the key starts, in [\[0, capacity)].
    Keys with the same home collide; a probe run that passes the last
    slot wraps to slot 0. *)
