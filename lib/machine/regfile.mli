(** Capability register file.

    Each simulated thread owns one. Simulated programs must keep every
    capability they hold across a safe point either in their register file
    or in simulated memory — that is what makes the revoker's
    stop-the-world register scan (§3.2, §4.4 of the paper) meaningful. *)

type t

val registers : int
(** Number of capability registers (32). *)

val create : unit -> t
val get : t -> int -> Cheri.Capability.t
val set : t -> int -> Cheri.Capability.t -> unit

val iteri : t -> (int -> Cheri.Capability.t -> unit) -> unit

val map_tagged : t -> (Cheri.Capability.t -> Cheri.Capability.t) -> int
(** Apply a function to every tagged register (the revoker scan);
    returns how many registers were modified. *)
