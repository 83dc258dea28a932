(** Kernel capability hoards (§4.4 of the paper).

    User pointers flow into the kernel and may be {e hoarded} — retained
    across system calls by asynchronous facilities (kqueue, aio) and
    returned to userspace later. During a revocation epoch the kernel
    must scan everything it holds on behalf of the program, and must
    never divulge an unchecked capability afterwards.

    Saved register files of off-core threads are the other hoard; the
    revoker scans those via {!Sim.Regfile} directly. *)

type t

val create : unit -> t

val register : t -> Sim.Machine.ctx -> Cheri.Capability.t -> int
(** Hand a capability to the kernel (an aio/kevent registration);
    returns a handle. Charged as a light syscall. *)

val retrieve : t -> Sim.Machine.ctx -> int -> Cheri.Capability.t
(** Get the capability back (completion delivery). Returns whatever the
    kernel now holds — possibly revoked (untagged) if a sweep happened
    in between. Raises [Not_found] for a bogus handle. *)

val deregister : t -> Sim.Machine.ctx -> int -> unit

val scan : t -> f:(Cheri.Capability.t -> Cheri.Capability.t) -> int
(** Apply the revoker's check to every hoarded capability; returns the
    number held (for cost accounting by the caller). *)

val iter : t -> f:(int -> Cheri.Capability.t -> unit) -> unit
(** Non-mutating, uncharged walk over the held capabilities — for
    shadow-state inspection by analyses, not for simulated programs. *)

val size : t -> int
