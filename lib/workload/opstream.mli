(** Compiled SPEC op streams: the reference interpreter's operation
    sequence lowered, a block at a time, to flat int-coded arrays,
    executed by a tight decode loop.

    The reference interpreter ({!Spec.app_body}) pays per operation for
    the mixture walk inside {!Profile.sample_size}, the [Prng.float]
    branch chain selecting the op kind and the linear probes over the
    liveness bitmap. All of those consume only {e host-side} state (the
    PRNG and the table's liveness bookkeeping), so they can be drawn
    ahead of execution into a flat encoding; the executor then touches
    the simulated machine — and nothing else — in exactly the reference
    order. Draws are made one block of {!block} entries at a time, so a
    stream's host memory does not grow with its op count.

    {b Equivalence bar.} For a fixed seed the compiled path produces
    bit-for-bit the simulated cycles, cache and bus state, and trace
    stream of the reference interpreter (QCheck suite [test_opstream]).
    Two machine-state assumptions are asserted at execution, never
    silently absorbed: live slots hold tagged capabilities, and
    [Runtime.malloc] returns capabilities of the size-class-predicted
    length. Violating either (only possible with chaos hooks or a
    capability-load filter barrier armed, against which drivers fall
    back to the reference path — see {!Machine.chaos_armed} and
    {!Machine.load_filter_armed}) raises {!Divergence}. *)

type t
(** A stream: a host-side shadow of the object table, the block buffers
    and the PRNG it draws from. It runs once. *)

exception Divergence of string
(** A drawn machine-state assumption failed at execution. The
    simulation state is unusable after this — the executor may have
    made draws, up to a block ahead, that the reference would not
    have. *)

val block : int
(** The most entries a block holds (prologue allocations and ops
    alike). *)

val compile : Profile.t -> rng:Sim.Prng.t -> ops:int -> t
(** Builds the stream's shadow table and block buffers; draws nothing.
    The stream owns [rng] from here on: nothing else may draw from it.
    Allocation depends on the profile, not on [ops]. *)

val exec : t -> Profile.t -> Ccr.Runtime.t -> Sim.Machine.ctx -> ops_done:int ref -> unit
(** Run the stream on the calling simulated thread: builds the object
    table (same chunk allocations as the reference), then draws a block
    from the stream's PRNG, replays it, and repeats until the prologue
    and all [ops] operations have run. The draws are the reference
    interpreter's for the same profile and op count, in its order, made
    at most one block ahead of execution. [ops_done] counts stream
    operations only, as in the reference. The profile must be the one
    given to {!compile}, and [exec] raises [Invalid_argument] on a
    stream that has already drawn. *)

val mod_hilo : int -> int -> int -> int
(** [mod_hilo hi lo n] reduces the raw 63-bit draw [hi * 2^31 + lo]
    modulo [n], bit-identical to what [Prng.int] computes from the same
    raw draw. Exposed for the property test. *)
