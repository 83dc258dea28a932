(** Compiled SPEC op streams: the reference interpreter's operation
    sequence lowered to flat, int-coded arrays, executed by a tight
    decode loop.

    The reference interpreter ({!Spec.app_body}) pays per operation for
    work that is invariant across the run: the mixture walk inside
    {!Profile.sample_size}, the [Prng.float] branch chain selecting the
    op kind and the linear probes over the liveness bitmap. All of
    those consume only {e host-side} state (the PRNG and the table's
    liveness bookkeeping), so they can be replayed once, up front, into
    a flat encoding; the executor then touches the simulated machine —
    and nothing else — in exactly the reference order.

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
(** A compiled stream: prologue (table warm-up) allocations followed by
    the operation stream, with all PRNG draws pre-sampled. *)

exception Divergence of string
(** A compile-time machine-state assumption failed at execution. The
    simulation state is unusable after this — the executor may have
    consumed pre-sampled draws the reference would not have. *)

val compile : Profile.t -> rng:Sim.Prng.t -> ops:int -> t
(** Consumes from [rng] exactly the draws the reference interpreter
    would consume for the same profile and op count (including the
    prologue's); afterwards [rng] is positioned where the reference
    run would have left it. *)

val exec : t -> Profile.t -> Ccr.Runtime.t -> Sim.Machine.ctx -> ops_done:int ref -> unit
(** Run the stream on the calling simulated thread: builds the object
    table (same chunk allocations as the reference) and replays the
    operations. [ops_done] counts stream operations only, as in the
    reference. *)

val length : t -> int
(** Total entries (prologue + stream). *)

val stream_ops : t -> int
(** Stream operations (one per reference op, including no-op picks). *)

val mod_hilo : int -> int -> int -> int
(** [mod_hilo hi lo n] reduces the raw 63-bit draw [hi * 2^31 + lo]
    modulo [n], bit-identical to what [Prng.int] computes from the same
    raw draw. Exposed for the property test. *)
