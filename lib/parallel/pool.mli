(** Deterministic domain-parallel fan-out for independent simulations.

    Each campaign cell / serve point / chaos schedule is a self-contained
    seeded simulation touching no global mutable state, so they can run
    on separate domains. [map] preserves submission order in its result
    list, making the output of every consumer identical for any [~jobs]
    value — the jobs-determinism contract [dune build @determinism]
    enforces (see DESIGN.md, "Simulator performance").

    Workers must not print: anything destined for the user is returned
    as data (or a buffer) and emitted by the calling domain in
    submission order. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] clamped to [1, 16]. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] applies [f] to every element of [xs], running up to
    [jobs] applications concurrently on separate domains, and returns
    the results in the order of [xs]. [jobs] defaults to
    {!default_jobs}; [jobs <= 1] degenerates to sequential [List.map]
    on the calling domain (no domains spawned).

    Work is handed out dynamically (an atomic next-index counter), so
    which domain runs which element is nondeterministic — but element
    [i]'s result is always slot [i], and [f] must not depend on shared
    mutable state, so the result list is deterministic.

    If any application raises, the exception of the {e lowest-indexed}
    failing element is re-raised on the calling domain (with its
    backtrace) after all domains have been joined. *)
