(** The pgbench surrogate (§5.2 of the paper).

    A PostgreSQL-like server thread (core 3) processes TPC-B-ish
    transactions submitted serially by a client thread (core 0): per
    transaction, B-tree-style row lookups, three MVCC row updates (new
    version allocated, old freed), a history insert, a burst of
    parse/plan temporaries freed at commit, and a WAL write system call
    whose drain cost has a heavy tail (the §5.4.1 outlier mechanism).
    The revoker (if any) is pinned to core 2. The client thinks between
    transactions, so the server is on-core for roughly half the wall
    time, as in the paper.

    Latencies are measured by the client per transaction; with [rate]
    set, transactions are issued on a fixed schedule and latency is
    measured from the scheduled start, ignoring schedule lag (§5.2.1). *)

type config = {
  transactions : int;
  rate : float option; (** scheduled transactions per second *)
  seed : int;
}

val default_config : config
(** 6000 unscheduled transactions. Fixed for every run: 2400 rows and a
    1200-entry history ring; per transaction 20 temporaries, 30 row
    reads, 3 row updates and 40k cycles of compute; a mean client think
    time of 50k cycles; and the first 5% of transactions excluded from
    the latency samples. *)

val run :
  ?config:config -> ?tracer:Sim.Trace.t -> mode:Ccr.Runtime.mode -> unit -> Result.t
(** [latencies_us] holds post-warmup per-transaction latencies;
    [throughput] is transactions per simulated second. *)
