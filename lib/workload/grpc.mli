(** The gRPC QPS surrogate (§5.3 of the paper).

    A two-thread asynchronous server pinned to cores 2 and 3 serves
    pipelined messages from two client threads on cores 0 and 1, each
    keeping a fixed number of requests outstanding (closed loop). Unlike
    the other workloads the background revoker is {e not} given a spare
    core: it shares core 3 with a server thread, so revocation directly
    competes with foreground work — the paper's source of 99.9th-
    percentile pathologies.

    Each message allocates and frees unmarshalling/response temporaries
    against the shared heap; a long-lived session/buffer table provides
    the capability-bearing pages the revoker must sweep.

    {b Coordinated omission.} A closed-loop client that measures latency
    from the actual send instant under-reports server stalls: while the
    server is paused (say, in a revocation stop-the-world) the client's
    outstanding window is full, so it simply stops issuing — the stalled
    interval contributes {e no} samples, and the tail looks clean
    precisely when it was worst. The latencies reported here are
    therefore measured from each request's {e intended} issue time,
    stamped before the client waits for window credit; the uncorrected
    closed-loop measurement is still recorded in
    [Result.latencies_closed_us] for comparison. *)

type config = {
  messages : int; (** total messages across all clients *)
  session_slots : int; (** long-lived server state objects *)
  seed : int;
}

val default_config : config
(** 24000 messages, 20k sessions. Fixed for every run: 16 requests
    outstanding per client, 3 temporaries and 50k cycles of compute per
    message, and the first 5% of messages excluded from the latency
    samples. *)

val run :
  ?config:config -> ?tracer:Sim.Trace.t -> mode:Ccr.Runtime.mode -> unit -> Result.t
(** [latencies_us] holds post-warmup per-message latencies; [throughput]
    is messages per simulated second (QPS). *)
