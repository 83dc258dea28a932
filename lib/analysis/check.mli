(** The protocol sanitizer and the race detector attached as a pair, the
    one verdict every checked run reports, and the seeded protocol
    mutations they must catch. *)

type t

val attach_runtime : Ccr.Runtime.t -> t
(** Attach both checkers to a runtime's machine, with its revoker as the
    sanitizer's protocol context — through the machine's tracer, or a
    quiet one of their own when none is attached. *)

val attach_os : Os.t -> t
(** As {!attach_runtime}, on a multi-process machine: init's revoker is
    the context of pid 0, and every process the OS creates registers
    its own. *)

val verdict : t option -> drift:string list -> bool * string
(** [(clean, report)]: finish the checkers and buffer their findings,
    then each [drift] message — the caller's broken accounting
    identities — on a line of its own. [clean] holds when both checkers
    are clean and [drift] is empty; [None] checks nothing. *)

(** {2 Seeded mutations} *)

val mutations : (Ccr.Revoker.strategy * Ccr.Revoker.fault * string) list
(** One [(strategy, fault, rule)] row per {!Ccr.Revoker.all_faults}
    entry, in that order: the strategy the fault is injected into and
    the {!Sanitizer.all_rules} rule that must report it. *)

val alias_victim :
  Ccr.Mrs.t -> Kernel.Hoard.t -> Sim.Machine.ctx -> Cheri.Capability.t
(** Allocate a victim and scatter aliases of it through a table in
    memory, the calling thread's registers and a kernel hoard, so that a
    protocol mutation leaves a stale capability the sanitizer sees. *)

val churn_rig :
  ?fault:Ccr.Revoker.fault -> Ccr.Revoker.strategy -> Sanitizer.t * Race.t
(** A small runtime with both checkers attached and [fault] injected: one
    thread frees an {!alias_victim} and churns until its batch's epoch
    closes. Returns the finished sanitizer and the race detector. *)
