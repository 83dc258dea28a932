(** The protocol sanitizer and the race detector attached as a pair, and
    the one verdict every checked run reports. *)

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
