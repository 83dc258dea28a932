(** Deterministic pseudo-random numbers (splitmix64).

    Every stochastic choice in the simulator draws from an explicit
    generator so whole runs are reproducible from a seed. *)

type t

val create : seed:int -> t
val split : t -> t
(** An independent stream derived from the current state. *)

val next : t -> int64
val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)]; [n > 0]. *)

val float : t -> float -> float
(** Uniform in [\[0, bound)]. *)

val bool : t -> bool

val exponential : t -> mean:float -> float
(** Exponentially distributed with the given mean. *)

val pareto : t -> scale:float -> shape:float -> float
(** Heavy-tailed draw, [>= scale]. Used for syscall drain tails. *)

