(** Empirical cumulative distribution functions (figure 7 of the paper). *)

type t

val of_samples : float list -> t
val n : t -> int

val at : t -> float -> float
(** [at cdf x] is the fraction of samples [<= x]. *)

val inverse : t -> float -> float
(** [inverse cdf q] with [q] in [\[0,1\]]: the smallest sample value at
    which the CDF reaches [q]. *)

val points : t -> (float * float) list
(** Sampled [(value, fraction)] pairs suitable for plotting, deduplicated,
    at most 200 points. *)

val render : Format.formatter -> (string * t) list -> unit
(** Crude ASCII rendering of several CDFs on a shared log-x axis, 72
    columns by 16 rows. *)
