(** Descriptive statistics over float samples. *)

type t = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  q1 : float;
  median : float;
  q3 : float;
  max : float;
}

val of_list : float list -> t
(** Raises [Invalid_argument] on an empty list. *)

val percentile : float list -> float -> float
(** [percentile xs p] with [p] in [\[0, 100\]], linear interpolation.
    Raises [Invalid_argument] when [p] is outside that range or nan, or
    [xs] is empty. *)

val mean : float list -> float
val geomean : float list -> float
(** Geometric mean; every sample must be positive. *)

val pp : Format.formatter -> t -> unit
