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
    [xs] is empty. Selects the two order statistics it interpolates
    between instead of sorting. *)

val percentile_in_place : float array -> int -> float -> float
(** [percentile_in_place a n p] is [percentile] of the first [n]
    elements of [a], bit for bit, computed in place: it reorders those
    elements and allocates nothing but its result. Raises
    [Invalid_argument] as [percentile] does, and when [n] is outside
    [\[1, Array.length a\]]. *)

val mean : float list -> float
val geomean : float list -> float
(** Geometric mean; every sample must be positive. *)

val pp : Format.formatter -> t -> unit
