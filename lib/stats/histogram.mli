(** Log-bucketed (HDR-style) latency histograms.

    Constant memory however many samples arrive, with bounded relative
    error on percentile queries — what a production latency recorder
    uses where the workloads here keep raw sample arrays. *)

type t

val create : ?buckets_per_decade:int -> ?lo:float -> ?hi:float -> unit -> t
(** Defaults: 32 buckets/decade over [\[1e-1, 1e7)] (microseconds). Values
    outside the range clamp to the edge buckets. *)

val record : t -> float -> unit
val count : t -> int
val percentile : t -> float -> float
(** [percentile t p] with [p] in [\[0,100\]]: an upper bound on the true
    percentile with relative error bounded by the bucket width — the
    reported value is the {e upper edge} of the bucket holding the
    [ceil (p/100 * count)]-th sample ([p] clamps into the range, and the
    target rank is floored at 1, so [p = 0] on a nonempty histogram is
    the first occupied bucket's edge). A single-sample histogram reports
    that sample's bucket edge at every [p]; values recorded at or beyond
    the range edges land in the clamped edge buckets and report those
    buckets' edges. Raises [Invalid_argument] when empty or when [p] is
    nan, which has no place to clamp to. *)

val max_relative_error : t -> float
(** The bucket-width bound on percentile error, e.g. ~0.075 for 32
    buckets/decade. *)
