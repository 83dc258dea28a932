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

val percentile_opt : t -> float -> float option
(** {!percentile} that reports an empty histogram as [None] instead of
    raising — for callers aggregating sparse slices (e.g. per-time-slice
    fleet curves) where emptiness is data, not a bug. *)

val merge : t -> t -> t
(** Combine two histograms with identical geometry. *)

val merge_all : t list -> t
(** Combine any number of histograms with identical geometry into a
    fresh one. Associative and order-independent (bucket-wise sums), so
    fleet-wide percentile aggregation does not depend on the order hosts
    report in; empty inputs contribute nothing. [merge_all \[\]] is an
    empty default-geometry histogram. Raises [Invalid_argument] on a
    geometry mismatch. *)

val max_relative_error : t -> float
(** The bucket-width bound on percentile error, e.g. ~0.075 for 32
    buckets/decade. *)
