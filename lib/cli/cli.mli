(** The command-line spine every executable shares: the common flags,
    the value converters, the [--check] epilogue and the one JSON record
    writer.

    Records carry simulated fields only — no host wall-clock, no
    [--jobs] echo — so two runs of one seeded command compare with a
    plain [cmp], whatever their [--jobs] width or interpreter. *)

open Cmdliner

(** {1 Converters}

    Every converter trims surrounding whitespace, so list items read
    from [a, b] parse like [a,b]. *)

val pos_int : int Arg.conv
(** An integer of at least 1. *)

val pos_float : float Arg.conv
(** A finite number above 0: [nan], [inf] and [0] are refused. *)

val fraction : float Arg.conv
(** A finite number in [\[0, 1\]]. *)

val list : 'a Arg.conv -> 'a list Arg.conv
(** Cmdliner's comma-separated [Arg.list], refusing an empty list. *)

val named : what:string -> (string -> 'a option) -> ('a -> string) -> 'a Arg.conv
(** [named ~what of_name to_name] parses a value by name; an unknown
    name is refused as ["unknown <what> <name>"]. *)

val mode : Ccr.Runtime.mode Arg.conv
(** A temporal-safety mode, by {!Ccr.Runtime.mode_of_name}. *)

val strategy : Ccr.Revoker.strategy Arg.conv
(** A revocation strategy, by {!Ccr.Revoker.strategy_of_name}. *)

val pattern : string Arg.conv
(** An arrival pattern name, as [Service.Loadgen.pattern_at] reads it:
    [poisson], [bursty], [ramp] or [diurnal]. *)

val governor_axis : bool list Arg.conv
(** [on], [off] or [both]: the governed settings a sweep covers, in the
    order [false; true]. *)

(** {1 Shared flags} *)

val jobs : doc:string -> int Term.t
(** [--jobs]/[-j N]: worker domains, at least 1, default
    {!Parallel.Pool.default_jobs}. *)

val seed : ?doc:string -> int -> int Term.t
(** [--seed N] with the tool's own default. *)

val json : doc:string -> string option Term.t
(** [--json PATH]. *)

val check : doc:string -> bool Term.t
(** The [--check] flag. *)

val check_epilogue : check:bool -> what:string -> (bool * string) list -> int
(** [check_epilogue ~check ~what runs]: print each run's buffered
    report (the second component) to stderr in order, then — under
    [check] — [check: ok (N <what>, …)] when every run is clean, or
    [check: FAILED]. Returns the exit code: 1 only on a failed check. *)

(** {1 JSON records} *)

module Json : sig
  type t =
    | Int of int
    | Float of int * float  (** digits after the point, value *)
    | String of string
    | Bool of bool
    | List of t list
    | Obj of (string * t) list

  val schema :
    ?topology:string ->
    ?host_count:int ->
    ?balancer:string ->
    ?tenants:int ->
    ?overcommit:string ->
    unit ->
    (string * t) list
  (** The schema-alignment fields every record pins, defaulting to one
      single-host, unbalanced, one-tenant machine: [topology "single"],
      [host_count 1], [balancer "none"], [tenants 1],
      [overcommit "none"]. *)

  val to_string : t -> string
  (** One line. Strings are escaped in full (quote, backslash and every
      control character); a non-finite float is [null]. *)

  val records : t list -> string
  (** The file framing: [\[], one record per line indented by two
      spaces and separated by commas, then [\]] and a newline. *)

  val write : string -> t list -> unit
  (** Write {!records} to a file. *)
end

val write_records : string option -> Json.t list -> unit
(** Under [Some path], write the records and announce
    [wrote N records to PATH] on stdout. *)
