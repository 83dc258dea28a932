(** Five-number summaries with ASCII rendering — the form of the paper's
    figure 9. *)

type t = {
  label : string;
  n : int;
  min : float;
  q1 : float;
  median : float;
  q3 : float;
  max : float;
}

val of_samples : label:string -> float list -> t option
(** [None] on an empty sample list. *)

val render : Format.formatter -> unit:string -> t list -> unit
(** Draw the boxes on a shared 60-column log axis, appropriate for phase
    times spanning orders of magnitude:
    [      |----[  =  ]------|      ]
    whiskers at min/max, box q1..q3, [=] at the median. *)
