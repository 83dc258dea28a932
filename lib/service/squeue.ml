(* Bounded request queue with admission control. Every drop decision
   is traced individually (Req_shed / Req_lost) so the sanitizer and the
   accounting check can reconcile served + shed + lost = offered without
   trusting the aggregate counters. *)

open Sim

type req = {
  id : int;
  intended : int;
  cls : int;
  deadline : int option;
  tenant : int;
}

let why_depth = 0
let why_deadline = 1
let why_brownout = 2
let why_quota = 3

type brownout = { b_enter : int; b_exit : int; b_min_cls : int }

let default_brownout = { b_enter = 48; b_exit = 12; b_min_cls = 2 }

type t = {
  m : Machine.t;
  max_depth : int;
  brownout : brownout option;
  quota_gate : (int -> bool) option;
  q : req Queue.t;
  nonempty : Machine.condvar;
  mutable closed : bool;
  mutable accepted : int;
  mutable shed_depth : int;
  mutable shed_deadline : int;
  mutable shed_brownout : int;
  mutable shed_quota : int;
  mutable lost : int;
  mutable browned_out : bool;
  mutable brownout_shifts : int;
  mutable shed_log : (req * int * int) list;
}

let create m ~max_depth ?brownout ?quota_gate () =
  if max_depth <= 0 then invalid_arg "Squeue.create: max_depth must be > 0";
  (match brownout with
  | Some b when b.b_enter <= b.b_exit ->
      invalid_arg "Squeue.create: brownout enter must exceed exit (hysteresis)"
  | Some b when b.b_enter > max_depth ->
      invalid_arg "Squeue.create: brownout enter beyond max_depth never fires"
  | _ -> ());
  {
    m;
    max_depth;
    brownout;
    quota_gate;
    q = Queue.create ();
    nonempty = Machine.condvar ();
    closed = false;
    accepted = 0;
    shed_depth = 0;
    shed_deadline = 0;
    shed_brownout = 0;
    shed_quota = 0;
    lost = 0;
    browned_out = false;
    brownout_shifts = 0;
    shed_log = [];
  }

let depth t = Queue.length t.q
let accepted t = t.accepted
let shed_depth t = t.shed_depth
let shed_deadline t = t.shed_deadline
let shed_brownout t = t.shed_brownout
let shed_quota t = t.shed_quota
let shed t = t.shed_depth + t.shed_deadline + t.shed_brownout + t.shed_quota
let lost t = t.lost
let brownout_active t = t.browned_out
let brownout_shifts t = t.brownout_shifts
let shed_log t = List.rev t.shed_log

let trace_shed t ctx ~id ~why =
  Machine.trace_emit t.m ~time:(Machine.now ctx) ~core:(Machine.core_id ctx)
    ~pid:(Machine.ctx_pid ctx) ~arg2:why Trace.Req_shed id

(* Hysteresis: flip on only when depth reaches the enter threshold, off
   only once it has drained to the exit threshold — the band between the
   two absorbs oscillation around a single trip point. *)
let update_brownout t ctx =
  match t.brownout with
  | None -> ()
  | Some b ->
      let d = Queue.length t.q in
      let next =
        if t.browned_out then d > b.b_exit else d >= b.b_enter
      in
      if next <> t.browned_out then begin
        t.browned_out <- next;
        t.brownout_shifts <- t.brownout_shifts + 1;
        Machine.trace_emit t.m ~time:(Machine.now ctx)
          ~core:(Machine.core_id ctx) ~pid:(Machine.ctx_pid ctx) ~arg2:d
          Trace.Brownout_shift
          (if next then 1 else 0)
      end

let record_shed t ctx req ~why =
  (match why with
  | 0 -> t.shed_depth <- t.shed_depth + 1
  | 1 -> t.shed_deadline <- t.shed_deadline + 1
  | 2 -> t.shed_brownout <- t.shed_brownout + 1
  | _ -> t.shed_quota <- t.shed_quota + 1);
  t.shed_log <- (req, why, Machine.now ctx) :: t.shed_log;
  trace_shed t ctx ~id:req.id ~why

let offer t ctx req =
  if t.closed then invalid_arg "Squeue.offer: queue is closed";
  update_brownout t ctx;
  if
    match t.quota_gate with
    | Some over -> over req.tenant
    | None -> false
  then begin
    (* Over-quota tenants are shed before any queueing check: their
       requests would only allocate into a heap they have no budget
       for, so they never consume admission capacity. *)
    record_shed t ctx req ~why:why_quota;
    false
  end
  else if t.browned_out && req.cls >= (Option.get t.brownout).b_min_cls then begin
    record_shed t ctx req ~why:why_brownout;
    false
  end
  else if Queue.length t.q >= t.max_depth then begin
    record_shed t ctx req ~why:why_depth;
    false
  end
  else begin
    t.accepted <- t.accepted + 1;
    Queue.push req t.q;
    Machine.broadcast ctx t.nonempty;
    true
  end

let rec take t ctx =
  while Queue.is_empty t.q && not t.closed do
    Machine.wait ctx t.nonempty
  done;
  if Queue.is_empty t.q then None
  else begin
    let req = Queue.pop t.q in
    update_brownout t ctx;
    match req.deadline with
    | Some d when Machine.now ctx - req.intended > d ->
        (* Stale before service even starts: complete-then-miss would
           waste server cycles on an answer nobody is waiting for, so
           deadline-shed it at dispatch and move on. *)
        record_shed t ctx req ~why:why_deadline;
        take t ctx
    | _ -> Some req
  end

(* The crash half of lost-in-flight semantics: everything admitted but
   still queued when the host dies never gets an answer. The requests
   are returned so the caller can fold them into its per-request results
   (the client side observes each loss by timeout, not instantly). *)
let drain_lost t ctx =
  let n = Queue.length t.q in
  let dropped = ref [] in
  for _ = 1 to n do
    let req = Queue.pop t.q in
    t.lost <- t.lost + 1;
    Machine.trace_emit t.m ~time:(Machine.now ctx)
      ~core:(Machine.core_id ctx) ~pid:(Machine.ctx_pid ctx) ~arg2:0
      Trace.Req_lost req.id;
    dropped := req :: !dropped
  done;
  update_brownout t ctx;
  List.rev !dropped

let close t ctx =
  t.closed <- true;
  Machine.broadcast ctx t.nonempty
