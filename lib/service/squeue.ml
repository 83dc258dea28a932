(* Bounded request queue with admission control. Every drop decision
   is traced individually (Req_shed / Req_lost) so the sanitizer and the
   accounting check can reconcile served + shed + lost = offered without
   trusting the aggregate counters. *)

open Sim

type req = { id : int; intended : int; deadline : int option; tenant : int }

let why_depth = 0
let why_deadline = 1
let why_quota = 3

type t = {
  m : Machine.t;
  max_depth : int;
  quota_gate : (int -> bool) option;
  q : req Queue.t;
  nonempty : Machine.condvar;
  mutable closed : bool;
  mutable accepted : int;
  mutable shed_depth : int;
  mutable shed_deadline : int;
  mutable shed_quota : int;
  mutable lost : int;
}

let create m ~max_depth ?quota_gate () =
  if max_depth <= 0 then invalid_arg "Squeue.create: max_depth must be > 0";
  {
    m;
    max_depth;
    quota_gate;
    q = Queue.create ();
    nonempty = Machine.condvar ();
    closed = false;
    accepted = 0;
    shed_depth = 0;
    shed_deadline = 0;
    shed_quota = 0;
    lost = 0;
  }

let depth t = Queue.length t.q
let accepted t = t.accepted
let shed_depth t = t.shed_depth
let shed_deadline t = t.shed_deadline
let shed_quota t = t.shed_quota
let lost t = t.lost

let record_shed t ctx req ~why =
  (match why with
  | 0 -> t.shed_depth <- t.shed_depth + 1
  | 1 -> t.shed_deadline <- t.shed_deadline + 1
  | _ -> t.shed_quota <- t.shed_quota + 1);
  Machine.trace_emit t.m ~time:(Machine.now ctx) ~core:(Machine.core_id ctx)
    ~pid:(Machine.ctx_pid ctx) ~arg2:why Trace.Req_shed req.id

let offer t ctx req =
  if t.closed then invalid_arg "Squeue.offer: queue is closed";
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
    match req.deadline with
    | Some d when Machine.now ctx - req.intended > d ->
        (* Stale before service even starts: complete-then-miss would
           waste server cycles on an answer nobody is waiting for, so
           deadline-shed it at dispatch and move on. *)
        record_shed t ctx req ~why:why_deadline;
        take t ctx
    | _ -> Some req
  end

(* A crash: everything admitted but still queued never gets an answer. *)
let drain_lost t ctx =
  while not (Queue.is_empty t.q) do
    let req = Queue.pop t.q in
    t.lost <- t.lost + 1;
    Machine.trace_emit t.m ~time:(Machine.now ctx)
      ~core:(Machine.core_id ctx) ~pid:(Machine.ctx_pid ctx) ~arg2:0
      Trace.Req_lost req.id
  done

let close t ctx =
  t.closed <- true;
  Machine.broadcast ctx t.nonempty
