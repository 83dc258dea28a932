(* Host-time attribution for traced simulations, measured from outside
   the libraries.

   The host runs every simulated thread on one OCaml fiber at a time, so
   host time splits exactly between simulated threads. An identity
   scheduling oracle ({!Sim.Machine.set_sched_oracle} returning the
   built-in choice, which reproduces the unhooked machine exactly)
   timestamps every pick and charges the interval since the previous
   pick to the thread that ran in it. Threads are grouped into classes
   by name. Host time outside any thread (building the machine,
   assembling results) is charged to [main].

   Within the SPEC application thread the traced driver ({!Spec_driver})
   brackets each call into a layer with {!enter}/{!leave}. A span's self
   time is its duration minus the time other threads ran inside it (a
   call can reach a safe point and yield). Barrier time runs from a
   [Clg_fault] event to the end of the enclosing span and is taken out
   of that span. A trace subscriber counts event kinds and times
   stop-the-world windows.

   Everything accumulates in preallocated int arrays and mutable
   fields: the traced path allocates nothing per event beyond what the
   libraries do. *)

module Machine = Sim.Machine
module Trace = Sim.Trace

(* thread classes *)
let main = 0
let app = 1
let revoker = 2
let server = 3
let loadgen = 4
let tenant = 5
let reaper = 6
let init = 7
let n_classes = 8

let class_of_name name =
  let has prefix = String.starts_with ~prefix name in
  if name = "app" then app
  else if has "revoker-" then revoker
  else if has "serve-server-" then server
  else if name = "serve-loadgen" || has "tenantecon-gen-" then loadgen
  else if has "tenant-" then tenant
  else if name = "reaper" then reaper
  else if name = "init" then init
  else main

(* span kinds *)
let malloc = 0
let free = 1
let mem = 2
let n_spans = 3

(* counted event kinds *)
let ev_stw_request = 0
let ev_tlb_shootdown = 1
let ev_page_sweep = 2
let ev_context_switch = 3
let n_events = 4

type t = {
  class_ns : int array;
  span_ns : int array;
  span_calls : int array;
  events : int array;
  classes : (int, int) Hashtbl.t; (* thread id -> class, per machine *)
  mutable cur : int; (* class running since [seg_start] *)
  mutable seg_start : int;
  mutable other_ns : int; (* cumulative time of every class but [app] *)
  mutable picks : int;
  mutable span_t0 : int; (* -1: no span open *)
  mutable span_o0 : int;
  mutable fault_t0 : int; (* -1: no barrier fault pending *)
  mutable fault_o0 : int;
  mutable barrier_ns : int;
  mutable barrier_faults : int;
  mutable stw_t0 : int; (* -1: world running *)
  mutable stw_rev0 : int;
  mutable stw_ns : int;
  mutable revoker_stw_ns : int;
  mutable revoker_pages : int;
}

let create () =
  {
    class_ns = Array.make n_classes 0;
    span_ns = Array.make n_spans 0;
    span_calls = Array.make n_spans 0;
    events = Array.make n_events 0;
    classes = Hashtbl.create 16;
    cur = main;
    seg_start = Clock.now_ns ();
    other_ns = 0;
    picks = 0;
    span_t0 = -1;
    span_o0 = 0;
    fault_t0 = -1;
    fault_o0 = 0;
    barrier_ns = 0;
    barrier_faults = 0;
    stw_t0 = -1;
    stw_rev0 = 0;
    stw_ns = 0;
    revoker_stw_ns = 0;
    revoker_pages = 0;
  }

(* Close the running segment at [now] and switch to class [next]. *)
let switch t now next =
  let d = now - t.seg_start in
  t.class_ns.(t.cur) <- t.class_ns.(t.cur) + d;
  if t.cur <> app then t.other_ns <- t.other_ns + d;
  t.seg_start <- now;
  t.cur <- next

let class_of_thread t th =
  let id = Machine.thread_id th in
  match Hashtbl.find_opt t.classes id with
  | Some c -> c
  | None ->
      let c = class_of_name (Machine.thread_name th) in
      Hashtbl.replace t.classes id c;
      c

let oracle t ~default _eligible =
  t.picks <- t.picks + 1;
  switch t (Clock.now_ns ()) (class_of_thread t default);
  default

let revoker_ns_at t now =
  t.class_ns.(revoker) + if t.cur = revoker then now - t.seg_start else 0

let count t i = t.events.(i) <- t.events.(i) + 1

let on_event t (e : Trace.event) =
  match e.Trace.kind with
  | Trace.Clg_fault ->
      if t.span_t0 >= 0 && t.fault_t0 < 0 then begin
        t.fault_t0 <- Clock.now_ns ();
        t.fault_o0 <- t.other_ns;
        t.barrier_faults <- t.barrier_faults + 1
      end
  | Trace.Stw_request ->
      count t ev_stw_request;
      let now = Clock.now_ns () in
      t.stw_t0 <- now;
      t.stw_rev0 <- revoker_ns_at t now
  | Trace.Stw_release | Trace.Stw_abandon ->
      if t.stw_t0 >= 0 then begin
        let now = Clock.now_ns () in
        t.stw_ns <- t.stw_ns + (now - t.stw_t0);
        t.revoker_stw_ns <- t.revoker_stw_ns + (revoker_ns_at t now - t.stw_rev0);
        t.stw_t0 <- -1
      end
  | Trace.Page_sweep ->
      count t ev_page_sweep;
      if t.cur = revoker then t.revoker_pages <- t.revoker_pages + 1
  | Trace.Tlb_shootdown -> count t ev_tlb_shootdown
  | Trace.Context_switch -> count t ev_context_switch
  | _ -> ()

(* A fresh machine renumbers its threads from 0. Call before building
   the cell's machine; the time until the first pick is [main]'s. *)
let cell_begin t =
  Hashtbl.reset t.classes;
  switch t (Clock.now_ns ()) main

let cell_end t = switch t (Clock.now_ns ()) main

(* Hook a freshly built machine: the identity oracle, and a subscriber
   on the tracer the driver attached. The ring itself is never read, so
   its overwrite warning is silenced. *)
let attach t m =
  Machine.set_sched_oracle m (Some (oracle t));
  match Machine.tracer m with
  | Some tr ->
      Trace.set_warn_on_drop tr false;
      ignore (Trace.subscribe tr (on_event t))
  | None -> invalid_arg "Probe.attach: the machine has no tracer"

let tracer () = Trace.create ~capacity:16 ()

let[@inline] enter t =
  t.span_t0 <- Clock.now_ns ();
  t.span_o0 <- t.other_ns

let[@inline] leave t k =
  let now = Clock.now_ns () in
  let d = now - t.span_t0 - (t.other_ns - t.span_o0) in
  let d =
    if t.fault_t0 < 0 then d
    else begin
      let b = now - t.fault_t0 - (t.other_ns - t.fault_o0) in
      t.barrier_ns <- t.barrier_ns + b;
      t.fault_t0 <- -1;
      d - b
    end
  in
  t.span_ns.(k) <- t.span_ns.(k) + d;
  t.span_calls.(k) <- t.span_calls.(k) + 1;
  t.span_t0 <- -1

(* Per-layer host metrics of everything this probe saw: name, value,
   unit. Ratios whose denominator is 0 read 0. *)
let metrics t =
  let s ns = float_of_int ns /. 1e9 in
  let per num den scale = if den = 0 then 0.0 else float_of_int num /. float_of_int den *. scale in
  let spans_ns = Array.fold_left ( + ) 0 t.span_ns in
  let rev = t.class_ns.(revoker) in
  [
    ("workload.interp_s", s (t.class_ns.(app) - spans_ns - t.barrier_ns), "s");
    ("alloc.malloc_ns", per t.span_ns.(malloc) t.span_calls.(malloc) 1.0, "ns");
    ("alloc.free_ns", per t.span_ns.(free) t.span_calls.(free) 1.0, "ns");
    ("alloc.self_s", s (t.span_ns.(malloc) + t.span_ns.(free)), "s");
    ("mem.access_ns", per t.span_ns.(mem) t.span_calls.(mem) 1.0, "ns");
    ("mem.self_s", s t.span_ns.(mem), "s");
    ("barrier.fault_us", per t.barrier_ns t.barrier_faults 1e-3, "us");
    ("barrier.self_s", s t.barrier_ns, "s");
    ("revoker.thread_s", s rev, "s");
    ("revoker.stw_s", s t.stw_ns, "s");
    ("revoker.concurrent_s", s (rev - t.revoker_stw_ns), "s");
    ("revoker.sweep_us_per_page", per rev t.revoker_pages 1e-3, "us");
    ("service.server_s", s t.class_ns.(server), "s");
    ("service.loadgen_s", s t.class_ns.(loadgen), "s");
    ("tenant.proc_s", s t.class_ns.(tenant), "s");
    ("os.reaper_s", s t.class_ns.(reaper), "s");
    ("os.init_s", s t.class_ns.(init), "s");
    ("machine.main_s", s t.class_ns.(main), "s");
    ("machine.picks", float_of_int t.picks, "count");
    ("events.stw_request", float_of_int t.events.(ev_stw_request), "count");
    ("events.tlb_shootdown", float_of_int t.events.(ev_tlb_shootdown), "count");
    ("events.page_sweep", float_of_int t.events.(ev_page_sweep), "count");
    ("machine.context_switches", float_of_int t.events.(ev_context_switch), "count");
  ]
