module Capability = Cheri.Capability
module Machine = Sim.Machine
module Backend = Alloc.Backend

type t = {
  m : Machine.t;
  alloc : Backend.t;
  revoker : Revoker.t;
  policy : Policy.t;
  mutable buffer : int array;
      (* the fill buffer: flat (addr, size) pairs in its first
         [buffer_len] ints, oldest first; grows by doubling *)
  mutable buffer_len : int;
  mutable buffer_bytes : int;
  mutable outstanding_bytes : int; (* enqueued but not yet dequarantined *)
  mutable finishing : bool;
  mutable revocation_triggers : int;
  mutable sum_freed : int;
  mutable live_samples : int list;
  mutable quarantine_samples : int list;
  mutable blocked : int;
  mutable throttled : int; (* mallocs slowed by abort backpressure *)
  mutable abandoned : int; (* quarantine bytes dropped by [finish] *)
  mutable release_stall : (Machine.ctx -> int) option;
      (* chaos: extra cycles to stall before each batch release *)
  mutable on_release : (Machine.ctx -> addr:int -> size:int -> unit) option;
      (* quota ledger: called for each clean entry before its bitmap is
         cleared and the memory released — credits precede [Reuse] *)
  drained : Machine.condvar; (* signaled after each batch is dequarantined *)
  (* counter values at batch handoff: dequarantine asserts the §2.2.3
     epoch protocol against them *)
  batch_epochs : (int, int) Hashtbl.t;
  mutable batch_id : int;
  mutable next_clean : int;
}

let quarantine_bytes t = t.buffer_bytes + t.outstanding_bytes
let policy t = t.policy
let allocator t = t.alloc

let on_clean t ctx (batch : Revoker.batch) =
  (* Runs on the revoker thread once the batch's epoch has closed. Batches
     complete in handoff order; assert the §2.2.3 epoch protocol for the
     oldest outstanding one. *)
  (match Hashtbl.find_opt t.batch_epochs t.next_clean with
  | Some painted_at ->
      (* under an injected protocol mutation the violation is the point:
         let the sanitizer report it rather than aborting the run here *)
      if Revoker.injected_fault t.revoker = None then
        assert (Epoch.is_clean (Revoker.epoch t.revoker) ~painted_at);
      Hashtbl.remove t.batch_epochs t.next_clean;
      t.next_clean <- t.next_clean + 1
  | None -> ());
  (match t.release_stall with
  | Some h ->
      let d = h ctx in
      if d > 0 then Machine.sleep ctx d
  | None -> ());
  let e = batch.Revoker.entries in
  for i = 0 to (Array.length e / 2) - 1 do
    let addr = e.(2 * i) and size = e.((2 * i) + 1) in
    (match t.on_release with
    | Some h -> h ctx ~addr ~size
    | None -> ());
    Revmap.clear (Revoker.revmap t.revoker) ctx ~addr ~size;
    t.alloc.Backend.release_range ctx ~addr ~size;
    Machine.trace_emit t.m ~time:(Machine.now ctx) ~core:(Machine.core_id ctx)
      ~pid:(Revoker.pid t.revoker) ~arg2:size Sim.Trace.Reuse addr
  done;
  t.outstanding_bytes <- t.outstanding_bytes - batch.Revoker.bytes;
  Machine.broadcast ctx t.drained

let create m ~alloc ~revoker ?(policy = Policy.default) () =
  let t =
    {
      m;
      alloc;
      revoker;
      policy;
      buffer = Array.make 512 0;
      buffer_len = 0;
      buffer_bytes = 0;
      outstanding_bytes = 0;
      finishing = false;
      revocation_triggers = 0;
      sum_freed = 0;
      live_samples = [];
      quarantine_samples = [];
      blocked = 0;
      throttled = 0;
      abandoned = 0;
      release_stall = None;
      on_release = None;
      drained = Machine.condvar ();
      batch_epochs = Hashtbl.create 64;
      batch_id = 0;
      next_clean = 0;
    }
  in
  Revoker.set_on_clean revoker (fun ctx batch -> on_clean t ctx batch);
  (* Epoch aborts move the counter backwards, which can leave handed-off
     batches stamped "from the future" relative to the restored counter —
     [is_clean] would then trip on perfectly sound deliveries. Clamping
     the stamps down to the restored value is sound: the batches were
     enqueued before the retried epoch begins, so that epoch's completion
     covers them exactly as it covers anything painted at the restored
     counter. *)
  Revoker.set_on_abort revoker
    (Some
       (fun _ctx ->
         let c = Epoch.counter (Revoker.epoch revoker) in
         Hashtbl.filter_map_inplace
           (fun _ painted_at -> Some (min painted_at c))
           t.batch_epochs));
  t

let push t ~addr ~size =
  let n = t.buffer_len in
  if n = Array.length t.buffer then begin
    let b = Array.make (2 * n) 0 in
    Array.blit t.buffer 0 b 0 n;
    t.buffer <- b
  end;
  t.buffer.(n) <- addr;
  t.buffer.(n + 1) <- size;
  t.buffer_len <- n + 2;
  t.buffer_bytes <- t.buffer_bytes + size;
  t.sum_freed <- t.sum_freed + size

let trigger t ctx =
  if t.buffer_len > 0 then begin
    let batch =
      { Revoker.entries = Array.sub t.buffer 0 t.buffer_len; bytes = t.buffer_bytes }
    in
    t.revocation_triggers <- t.revocation_triggers + 1;
    t.live_samples <- t.alloc.Backend.live_bytes () :: t.live_samples;
    t.quarantine_samples <- quarantine_bytes t :: t.quarantine_samples;
    Hashtbl.replace t.batch_epochs t.batch_id (Epoch.counter (Revoker.epoch t.revoker));
    t.batch_id <- t.batch_id + 1;
    t.outstanding_bytes <- t.outstanding_bytes + t.buffer_bytes;
    t.buffer_len <- 0;
    t.buffer_bytes <- 0;
    Revoker.enqueue t.revoker ctx batch
  end

let maybe_trigger t ctx =
  let live = t.alloc.Backend.live_bytes () in
  if
    (not t.finishing)
    && Policy.should_revoke t.policy ~live ~quarantine:(quarantine_bytes t)
    && not (Revoker.in_flight t.revoker)
    && Revoker.queued_bytes t.revoker = 0
  then trigger t ctx

(* Block while quarantine is severely over policy and a revocation is in
   flight: wait for batches to be dequarantined (§5.3). *)
let maybe_block t ctx =
  let rec loop () =
    let live = t.alloc.Backend.live_bytes () in
    if
      Policy.should_block t.policy ~live ~quarantine:(quarantine_bytes t)
      && (Revoker.in_flight t.revoker || Revoker.queued_bytes t.revoker > 0)
    then begin
      t.blocked <- t.blocked + 1;
      Machine.wait ctx t.drained;
      loop ()
    end
  in
  loop ()

let malloc t ctx size =
  Machine.charge ctx Sim.Cost.mrs_shim;
  (* abort backpressure: while the revoker cannot retire quarantine, slow
     the application down instead of letting it outrun recovery *)
  let bp = Revoker.backpressure t.revoker in
  if bp > 0 then begin
    t.throttled <- t.throttled + 1;
    Machine.sleep ctx bp
  end;
  maybe_block t ctx;
  maybe_trigger t ctx;
  t.alloc.Backend.malloc ctx size

let free t ctx cap =
  Machine.charge ctx Sim.Cost.mrs_shim;
  maybe_block t ctx;
  let addr = Capability.base cap in
  let size = t.alloc.Backend.withdraw ctx cap in
  Revmap.paint (Revoker.revmap t.revoker) ctx ~addr ~size;
  push t ~addr ~size;
  t.alloc.Backend.note_rss ()

let revoker t = t.revoker
let buffered_entries t =
  List.init (t.buffer_len / 2) (fun i -> (t.buffer.(2 * i), t.buffer.((2 * i) + 1)))

let flush = trigger
let adopt_quarantine t entries = List.iter (fun (addr, size) -> push t ~addr ~size) entries

let wait_drained t ctx =
  while quarantine_bytes t > 0 do
    Machine.wait ctx t.drained
  done

let set_release_stall t f = t.release_stall <- f
let set_on_release t f = t.on_release <- f

let wait_release t ctx =
  if quarantine_bytes t > 0 then Machine.wait ctx t.drained

let finish t ctx =
  t.finishing <- true;
  (* Quarantine still in the fill buffer at process end is abandoned, as
     on a real exiting system — but not silently: account it and leave a
     trace event so nothing "drains" by vanishing. Queued and in-flight
     batches are not abandoned: the revoker's shutdown drain revokes and
     releases them. *)
  let dropped = t.buffer_bytes in
  if dropped > 0 then begin
    t.abandoned <- t.abandoned + dropped;
    Machine.trace_emit t.m ~time:(Machine.now ctx) ~core:(Machine.core_id ctx)
      ~pid:(Revoker.pid t.revoker) Sim.Trace.Quarantine_abandoned dropped
  end;
  Revoker.request_shutdown t.revoker ctx

let abandoned_bytes t = t.abandoned

type stats = {
  revocations : int;
  sum_freed_bytes : int;
  live_samples : int list;
  quarantine_samples : int list;
  blocked_allocs : int;
  throttled_allocs : int;
  abandoned_bytes : int;
}

let stats t =
  {
    revocations = Revoker.revocation_count t.revoker;
    sum_freed_bytes = t.sum_freed;
    live_samples = List.rev t.live_samples;
    quarantine_samples = List.rev t.quarantine_samples;
    blocked_allocs = t.blocked;
    throttled_allocs = t.throttled;
    abandoned_bytes = t.abandoned;
  }
