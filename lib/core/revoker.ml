module Capability = Cheri.Capability
module Machine = Sim.Machine
module Cost = Sim.Cost
module Pte = Vm.Pte
module Pmap = Vm.Pmap
module Phys = Vm.Phys
module Layout = Vm.Layout

type strategy = Paint_sync | Cherivoke | Cornucopia | Reloaded | Cheriot_filter

let strategy_name = function
  | Paint_sync -> "paint+sync"
  | Cherivoke -> "cherivoke"
  | Cornucopia -> "cornucopia"
  | Reloaded -> "reloaded"
  | Cheriot_filter -> "cheriot"

let all_strategies = [ Paint_sync; Cherivoke; Cornucopia; Reloaded ]
let extended_strategies = all_strategies @ [ Cheriot_filter ]

let strategy_code = function
  | Paint_sync -> 0
  | Cherivoke -> 1
  | Cornucopia -> 2
  | Reloaded -> 3
  | Cheriot_filter -> 4

(* The graceful-degradation ladder: each step trades pause quality for
   fewer moving parts. Reloaded's load barrier needs CLG toggles and a
   racing background sweep; Cornucopia still sweeps concurrently but
   closes with a STW re-sweep; Cherivoke does everything inside one STW
   and depends on nothing but the sweep itself. Paint_sync is not a
   downshift target (it provides no safety), and Cherivoke is the floor. *)
let downshift_of = function
  | Reloaded -> Some Cornucopia
  | Cornucopia -> Some Cherivoke
  | Cheriot_filter -> Some Cherivoke
  | Cherivoke | Paint_sync -> None

type batch = { entries : int array; bytes : int }

(* The batches' regions as [(addr, size)] pairs, in order, built on
   demand for fork and the tests. *)
let entry_list batches =
  List.concat_map
    (fun b ->
      let e = b.entries in
      List.init (Array.length e / 2) (fun i -> (e.(2 * i), e.((2 * i) + 1))))
    batches

(* Deliberate protocol mutations, used by the sanitizer's mutation tests
   (and nothing else) to prove each invariant check actually fires. *)
type fault = Skip_shootdown | Skip_hoard_scan | Early_dequarantine

let fault_name = function
  | Skip_shootdown -> "skip-shootdown"
  | Skip_hoard_scan -> "skip-hoard-scan"
  | Early_dequarantine -> "early-dequarantine"

let all_faults = [ Early_dequarantine; Skip_shootdown; Skip_hoard_scan ]
let fault_of_name s = List.find_opt (fun f -> fault_name f = s) all_faults

let strategy_of_name s =
  List.find_opt (fun st -> strategy_name st = s) extended_strategies

exception Induced_crash

exception Epoch_aborted
(* internal: a quiesce watchdog exhausted its retry budget *)

type recovery = {
  watchdog_timeout : int;
  max_quiesce_retries : int;
  backoff_base : int;
  max_crash_retries : int;
  max_epoch_aborts : int;
  clg_storm_threshold : int;
  malloc_throttle : int;
}

let default_recovery =
  {
    (* 4x the default syscall drain cap: unreachable in a fault-free
       run, so arming the watchdog by default changes nothing there *)
    watchdog_timeout = 200_000_000;
    max_quiesce_retries = 3;
    backoff_base = 20_000;
    max_crash_retries = 5;
    max_epoch_aborts = 3;
    (* storms are workload-relative; downshifting on the load barrier's
       normal fault traffic would be wrong, so the trigger is off until
       a caller that knows its workload sets a threshold *)
    clg_storm_threshold = max_int;
    malloc_throttle = 50_000;
  }

type recovery_stats = {
  epoch_aborts : int;
  sweep_crash_retries : int;
  epoch_resumes : int;
  quiesce_timeouts : int;
  backoff_cycles : int;
  downshifts : int;
}

type phase_record = {
  epoch_index : int;
  requested_at : int;
  stw_cycles : int;
  concurrent_cycles : int;
  fault_cycles : int;
  fault_count : int;
  pages_visited : int;
  caps_revoked : int;
  bytes_processed : int;
}

let zero_recovery_stats =
  {
    epoch_aborts = 0;
    sweep_crash_retries = 0;
    epoch_resumes = 0;
    quiesce_timeouts = 0;
    backoff_cycles = 0;
    downshifts = 0;
  }

(* A page visit, on the thread whose context it is given: the (pages
   swept, capabilities revoked) it adds. *)
type visit = Machine.ctx -> int -> int * int

type helper = {
  h_core : int;
  h_work_cv : Machine.condvar;
  h_done_cv : Machine.condvar;
  mutable h_share : (int list * visit) option;
      (* the pages to walk and how to visit them; [None] while idle *)
  mutable h_sum : (int * int) option;
      (* the last share's (pages, revoked); [None] if an induced crash
         hit it *)
}

type t = {
  m : Machine.t;
  mutable aspace : Vm.Aspace.t;
  pid : int;
  mutable strategy : strategy;
      (* mutable: graceful degradation downshifts it (see [downshift_of]) *)
  recovery : recovery;
  core : int;
  non_temporal : bool;
  pte_flag_barrier : bool;
  revmap : Revmap.t;
  epoch : Epoch.t;
  hoards : Kernel.Hoard.t;
  work_cv : Machine.condvar;
  visit_set : (int, unit) Hashtbl.t; (* vpages that have held capabilities *)
  mutable helpers : helper list;
  mutable queue : batch list; (* newest first *)
  mutable queued_bytes : int;
  mutable in_flight : bool;
  mutable shutdown : bool;
  mutable records : phase_record list; (* newest first *)
  mutable on_clean : (Machine.ctx -> batch -> unit) option;
  (* accumulated by the Reloaded fault handler during the current epoch *)
  mutable fault_cycles : int;
  mutable fault_count : int;
  mutable revocations : int;
  mutable current : batch list; (* the in-flight epoch's batches *)
  mutable barrier_armed : bool;
      (* Reloaded: set once the epoch-opening stop-the-world has completed,
         i.e. from when the §3.2 invariant is established *)
  mutable fault : fault option;
  mutable mixed_gen : bool;
      (* set when this revoker inherited a fork-split address space whose
         PTEs carry two generations (§4.3): the next Reloaded epoch must
         visit every heap page unconditionally, since pages stale from
         before the fork can alias the post-toggle current generation *)
  mutable gate_acquire : Machine.ctx -> unit;
  mutable gate_release : Machine.ctx -> unit;
      (* cross-process revocation scheduler hooks, held around each epoch *)
  mutable epoch_governor : (Machine.ctx -> unit) option;
      (* SLO governor hook: consulted on the revoker thread before the
         cross-process gate is taken; may block to defer the epoch into a
         load trough (lib/service) *)
  mutable sweep_pacer : (Machine.ctx -> visited:int -> int) option;
      (* SLO governor hook: page budget of the next concurrent-sweep
         slice; may block between slices to yield to foreground work *)
  mutable service_threads : Machine.thread list;
      (* the revoker thread + helpers, for exec-time aspace rebinding *)
  (* ---- crash-recovery state ---- *)
  mutable ck_done : int array;
      (* the sweep checkpoint a crashed pass resumes from
         (Reloaded/CHERIoT): heap page [vp] is in it when
         [ck_done.(vp - ck_lo) = ck_stamp], so bumping [ck_stamp] clears
         it *)
  mutable ck_lo : int;
  mutable ck_stamp : int;
  mutable ck_stw_done : bool;
      (* the epoch-opening stop-the-world completed; a resumed attempt
         must not repeat it (the CLG toggle is not idempotent) *)
  mutable sweep_hook : (Machine.ctx -> int -> unit) option;
      (* chaos: consulted at every page visit; may raise [Induced_crash] *)
  mutable on_abort : (Machine.ctx -> unit) option;
      (* the shim clamps its paint-epoch stamps here when an epoch is
         retracted (the counter moved backwards) *)
  mutable consecutive_aborts : int;
  mutable rs : recovery_stats;
}

let strategy t = t.strategy
let pid t = t.pid
let aspace t = t.aspace
let epoch t = t.epoch
let revmap t = t.revmap
let hoards t = t.hoards
let inject_fault t f = t.fault <- f
let injected_fault t = t.fault
let set_on_clean t f = t.on_clean <- Some f
let set_on_abort t f = t.on_abort <- f
let set_sweep_hook t f = t.sweep_hook <- f
let in_flight t = t.in_flight
let currently_revoking t = entry_list t.current

let recovery_stats t = t.rs

(* Wait out a recovery backoff, counting it. *)
let back_off t ctx cycles =
  t.rs <- { t.rs with backoff_cycles = t.rs.backoff_cycles + cycles };
  Machine.sleep ctx cycles

let consecutive_aborts t = t.consecutive_aborts

(* Allocation backpressure: while epochs are aborting, [Mrs.malloc]
   throttles by this many cycles per call instead of letting the
   application outrun a revoker that cannot currently retire quarantine. *)
let backpressure t =
  if t.consecutive_aborts > 0 then t.recovery.malloc_throttle else 0

let sweep_point t ctx vp =
  match t.sweep_hook with None -> () | Some h -> h ctx vp

let queued_entries t = entry_list (List.rev t.queue)
let barrier_armed t = t.barrier_armed
let queued_bytes t = t.queued_bytes
let records t = List.rev t.records
let revocation_count t = t.revocations

let heap_page_range aspace =
  let layout = Vm.Aspace.layout aspace in
  (layout.Layout.heap_base / Phys.page_size, (layout.Layout.heap_limit - 1) / Phys.page_size)

(* The mapped heap pages, ascending: a concurrent phase's page list,
   taken once when the phase begins, so that a page mapped while it runs
   does not join it. *)
let heap_vpages t =
  let lo, hi = heap_page_range t.aspace in
  Pmap.vpages_in (Vm.Aspace.pmap t.aspace) ~lo ~hi

(* The mapped heap pages read off the page table in place, ascending: for
   walks that run with the world stopped or never yield, so that no page
   can be mapped while they run. *)
let iter_heap t f =
  let pmap = Vm.Aspace.pmap t.aspace in
  let lo, hi = heap_page_range t.aspace in
  for vp = lo to hi do
    match Pmap.lookup pmap ~vpage:vp with Some pte -> f vp pte | None -> ()
  done

(* The sweep checkpoint: one stamp per heap page of [aspace]. *)
let ck_table aspace =
  let lo, hi = heap_page_range aspace in
  (lo, Array.make (hi - lo + 1) 0)

let ck_mem t vp = t.ck_done.(vp - t.ck_lo) = t.ck_stamp
let ck_add t vp = t.ck_done.(vp - t.ck_lo) <- t.ck_stamp
let ck_clear t = t.ck_stamp <- t.ck_stamp + 1

(* Fold freshly capability-dirty pages into the visit set. Per §4.5, the
   re-implementation never removes a page from the set once it has held
   capabilities (except Reloaded's clean-page detection, applied at sweep
   time). Clears the hardware bit when [reset] so later stores re-dirty. *)
let update_visit_set t ctx ~reset =
  iter_heap t (fun vp pte ->
      if pte.Pte.cap_dirty then begin
        Hashtbl.replace t.visit_set vp ();
        if reset then begin
          pte.Pte.cap_dirty <- false;
          Machine.charge ctx Cost.pte_update
        end
      end)

let scan_roots t ctx =
  let revoked = ref 0 in
  List.iter
    (fun th ->
      if Machine.thread_pid th = t.pid then
        revoked := !revoked + Sweep.scan_regfile ctx t.revmap (Machine.regs th))
    (Machine.user_threads t.m);
  if t.fault <> Some Skip_hoard_scan then
    revoked := !revoked + Sweep.scan_hoard ctx t.revmap t.hoards;
  !revoked

let sweep_vpage t ctx vp =
  let pmap = Vm.Aspace.pmap t.aspace in
  match Pmap.lookup pmap ~vpage:vp with
  | None -> Sweep.zero_stats
  | Some pte -> Sweep.sweep_page ~non_temporal:t.non_temporal ctx t.revmap ~pte

(* ---- per-page visits (shared between the revoker thread and §7.1's
   helper threads) ---- *)

(* Reloaded: bring one page to the current generation, content-sweeping it
   only if it may hold capabilities. *)
let visit_reloaded t gen ~force ctx vp =
  let pmap = Vm.Aspace.pmap t.aspace in
  match Pmap.lookup pmap ~vpage:vp with
  | None -> (0, 0)
  | Some pte ->
      (* [ck_done] is the epoch's sweep checkpoint: pages a crashed
         attempt already finished (content sweep AND generation update)
         are skipped on resume. For non-forced epochs the generation bit
         alone would skip them; the explicit checkpoint also covers [force]
         (post-fork mixed-generation) epochs and gives the resume trace
         assertion a single mechanism. *)
      if (pte.Pte.clg <> gen || force) && not (ck_mem t vp) then begin
        sweep_point t ctx vp;
        let pages, revoked =
          if Hashtbl.mem t.visit_set vp then begin
            let st = Sweep.sweep_page ~non_temporal:t.non_temporal ctx t.revmap ~pte in
            (* clean-page detection: a swept page with no capabilities left
               need not be content-swept next epoch *)
            if st.Sweep.tagged = 0 && not pte.Pte.cap_dirty then
              Hashtbl.remove t.visit_set vp;
            (1, st.Sweep.revoked)
          end
          else (0, 0)
        in
        Machine.with_pmap_lock ctx (fun () ->
            if pte.Pte.clg <> gen then begin
              pte.Pte.clg <- gen;
              Machine.charge ctx Cost.pte_update
            end);
        ck_add t vp;
        (pages, revoked)
      end
      else (0, 0)

(* CHERIoT: the load filter guarantees stale capabilities cannot be
   propagated, so a single idempotent content sweep per epoch suffices —
   no generations, no re-scan. Resume-safe like Reloaded: the filter is
   always armed, so a crashed pass restarts from [ck_done]. *)
let visit_cheriot t ctx vp =
  if Hashtbl.mem t.visit_set vp && not (ck_mem t vp) then begin
    sweep_point t ctx vp;
    let st = sweep_vpage t ctx vp in
    ck_add t vp;
    (1, st.Sweep.revoked)
  end
  else (0, 0)

(* Cornucopia's page step, in its concurrent phase ([locked]: under the
   pmap lock) and in its stop-the-world re-sweep: clear cap-dirty so later
   stores re-dirty the page, shoot the clear down to every TLB (stopped
   threads resume with cached PTE copies, and a stale cap-dirty=1 entry
   would let their next capability store skip re-dirtying the page), then
   content-sweep it. Returns the capabilities revoked. *)
let clear_shoot_sweep t ctx ~locked vp pte =
  let clear () =
    if pte.Pte.cap_dirty then begin
      pte.Pte.cap_dirty <- false;
      Machine.charge ctx Cost.pte_update
    end
  in
  if locked then Machine.with_pmap_lock ctx clear else clear ();
  if t.fault <> Some Skip_shootdown then
    Machine.tlb_shootdown ~asid:(Vm.Aspace.asid t.aspace) ctx ~vpages:[ vp ];
  (Sweep.sweep_page ~non_temporal:t.non_temporal ctx t.revmap ~pte).Sweep.revoked

(* The one page walk, on whichever thread [ctx] is: a safe point before
   each page, then [visit]. Returns the summed (pages, revoked). *)
let walk ctx pages ~visit =
  let p = ref 0 and r = ref 0 in
  List.iter
    (fun vp ->
      Machine.safe_point ctx;
      let dp, dr = visit ctx vp in
      p := !p + dp;
      r := !r + dr)
    pages;
  (!p, !r)

(* ---- helper threads (§7.1 concurrent background revocation) ---- *)

let helper_body t h ctx =
  let rec loop () =
    while Option.is_none h.h_share && not t.shutdown do
      Machine.wait ctx h.h_work_cv
    done;
    match h.h_share with
    | None -> () (* shutdown *)
    | Some (pages, visit) ->
        (* an induced crash must not kill the helper thread itself — it
           records the failure and goes back to idle so the coordinator
           can notice, abort the pass, and re-dispatch the retry *)
        h.h_sum <- (try Some (walk ctx pages ~visit) with Induced_crash -> None);
        h.h_share <- None;
        Machine.broadcast ctx h.h_done_cv;
        loop ()
  in
  loop ()

(* The first [n] pages of [pages], and the rest. *)
let rec split_at n pages =
  match pages with
  | vp :: tl when n > 0 ->
      let slice, rest = split_at (n - 1) tl in
      (vp :: slice, rest)
  | _ -> ([], pages)

(* Visit [pages] on the calling (revoker) thread. With a sweep pacer
   installed the walk is sliced into governor-granted quanta: before each
   slice the pacer may block (sleeping the revoker thread) to push the
   slice into a load trough, then returns the next slice's page budget,
   clamped to >= 1 so a sweep always makes progress and an epoch can
   never be paced to a standstill. *)
let seq_visit t ctx pages ~visit =
  match t.sweep_pacer with
  | None -> walk ctx pages ~visit
  | Some pacer ->
      let rec slices pages visited (p, r) =
        match pages with
        | [] -> (p, r)
        | _ ->
            let slice, rest = split_at (max 1 (pacer ctx ~visited)) pages in
            let dp, dr = walk ctx slice ~visit in
            slices rest (visited + List.length slice) (p + dp, r + dr)
      in
      slices pages 0 (0, 0)

(* Partition [pages] round-robin over helpers, run the main thread's share
   inline, and wait for every helper to drain. With a sweep pacer armed
   the whole walk stays on the revoker thread instead — helpers cannot
   honour a per-slice budget, and a governed serving machine wants the
   sweep confined to one core anyway. *)
let fan_out t ctx ~pages ~visit =
  match t.helpers, t.sweep_pacer with
  | [], _ | _, Some _ -> seq_visit t ctx pages ~visit
  | helpers, None ->
      let k = List.length helpers + 1 in
      let shares = Array.make k [] in
      List.iteri (fun i vp -> shares.(i mod k) <- vp :: shares.(i mod k)) pages;
      List.iteri
        (fun i h ->
          h.h_share <- Some (shares.(i + 1), visit);
          Machine.broadcast ctx h.h_work_cv)
        helpers;
      let mine = try Some (walk ctx shares.(0) ~visit) with Induced_crash -> None in
      (* drain every helper even when crashing, so the retry never
         dispatches onto a helper still chewing the aborted pass *)
      List.iter
        (fun h ->
          while Option.is_some h.h_share do
            Machine.wait ctx h.h_done_cv
          done)
        helpers;
      let add sum h =
        match (sum, h.h_sum) with
        | Some (p, r), Some (hp, hr) -> Some (p + hp, r + hr)
        | _ -> None
      in
      match List.fold_left add mine helpers with
      | Some sum -> sum
      | None -> raise Induced_crash

(* ---- strategy bodies: each runs one revocation epoch ---- *)

type epoch_outcome = {
  o_stw : int;
  o_conc : int;
  o_pages : int;
  o_revoked : int;
}

(* Watchdogged stop-the-world: arm [Machine.stop_the_world]'s deadline
   with the recovery timeout; on [Quiesce_timeout] back off exponentially
   and retry, and after the retry budget raise [Epoch_aborted] so the
   epoch is retracted rather than wedging the revoker forever behind one
   stuck thread. Returns the stop-the-world's duration, from request to
   release. *)
let quiesce t ctx f =
  let r = t.recovery in
  let timeout = if r.watchdog_timeout > 0 then Some r.watchdog_timeout else None in
  let rec go attempt =
    match Machine.stop_the_world ctx ~scope:[ t.pid ] ?timeout f with
    | (), rep -> rep.Machine.released_at - rep.Machine.requested_at
    | exception Machine.Quiesce_timeout _ ->
        t.rs <- { t.rs with quiesce_timeouts = t.rs.quiesce_timeouts + 1 };
        if attempt >= r.max_quiesce_retries then raise Epoch_aborted
        else begin
          back_off t ctx (r.backoff_base * (1 lsl attempt));
          go (attempt + 1)
        end
  in
  go 0

(* The epoch-opening stop-the-world of the strategies whose barrier stays
   armed across a crash (Reloaded, CHERIoT). A resumed attempt whose first
   pass already completed it must NOT repeat it: Reloaded's CLG toggle is
   not idempotent (toggling again would flip "stale" back to "current"
   and un-revoke everything the barrier still has to heal), and the
   barrier has been armed since the first toggle, so the resumed attempt
   skips straight to the background sweep. *)
let stw_once t ctx f =
  if t.ck_stw_done then 0
  else begin
    let stopped = quiesce t ctx f in
    t.ck_stw_done <- true;
    stopped
  end

(* Graceful degradation: move one rung down [downshift_of]'s ladder.
   Deliberately does NOT unregister the old barrier — the CLG handler
   (resp. load filter) keeps healing pages left at a stale generation by
   the abandoned strategy and simply goes quiet once none remain, whereas
   tearing it down would leave those pages faulting with no handler. *)
let downshift t ctx =
  match downshift_of t.strategy with
  | None -> false
  | Some s ->
      Machine.trace_emit t.m ~time:(Machine.now ctx) ~core:t.core ~pid:t.pid
        ~arg2:(strategy_code s) Sim.Trace.Strategy_downshift
        (strategy_code t.strategy);
      t.strategy <- s;
      t.rs <- { t.rs with downshifts = t.rs.downshifts + 1 };
      t.consecutive_aborts <- 0;
      true

let run_cherivoke t ctx =
  let pages = ref 0 and revoked = ref 0 in
  let stw =
    quiesce t ctx (fun () ->
        update_visit_set t ctx ~reset:true;
        revoked := scan_roots t ctx;
        Hashtbl.iter
          (fun vp () ->
            sweep_point t ctx vp;
            let st = sweep_vpage t ctx vp in
            incr pages;
            revoked := !revoked + st.Sweep.revoked)
          t.visit_set)
  in
  { o_stw = stw; o_conc = 0; o_pages = !pages; o_revoked = !revoked }

let run_cornucopia t ctx =
  let pmap = Vm.Aspace.pmap t.aspace in
  (* concurrent phase: sweep every page that has ever held capabilities,
     clearing its dirty bit first so stores during the sweep re-dirty it *)
  let t0 = Machine.now ctx in
  update_visit_set t ctx ~reset:false;
  let targets = List.filter (Hashtbl.mem t.visit_set) (heap_vpages t) in
  let visit ctx vp =
    match Pmap.lookup pmap ~vpage:vp with
    | None -> (0, 0)
    | Some pte ->
        sweep_point t ctx vp;
        (1, clear_shoot_sweep t ctx ~locked:true vp pte)
  in
  let swept, swept_revoked = seq_visit t ctx targets ~visit in
  let conc = Machine.now ctx - t0 in
  let pages = ref swept and revoked = ref swept_revoked in
  (* stop-the-world phase: roots, then pages re-dirtied during the sweep *)
  let stw =
    quiesce t ctx (fun () ->
        revoked := !revoked + scan_roots t ctx;
        iter_heap t (fun vp pte ->
            if pte.Pte.cap_dirty then begin
              sweep_point t ctx vp;
              (* a page first capability-dirtied during the concurrent
                 phase has never entered the visit set; record it or the
                 NEXT epoch will skip it while it still holds
                 capabilities swept only up to this epoch's quarantine
                 (§4.5's never-forget discipline) *)
              Hashtbl.replace t.visit_set vp ();
              revoked := !revoked + clear_shoot_sweep t ctx ~locked:false vp pte;
              incr pages
            end))
  in
  { o_stw = stw; o_conc = conc; o_pages = !pages; o_revoked = !revoked }

let run_reloaded t ctx =
  let pmap = Vm.Aspace.pmap t.aspace in
  let root_revoked = ref 0 in
  (* stop-the-world: toggle generations, scan registers and hoards; no
     PTE is touched (§4.1) — unless the §4.1 ablation of a per-PTE barrier
     flag is enabled, in which case every PTE is updated with the world
     stopped, which is exactly what the generation scheme avoids. *)
  let o_stw =
    stw_once t ctx (fun () ->
        Machine.toggle_clg ctx;
        update_visit_set t ctx ~reset:true;
        root_revoked := scan_roots t ctx;
        if t.pte_flag_barrier then begin
          let pages = heap_vpages t in
          List.iter (fun _ -> Machine.charge ctx Cost.pte_update) pages;
          Machine.tlb_shootdown ~asid:(Vm.Aspace.asid t.aspace) ctx ~vpages:pages
        end)
  in
  t.barrier_armed <- true;
  (* background phase: visit every heap page still at the old generation;
     content-sweep only pages that may hold capabilities. The application
     races us via its load-barrier faults; page visits are idempotent. *)
  let gen = Pmap.generation pmap in
  let force = t.mixed_gen in
  let t0 = Machine.now ctx in
  let pages, revoked =
    fan_out t ctx ~pages:(heap_vpages t) ~visit:(visit_reloaded t gen ~force)
  in
  t.mixed_gen <- false;
  {
    o_stw;
    o_conc = Machine.now ctx - t0;
    o_pages = pages;
    o_revoked = revoked + !root_revoked;
  }

let run_cheriot t ctx =
  (* No load generations: the per-load filter already blocks stale
     capabilities. A short stop-the-world scans registers and hoards
     (stores of register-held stale capabilities are not filtered), then
     one concurrent content sweep erases them from memory. The root scan
     is not repeated on resume: the filter blocks any load of a stale
     capability, so registers cannot have re-acquired one since the
     completed scan. *)
  let root_revoked = ref 0 in
  let o_stw =
    stw_once t ctx (fun () ->
        update_visit_set t ctx ~reset:true;
        root_revoked := scan_roots t ctx)
  in
  let t0 = Machine.now ctx in
  let targets = List.filter (Hashtbl.mem t.visit_set) (heap_vpages t) in
  let pages, revoked = fan_out t ctx ~pages:targets ~visit:(visit_cheriot t) in
  {
    o_stw;
    o_conc = Machine.now ctx - t0;
    o_pages = pages;
    o_revoked = revoked + !root_revoked;
  }

let run_paint_sync _t _ctx = { o_stw = 0; o_conc = 0; o_pages = 0; o_revoked = 0 }

(* The Reloaded load-barrier fault handler, executed by the faulting
   (application) thread. The machine has already charged trap entry and
   the fixed software cost. Mirrors §4.3: lock the pmap to detect a stale
   TLB; sweep without locks held; re-lock to update the PTE idempotently. *)
let clg_fault_handler t ctx ~vaddr pte =
  let t0 = Machine.now ctx in
  let pmap = Vm.Aspace.pmap t.aspace in
  let gen = Pmap.generation pmap in
  let vp = vaddr / Phys.page_size in
  let stale = Machine.with_pmap_lock ctx (fun () -> pte.Pte.clg = gen) in
  if not stale then begin
    if Hashtbl.mem t.visit_set vp then
      ignore (Sweep.sweep_page ctx t.revmap ~pte);
    Machine.with_pmap_lock ctx (fun () ->
        if pte.Pte.clg <> gen then begin
          pte.Pte.clg <- gen;
          Machine.charge ctx Cost.pte_update
        end)
  end;
  t.fault_cycles <-
    t.fault_cycles + (Machine.now ctx - t0) + Cost.trap + Cost.clg_fault_fixed;
  t.fault_count <- t.fault_count + 1

(* ---- the revoker thread ---- *)

let run_epoch t ctx batches =
  let bytes = List.fold_left (fun acc b -> acc + b.bytes) 0 batches in
  t.in_flight <- true;
  t.current <- batches;
  t.fault_cycles <- 0;
  t.fault_count <- 0;
  let requested_at = Machine.now ctx in
  (match Machine.tracer t.m with
  | Some tr ->
      Sim.Trace.emit tr ~time:requested_at ~core:t.core ~pid:t.pid
        Sim.Trace.Epoch_begin
        (Epoch.counter t.epoch);
      Sim.Trace.emit tr ~time:requested_at ~core:t.core ~pid:t.pid
        Sim.Trace.Revoke_batch bytes
  | None -> ());
  Epoch.begin_revocation t.epoch ctx;
  let idx = Epoch.counter t.epoch in
  let delivered = ref false in
  let deliver () =
    if not !delivered then begin
      delivered := true;
      List.iter
        (fun b ->
          let e = b.entries in
          for i = 0 to (Array.length e / 2) - 1 do
            Machine.trace_emit t.m ~time:(Machine.now ctx) ~core:t.core
              ~pid:t.pid ~arg2:e.((2 * i) + 1) Sim.Trace.Quarantine_deq e.(2 * i)
          done;
          match t.on_clean with None -> () | Some f -> f ctx b)
        batches
    end
  in
  (* mutation hook: hand the quarantine back before the sweep has run *)
  if t.fault = Some Early_dequarantine then deliver ();
  ck_clear t;
  t.ck_stw_done <- false;
  (* Run the strategy body, retrying after induced sweep crashes from the
     [ck_done] checkpoint. Strategies with an always-armed barrier
     (Reloaded, CHERIoT) resume where the crashed pass left off; the
     barrier-less sweepers must restart their whole pass, because a page
     swept before the crash can have been re-polluted with stale
     capabilities while the world was running afterwards. Returns [None]
     when the epoch must be aborted. *)
  let rec attempt n =
    match
      match t.strategy with
      | Paint_sync -> run_paint_sync t ctx
      | Cherivoke -> run_cherivoke t ctx
      | Cornucopia -> run_cornucopia t ctx
      | Reloaded -> run_reloaded t ctx
      | Cheriot_filter -> run_cheriot t ctx
    with
    | o -> Some o
    | exception Induced_crash ->
        t.rs <- { t.rs with sweep_crash_retries = t.rs.sweep_crash_retries + 1 };
        if n >= t.recovery.max_crash_retries then None
        else begin
          (match t.strategy with
          | Cherivoke | Cornucopia | Paint_sync ->
              ck_clear t;
              t.ck_stw_done <- false
          | Reloaded | Cheriot_filter -> ());
          t.rs <- { t.rs with epoch_resumes = t.rs.epoch_resumes + 1 };
          Machine.trace_emit t.m ~time:(Machine.now ctx) ~core:t.core
            ~pid:t.pid ~arg2:(n + 1) Sim.Trace.Epoch_resume
            (Epoch.counter t.epoch);
          back_off t ctx (t.recovery.backoff_base * (1 lsl min n 6));
          attempt (n + 1)
        end
    | exception Epoch_aborted -> None
  in
  match attempt 0 with
  | Some o ->
      Epoch.end_revocation t.epoch ctx;
      (match Machine.tracer t.m with
      | Some tr ->
          Sim.Trace.emit tr ~time:(Machine.now ctx) ~core:t.core ~pid:t.pid
            Sim.Trace.Epoch_end
            (Epoch.counter t.epoch)
      | None -> ());
      t.barrier_armed <- false;
      t.consecutive_aborts <- 0;
      t.revocations <- t.revocations + 1;
      t.records <-
        {
          epoch_index = idx;
          requested_at;
          stw_cycles = o.o_stw;
          concurrent_cycles = o.o_conc;
          fault_cycles = t.fault_cycles;
          fault_count = t.fault_count;
          pages_visited = o.o_pages;
          caps_revoked = o.o_revoked;
          bytes_processed = bytes;
        }
        :: t.records;
      (* a CLG fault storm this epoch means the load barrier itself is
         costing more than the pauses it avoids: downshift *)
      if t.fault_count > t.recovery.clg_storm_threshold then
        ignore (downshift t ctx);
      (* the batches processed by this epoch are now clean: dequarantine *)
      deliver ();
      t.current <- [];
      t.in_flight <- false
  | None ->
      (* Abort: retract the epoch counter (sound — it only under-promises)
         and put the unswept batches back at the head of the queue for the
         retried epoch. Nothing is delivered. *)
      t.rs <- { t.rs with epoch_aborts = t.rs.epoch_aborts + 1 };
      t.consecutive_aborts <- t.consecutive_aborts + 1;
      Epoch.abort_revocation t.epoch ctx;
      (match t.on_abort with Some f -> f ctx | None -> ());
      Machine.trace_emit t.m ~time:(Machine.now ctx) ~core:t.core ~pid:t.pid
        ~arg2:t.consecutive_aborts Sim.Trace.Epoch_abort
        (Epoch.counter t.epoch);
      t.barrier_armed <- false;
      (* If the aborted epoch already toggled the CLG (Reloaded), the heap
         now mixes two generations and the NEXT epoch's toggle would make
         today's unswept stale pages look current. [mixed_gen] arms the
         same one-shot force-visit-all that makes post-fork epochs sound. *)
      if t.ck_stw_done && t.strategy = Reloaded then t.mixed_gen <- true;
      (* t.queue is newest-first; the aborted batches are the oldest work,
         so they belong at the tail *)
      t.queue <- t.queue @ List.rev batches;
      t.queued_bytes <- t.queued_bytes + bytes;
      t.current <- [];
      t.in_flight <- false;
      if t.consecutive_aborts >= t.recovery.max_epoch_aborts then
        ignore (downshift t ctx);
      back_off t ctx (t.recovery.backoff_base * (1 lsl min t.consecutive_aborts 6))

let thread_body t ctx =
  let rec loop () =
    while t.queue = [] && not t.shutdown do
      Machine.wait ctx t.work_cv
    done;
    match t.queue with
    | [] ->
        (* shutdown: wake the helpers so they see it and the machine can
           terminate *)
        List.iter (fun h -> Machine.broadcast ctx h.h_work_cv) t.helpers
    | _ ->
        (* SLO governance: an installed epoch governor may defer the epoch
           into a load trough before we contend for the cross-process
           token. Runs BEFORE gate_acquire (never hold the token while
           deliberately idle), and the queue is re-read after it returns,
           so batches that accumulate during deferral join this epoch. *)
        (match t.epoch_governor with Some g -> g ctx | None -> ());
        (* Cross-process arbitration: epochs of different processes are
           serialised by the global revocation scheduler when one is
           installed; the default gates are no-ops. *)
        t.gate_acquire ctx;
        let batches = List.rev t.queue in
        t.queue <- [];
        t.queued_bytes <- 0;
        Fun.protect
          ~finally:(fun () -> t.gate_release ctx)
          (fun () -> run_epoch t ctx batches);
        loop ()
  in
  loop ()

let enqueue t ctx batch =
  let e = batch.entries in
  for i = 0 to (Array.length e / 2) - 1 do
    Machine.trace_emit t.m ~time:(Machine.now ctx) ~core:(Machine.core_id ctx)
      ~pid:t.pid ~arg2:e.((2 * i) + 1) Sim.Trace.Quarantine_enq e.(2 * i)
  done;
  t.queue <- batch :: t.queue;
  t.queued_bytes <- t.queued_bytes + batch.bytes;
  Machine.broadcast ctx t.work_cv

let request_shutdown t ctx =
  t.shutdown <- true;
  Machine.broadcast ctx t.work_cv

let set_epoch_gate t ~acquire ~release =
  t.gate_acquire <- acquire;
  t.gate_release <- release

let set_epoch_governor t f = t.epoch_governor <- f
let set_sweep_pacer t f = t.sweep_pacer <- f

(* Fork (§4.3): the child's revoker starts from the parent's sweep state —
   the visit set (pages that have ever held capabilities; the child's CoW
   copies hold the same ones) and the painted-bit population of the
   inherited shadow bitmap. [mixed_gen] arms the one-shot full visit that
   makes the child's first Reloaded epoch sound across the two inherited
   generations. *)
let inherit_from t ~parent =
  Hashtbl.iter (fun vp () -> Hashtbl.replace t.visit_set vp ()) parent.visit_set;
  Revmap.seed_bits t.revmap (Revmap.set_bits parent.revmap);
  t.mixed_gen <- true

let register_barrier t =
  let m = t.m in
  let asid = Vm.Aspace.asid t.aspace in
  match t.strategy with
  | Reloaded -> Machine.set_clg_fault_handler m ~asid (Some (clg_fault_handler t))
  | Cheriot_filter ->
      Machine.set_cap_load_filter m ~asid
        (Some
           (fun fctx c ->
             (* pipelined tightly-coupled bitmap probe: one cycle *)
             Machine.charge fctx 1;
             if Revmap.test_host t.revmap (Capability.base c) then
               Capability.clear_tag c
             else c))
  | Paint_sync | Cherivoke | Cornucopia -> ()

(* Unconditional: [t.strategy] may have downshifted since the barrier was
   registered, so matching on it here would leak the old registration. *)
let unregister_barrier t =
  let asid = Vm.Aspace.asid t.aspace in
  Machine.set_clg_fault_handler t.m ~asid None;
  Machine.set_cap_load_filter t.m ~asid None

(* Exec: the process replaced its image. The quarantine must already have
   been drained; the revoker keeps its epoch counter but forgets the old
   space entirely and re-arms its barrier under the new asid. *)
let rebind t ~aspace =
  unregister_barrier t;
  t.aspace <- aspace;
  let lo, ck = ck_table aspace in
  t.ck_lo <- lo;
  t.ck_done <- ck;
  Revmap.rebind t.revmap ~aspace;
  Hashtbl.reset t.visit_set;
  t.mixed_gen <- false;
  t.barrier_armed <- false;
  List.iter (fun th -> Machine.assign_aspace th aspace) t.service_threads;
  register_barrier t

(* §7.1 helper threads take these cores in turn: the two left idle when
   the revoker runs on core 2 and the application on core 3. *)
let helper_cores = [ 1; 0 ]

let create m ~strategy ~core ?(non_temporal = false) ?(background_threads = 1)
    ?(pte_flag_barrier = false) ?(recovery = default_recovery) ?hoards ?aspace
    ?(pid = 0) () =
  let hoards = match hoards with Some h -> h | None -> Kernel.Hoard.create () in
  let aspace = match aspace with Some a -> a | None -> Machine.aspace m in
  let ck_lo, ck_done = ck_table aspace in
  let t =
    {
      m;
      aspace;
      pid;
      strategy;
      recovery;
      core;
      non_temporal;
      pte_flag_barrier;
      revmap = Revmap.create ~aspace m;
      epoch = Epoch.create ();
      hoards;
      work_cv = Machine.condvar ();
      visit_set = Hashtbl.create 1024;
      helpers = [];
      queue = [];
      queued_bytes = 0;
      in_flight = false;
      shutdown = false;
      records = [];
      on_clean = None;
      fault_cycles = 0;
      fault_count = 0;
      revocations = 0;
      current = [];
      barrier_armed = false;
      fault = None;
      mixed_gen = false;
      gate_acquire = (fun _ -> ());
      gate_release = (fun _ -> ());
      epoch_governor = None;
      sweep_pacer = None;
      service_threads = [];
      ck_done;
      ck_lo;
      ck_stamp = 1;
      ck_stw_done = false;
      sweep_hook = None;
      on_abort = None;
      consecutive_aborts = 0;
      rs = zero_recovery_stats;
    }
  in
  register_barrier t;
  (* §7.1: optional helper threads share the background sweep *)
  if background_threads > 1 then begin
    let helpers =
      List.init (background_threads - 1) (fun i ->
          {
            h_core = List.nth helper_cores (i mod List.length helper_cores);
            h_work_cv = Machine.condvar ();
            h_done_cv = Machine.condvar ();
            h_share = None;
            h_sum = None;
          })
    in
    t.helpers <- helpers;
    List.iteri
      (fun i h ->
        let th =
          Machine.spawn m
            ~name:(Printf.sprintf "revoker-helper-%d.%d" pid i)
            ~core:h.h_core ~user:false ~pid ~aspace (helper_body t h)
        in
        t.service_threads <- th :: t.service_threads)
      helpers
  end;
  let th =
    Machine.spawn m
      ~name:(Printf.sprintf "revoker-%s.%d" (strategy_name strategy) pid)
      ~core ~user:false ~pid ~aspace (thread_body t)
  in
  t.service_threads <- th :: t.service_threads;
  t
