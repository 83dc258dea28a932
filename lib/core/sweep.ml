module Capability = Cheri.Capability
module Machine = Sim.Machine
module Cost = Sim.Cost
module Phys = Vm.Phys
module Pte = Vm.Pte

type stats = { granules : int; tagged : int; revoked : int; upgraded : bool }

let zero_stats = { granules = 0; tagged = 0; revoked = 0; upgraded = false }

let granule = Tagmem.Mem.granule

(* The revoker's hot loop. Two implementations with an exact-equivalence
   contract (enforced by test/test_sweepkernel.ml): every cycle charged,
   bus transaction, cache-state transition and trace event must be
   identical between them.

   The word-scan fast path reads the page's packed tag bitmap 64
   granules per [Int64] load and batches the cost model over untagged
   cache lines ([Machine.kern_read_untagged_run]); only tagged granules
   materialise a capability and probe the revocation map. Probing can
   yield at a safe point (the application may then write this very
   page), so the cached tag word is refreshed after every probe — the
   per-granule loop re-reads the tag at each visit, and bit-exact
   equivalence includes those racy windows.

   The per-granule loop remains the reference, and stays in use whenever
   a chaos tag-read hook is armed: the hook must be consulted on every
   granule read, which the batched path deliberately skips. *)

(* The revocation is a compare-and-clear, as the kernel's revoker does
   it: [Revmap.test] can yield at a safe point, and an application thread
   may meanwhile have stored another capability to this granule. The tag
   is cleared only if the granule still holds the probed capability [c];
   otherwise the value now there is probed in its place. A failed compare
   costs the one cache write the clear costs. *)
let rec probe_tagged ctx revmap ~pte ~pa c ~upgraded =
  if Revmap.test revmap ctx (Capability.base c) then begin
    if (not pte.Pte.writable) && not !upgraded then begin
      (* read-only page that turns out to need revocation: invoke the
         full fault machinery to upgrade it to writable (§4.3) *)
      Machine.charge ctx (Cost.trap + Cost.pmap_lock + Cost.pte_update);
      upgraded := true
    end;
    let mem = Machine.mem (Machine.machine ctx) in
    if not (Tagmem.Mem.read_tag mem pa) then begin
      Machine.kern_access ctx ~pa ~write:true;
      false
    end
    else begin
      let now = Tagmem.Mem.read_cap mem pa in
      if Capability.equal now c then begin
        Machine.kern_clear_tag ctx ~pa;
        true
      end
      else begin
        Machine.kern_access ctx ~pa ~write:true;
        probe_tagged ctx revmap ~pte ~pa now ~upgraded
      end
    end
  end
  else false

let sweep_page_granular ~non_temporal ctx revmap ~pte ~base ~n ~tagged ~revoked
    ~upgraded =
  let read =
    if non_temporal then Machine.kern_read_cap_nt else Machine.kern_read_cap_stream
  in
  for i = 0 to n - 1 do
    let pa = base + (i * granule) in
    let c = read ctx ~pa in
    if Capability.tag c then begin
      incr tagged;
      if probe_tagged ctx revmap ~pte ~pa c ~upgraded then incr revoked
    end
  done

let word_granules = 64

let sweep_page_wordscan ~non_temporal ctx revmap ~pte ~base ~n ~tagged ~revoked
    ~upgraded =
  let m = Machine.machine ctx in
  let mem = Machine.mem m in
  let read =
    if non_temporal then Machine.kern_read_cap_nt else Machine.kern_read_cap_stream
  in
  let gpl = Tagmem.Cache.line_size / granule in
  let line_mask = Int64.of_int ((1 lsl gpl) - 1) in
  for w = 0 to (n / word_granules) - 1 do
    let word_pa = base + (w * word_granules * granule) in
    (* refreshed after every probe: Revmap.test can yield, and a resumed
       application thread may have re-written granules we haven't
       visited yet *)
    let word = ref (Tagmem.Mem.tag_word mem word_pa) in
    for l = 0 to (word_granules / gpl) - 1 do
      let line_pa = word_pa + (l * gpl * granule) in
      let bits =
        Int64.logand (Int64.shift_right_logical !word (l * gpl)) line_mask
      in
      if Int64.equal bits 0L then
        (* all-untagged line: one batched charge for the whole line *)
        Machine.kern_read_untagged_run ~non_temporal ctx ~pa:line_pa ~count:gpl
      else
        for g = 0 to gpl - 1 do
          let pa = line_pa + (g * granule) in
          let bit = Int64.shift_left 1L ((l * gpl) + g) in
          if Int64.equal (Int64.logand !word bit) 0L then
            Machine.kern_read_untagged_run ~non_temporal ctx ~pa ~count:1
          else begin
            let c = read ctx ~pa in
            incr tagged;
            if probe_tagged ctx revmap ~pte ~pa c ~upgraded then incr revoked;
            word := Tagmem.Mem.tag_word mem word_pa
          end
        done
    done
  done

let sweep_page ?(non_temporal = false) ctx revmap ~pte =
  let base = Phys.frame_addr pte.Pte.frame in
  let tagged = ref 0 and revoked = ref 0 and upgraded = ref false in
  let n = Phys.page_size / granule in
  let body =
    if Machine.tag_hook_armed (Machine.machine ctx) then sweep_page_granular
    else sweep_page_wordscan
  in
  body ~non_temporal ctx revmap ~pte ~base ~n ~tagged ~revoked ~upgraded;
  Machine.trace_emit (Machine.machine ctx) ~time:(Machine.now ctx)
    ~core:(Machine.core_id ctx) ~pid:(Machine.ctx_pid ctx) ~arg2:!revoked
    Sim.Trace.Page_sweep base;
  { granules = n; tagged = !tagged; revoked = !revoked; upgraded = !upgraded }

let scan_regfile ctx revmap regs =
  let revoked = ref 0 in
  ignore
    (Sim.Regfile.map_tagged regs (fun c ->
         Machine.charge ctx Cost.alu;
         let c' = Revmap.revoke_cap revmap ctx c in
         if not (Capability.tag c') then incr revoked;
         c'));
  !revoked

let scan_hoard ctx revmap hoard =
  let revoked = ref 0 in
  let n =
    Kernel.Hoard.scan hoard ~f:(fun c ->
        let c' = Revmap.revoke_cap revmap ctx c in
        if Capability.tag c && not (Capability.tag c') then incr revoked;
        c')
  in
  Machine.charge ctx (n * Cost.alu);
  Machine.trace_emit (Machine.machine ctx) ~time:(Machine.now ctx)
    ~core:(Machine.core_id ctx) ~pid:(Machine.ctx_pid ctx) ~arg2:!revoked
    Sim.Trace.Hoard_scan n;
  !revoked
