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

   The batched kernel reads the page's packed tag bitmap 32 granules per
   call, as an immediate int ([Tagmem.Mem.tag_bits]), and charges each
   run of untagged granules between two tagged ones with one cost-model
   call ([Machine.kern_read_untagged_run]), however many lines it
   spans; only tagged granules probe the revocation map, and they do it
   on the words memory stores ([Tagmem.Mem.cap_word]), so the kernel
   builds no capability. Probing is the only thing in the loop that can yield
   (at [Revmap.test]'s safe point, after which the application may have
   written this very page), so the tag bits are re-read after every
   probe and the per-granule loop, which reads each tag as it reaches it,
   would see exactly the same tags.

   The per-granule loop remains the reference, and stays in use whenever
   a chaos tag-read hook is armed: the hook must be consulted on every
   granule read, which the batched path deliberately skips. *)

(* A read-only page that turns out to need revocation: invoke the full
   fault machinery to upgrade it to writable (§4.3). *)
let upgrade_once ctx ~pte ~upgraded =
  if (not pte.Pte.writable) && not !upgraded then begin
    Machine.charge ctx (Cost.trap + Cost.pmap_lock + Cost.pte_update);
    upgraded := true
  end

(* The revocation is a compare-and-clear, as the kernel's revoker does
   it: [Revmap.test] can yield at a safe point, and an application thread
   may meanwhile have stored another capability to this granule. The tag
   is cleared only if the granule still holds the probed capability [c];
   otherwise the value now there is probed in its place. A failed compare
   costs the one cache write the clear costs. *)
let rec probe_tagged ctx revmap ~pte ~pa c ~upgraded =
  if Revmap.test revmap ctx c.Capability.base then begin
    upgrade_once ctx ~pte ~upgraded;
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

(* [probe_tagged] on the words the tagged granule at [pa] stores, read
   before the probe can yield: the base comes from them, and the compare
   is on the two capability words and the address, which agree exactly
   when the two capabilities are [Capability.equal]. *)
let rec probe_words ctx mem revmap ~pte ~pa ~upgraded =
  let w0 = Tagmem.Mem.cap_word mem pa 0
  and w1 = Tagmem.Mem.cap_word mem pa 1
  and addr = Tagmem.Mem.cap_addr mem pa in
  if Revmap.test revmap ctx (Tagmem.Mem.cap_base mem pa) then begin
    upgrade_once ctx ~pte ~upgraded;
    if not (Tagmem.Mem.read_tag mem pa) then begin
      Machine.kern_access ctx ~pa ~write:true;
      false
    end
    else if
      Tagmem.Mem.cap_word mem pa 0 = w0
      && Tagmem.Mem.cap_word mem pa 1 = w1
      && Tagmem.Mem.cap_addr mem pa = addr
    then begin
      Machine.kern_clear_tag ctx ~pa;
      true
    end
    else begin
      Machine.kern_access ctx ~pa ~write:true;
      probe_words ctx mem revmap ~pte ~pa ~upgraded
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

let chunk = 32 (* granules per [Tagmem.Mem.tag_bits] read *)

(* Charge the untagged granules [from, stop). *)
let charge_untagged ctx ~non_temporal ~from ~stop =
  if stop > from then
    Machine.kern_read_untagged_run ctx ~non_temporal ~pa:from
      ~count:((stop - from) / granule)

let sweep_page_batched ~non_temporal ctx revmap ~pte ~base ~n ~tagged ~revoked
    ~upgraded =
  let mem = Machine.mem (Machine.machine ctx) in
  (* [run] is the first granule of the untagged run not yet charged *)
  let run = ref base in
  for k = 0 to (n / chunk) - 1 do
    let chunk_pa = base + (k * chunk * granule) in
    let bits = ref (Tagmem.Mem.tag_bits mem chunk_pa) in
    let g = ref 0 in
    (* while a tagged granule remains at or after [g] *)
    while !bits lsr !g <> 0 do
      if !bits land (1 lsl !g) = 0 then incr g
      else begin
        let pa = chunk_pa + (!g * granule) in
        charge_untagged ctx ~non_temporal ~from:!run ~stop:pa;
        Machine.kern_read_tagged ctx ~non_temporal ~pa;
        incr tagged;
        if probe_words ctx mem revmap ~pte ~pa ~upgraded then incr revoked;
        bits := Tagmem.Mem.tag_bits mem chunk_pa;
        incr g;
        run := pa + granule
      end
    done
  done;
  charge_untagged ctx ~non_temporal ~from:!run ~stop:(base + (n * granule))

let sweep_page ?(non_temporal = false) ctx revmap ~pte =
  let base = Phys.frame_addr pte.Pte.frame in
  let tagged = ref 0 and revoked = ref 0 and upgraded = ref false in
  let n = Phys.page_size / granule in
  let body =
    if Machine.tag_hook_armed (Machine.machine ctx) then sweep_page_granular
    else sweep_page_batched
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
