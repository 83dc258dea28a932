(* lib/tenant tests: exact-fit quota charges, physical exhaustion under
   each over-commit policy, free_all semantics (including racing a
   mid-epoch sweep), sealed-capability revocation, and the sanitizer's
   quota-conservation rule catching a seeded skip-credit mutation. *)

module M = Sim.Machine
module Trace = Sim.Trace
module Cap = Cheri.Capability
module Runtime = Ccr.Runtime
module Revoker = Ccr.Revoker
module Mrs = Ccr.Mrs
module Sizeclass = Alloc.Sizeclass
module Ledger = Tenancy.Ledger
module Sanitizer = Analysis.Sanitizer
module Tenantecon = Workload.Tenantecon

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cfg = { M.default_config with heap_bytes = 4 lsl 20; mem_bytes = 16 lsl 20 }

(* One runtime, one app thread, a ledger arbitrating [phys_limit]. The
   checkers are optional so the fault-injection test can read the
   sanitizer's verdict. *)
let with_ledger ?(mode = Runtime.Baseline) ?(phys_limit = 4 lsl 20)
    ?(overcommit = Ledger.Deny) ?fault ?(sanitize = false) body =
  let rt = Runtime.create ~config:cfg mode in
  let m = rt.Runtime.machine in
  let tr = Trace.create ~capacity:262144 () in
  M.attach_tracer m (Some tr);
  let san =
    if sanitize then Some (Sanitizer.attach ?revoker:rt.Runtime.revoker m)
    else None
  in
  let led = Ledger.create m ~phys_limit ~overcommit () in
  (match fault with Some f -> Ledger.inject_fault led (Some f) | None -> ());
  let out = ref None in
  ignore
    (M.spawn m ~name:"app" ~core:0 (fun ctx ->
         out := Some (body rt led ctx);
         Runtime.finish rt ctx));
  M.run m;
  (match san with Some s -> Sanitizer.finish s | None -> ());
  (led, tr, san, Option.get !out)

let count_kind tr kind =
  let n = ref 0 in
  Trace.iter tr (fun e -> if e.Trace.kind = kind then incr n);
  !n

let drain rt ctx =
  match rt.Runtime.mrs with
  | Some mrs ->
      Mrs.flush mrs ctx;
      Mrs.wait_drained mrs ctx
  | None -> ()

(* ---- quota charges ---- *)

let test_exact_fit_charge () =
  (* The quota covers exactly one size-class-rounded allocation: the
     charge must be the rounded size, not the requested size, and the
     account must refuse a single further byte. *)
  let rounded = Sizeclass.rounded_size 100 in
  let led, _, _, () =
    with_ledger (fun rt led ctx ->
        let cap = Ledger.register led ~tenant:0 ~quota:rounded rt in
        let c = Ledger.malloc cap ctx 100 in
        check "exact fit succeeds" true (c <> None);
        let st = Ledger.account_stats led ~tenant:0 in
        check_int "charged the rounded size" rounded st.Ledger.s_charged;
        check "over quota at exact fit" true (Ledger.over_quota led ~tenant:0);
        check "one more byte denied" true (Ledger.malloc cap ctx 1 = None);
        (* A baseline runtime has no quarantine: the free credits
           inline and the quota is immediately whole again. *)
        Ledger.free cap ctx (Cap.base (Option.get c));
        check "credit restores the quota" false (Ledger.over_quota led ~tenant:0);
        check "fits again" true (Ledger.malloc cap ctx 100 <> None))
  in
  let st = Ledger.account_stats led ~tenant:0 in
  check_int "one quota deny" 1 st.Ledger.s_denied_quota;
  check_int "no physical deny" 0 st.Ledger.s_denied_phys;
  check "conserved" true st.Ledger.s_conserved

let test_sealed_capability_revoked () =
  let led, _, _, () =
    with_ledger (fun rt led ctx ->
        let cap = Ledger.register led ~tenant:0 ~quota:(1 lsl 20) rt in
        check "valid capability allocates" true (Ledger.malloc cap ctx 64 <> None);
        Ledger.revoke_cap led 0;
        check "revoked capability raises" true
          (try
             ignore (Ledger.malloc cap ctx 64);
             false
           with Invalid_argument _ -> true))
  in
  ignore led

(* ---- physical exhaustion under each over-commit policy ---- *)

let test_deny_at_exhaustion_deny () =
  let r = Sizeclass.rounded_size 4096 in
  let led, _, _, () =
    (* Quota is ample; the physical heap holds exactly two allocations.
       Under [Deny] the third is refused outright. *)
    with_ledger ~phys_limit:(2 * r) ~overcommit:Ledger.Deny
      (fun rt led ctx ->
        let cap = Ledger.register led ~tenant:0 ~quota:(8 * r) rt in
        check "first fits" true (Ledger.malloc cap ctx 4096 <> None);
        check "second fits" true (Ledger.malloc cap ctx 4096 <> None);
        check "third denied" true (Ledger.malloc cap ctx 4096 = None))
  in
  let st = Ledger.account_stats led ~tenant:0 in
  check_int "physical deny counted" 1 st.Ledger.s_denied_phys;
  check_int "no quota deny" 0 st.Ledger.s_denied_quota;
  check "conserved" true st.Ledger.s_conserved

let test_deny_at_exhaustion_steal () =
  let r = Sizeclass.rounded_size 4096 in
  let led, _, _, () =
    (* Live memory fills the physical heap and nothing is quarantined:
       steal-from-idle has no victim and must deny. After a free parks
       the charge in quarantine, the same allocation steals it back —
       forcing the debtor (here: the requester itself) through
       revocation — and succeeds. *)
    with_ledger ~mode:(Runtime.Safe Revoker.Reloaded) ~phys_limit:(2 * r)
      ~overcommit:Ledger.Steal_from_idle (fun rt led ctx ->
        let cap = Ledger.register led ~tenant:0 ~quota:(8 * r) rt in
        let a = Option.get (Ledger.malloc cap ctx 4096) in
        let _b = Option.get (Ledger.malloc cap ctx 4096) in
        check "no quarantine, nothing to steal" true
          (Ledger.malloc cap ctx 4096 = None);
        Ledger.free cap ctx (Cap.base a);
        check "charge parked in quarantine" true (Ledger.debt led ~tenant:0 > 0);
        check "steal reclaims the quarantine" true
          (Ledger.malloc cap ctx 4096 <> None);
        drain rt ctx)
  in
  let st = Ledger.account_stats led ~tenant:0 in
  check_int "one physical deny" 1 st.Ledger.s_denied_phys;
  check "victim reclaim counted" true (st.Ledger.s_reclaims >= 1);
  check "conserved" true st.Ledger.s_conserved

let test_deny_at_exhaustion_revoke () =
  let r = Sizeclass.rounded_size 4096 in
  let led, _, _, () =
    with_ledger ~mode:(Runtime.Safe Revoker.Reloaded) ~phys_limit:(2 * r)
      ~overcommit:Ledger.Trigger_revocation (fun rt led ctx ->
        let cap = Ledger.register led ~tenant:0 ~quota:(8 * r) rt in
        let a = Option.get (Ledger.malloc cap ctx 4096) in
        let _b = Option.get (Ledger.malloc cap ctx 4096) in
        check "no debtor, denied" true (Ledger.malloc cap ctx 4096 = None);
        Ledger.free cap ctx (Cap.base a);
        check "triggered revocation reclaims" true
          (Ledger.malloc cap ctx 4096 <> None);
        drain rt ctx)
  in
  let st = Ledger.account_stats led ~tenant:0 in
  check_int "one physical deny" 1 st.Ledger.s_denied_phys;
  check "conserved" true st.Ledger.s_conserved

(* ---- free_all ---- *)

let test_free_all_noop_when_empty () =
  let led, tr, _, () =
    with_ledger ~mode:(Runtime.Safe Revoker.Reloaded) (fun rt led ctx ->
        let cap = Ledger.register led ~tenant:0 ~quota:(1 lsl 20) rt in
        let n = 6 in
        for _ = 1 to n do
          ignore (Option.get (Ledger.malloc cap ctx 256))
        done;
        let count, bytes = Ledger.free_all cap ctx in
        check_int "hands every live allocation over" n count;
        check_int "hands every charged byte over"
          (n * Sizeclass.rounded_size 256) bytes;
        (* Everything is already in quarantine: a second bulk free has
           nothing to do and must say so. *)
        check "second free_all is a no-op" true (Ledger.free_all cap ctx = (0, 0));
        drain rt ctx)
  in
  let st = Ledger.account_stats led ~tenant:0 in
  check_int "only one storm on the books" 1 st.Ledger.s_free_alls;
  check_int "only one Free_all event" 1 (count_kind tr Trace.Free_all);
  check_int "everything credited back" 0
    (st.Ledger.s_charged - st.Ledger.s_credited);
  check "conserved" true st.Ledger.s_conserved

let test_free_all_racing_mid_epoch_sweep () =
  (* Kick an epoch with one batch, then dump the rest of the heap into
     quarantine while the sweep is in flight: the mid-epoch arrivals
     must ride the next pass (the resumable-epoch path), every credit
     must land, and the shadow-state sanitizer must stay silent. *)
  let led, _, san, was_in_flight =
    with_ledger ~mode:(Runtime.Safe Revoker.Reloaded) ~sanitize:true
      (fun rt led ctx ->
        let cap = Ledger.register led ~tenant:0 ~quota:(1 lsl 20) rt in
        let first = Array.init 16 (fun _ -> Option.get (Ledger.malloc cap ctx 1024)) in
        let rest = Array.init 48 (fun _ -> Option.get (Ledger.malloc cap ctx 512)) in
        ignore rest;
        Array.iter (fun c -> Ledger.free cap ctx (Cap.base c)) first;
        let mrs = Option.get rt.Runtime.mrs in
        Mrs.flush mrs ctx;
        (* wait (bounded) for the revoker to actually take the batch *)
        let rv = Option.get rt.Runtime.revoker in
        let tries = ref 0 in
        while (not (Revoker.in_flight rv)) && !tries < 200 do
          incr tries;
          M.sleep ctx 1_000
        done;
        let in_flight = Revoker.in_flight rv in
        let count, _bytes = Ledger.free_all cap ctx in
        check_int "free_all hands over the live rest" 48 count;
        Mrs.wait_drained mrs ctx;
        in_flight)
  in
  check "epoch was in flight at free_all" true was_in_flight;
  let st = Ledger.account_stats led ~tenant:0 in
  check_int "every charge credited back" 0
    (st.Ledger.s_charged - st.Ledger.s_credited);
  check "conserved" true st.Ledger.s_conserved;
  match san with
  | Some san -> check "sanitizer clean" true (Sanitizer.ok san)
  | None -> assert false

(* ---- the quota-conservation rule ---- *)

let test_skip_credit_fault_detected () =
  (* Arm the seeded ledger mutation: one refund is dropped on the floor,
     so the region's [Reuse] arrives while the sanitizer's mirror still
     holds the charge. The quota-conservation rule must fire and the
     ledger-side identity must break. *)
  let led, _, san, () =
    with_ledger ~mode:(Runtime.Safe Revoker.Reloaded) ~sanitize:true
      ~fault:Ledger.Skip_credit (fun rt led ctx ->
        let cap = Ledger.register led ~tenant:0 ~quota:(1 lsl 20) rt in
        let c = Option.get (Ledger.malloc cap ctx 1024) in
        Ledger.free cap ctx (Cap.base c);
        drain rt ctx)
  in
  let st = Ledger.account_stats led ~tenant:0 in
  check "ledger identity broken" false st.Ledger.s_conserved;
  (match san with
  | Some san ->
      check "sanitizer flags it" false (Sanitizer.ok san);
      check "quota-conservation rule fired" true
        (Sanitizer.count san "quota-conservation" >= 1)
  | None -> assert false);
  check "rule is listed" true
    (List.mem_assoc "quota-conservation" Sanitizer.all_rules)

(* ---- the ledger's entry table ---- *)

module Addrtbl = Tenancy.Addrtbl

(* A binding's capability, derived as a ledger charge's is from the
   allocators' 2^40 root: bounded to [size] bytes at [k], narrowed to
   [perms], its address moved [off] bytes (modulo [size]) past [k]. *)
let entry_cap k ~size ~perms ~off =
  let c = Cap.set_bounds (Cap.root ~length:(1 lsl 40)) ~base:k ~length:size in
  Cap.set_addr (Cap.restrict_perms c (Cheri.Perms.of_int perms)) (k + (off mod size))

let plain_cap k = entry_cap k ~size:16 ~perms:127 ~off:0

(* Granule-aligned keys whose home is the last slot of a fresh table:
   they collide with each other, and their probe run wraps to slot 0. *)
let wrapping_keys n =
  let t = Addrtbl.create 0 in
  let last = Addrtbl.capacity t - 1 in
  let rec go g acc =
    if List.length acc = n then List.rev acc
    else go (g + 1) (if Addrtbl.home t (g * 16) = last then (g * 16) :: acc else acc)
  in
  go 0 []

let test_addrtbl_wrap () =
  let t = Addrtbl.create 0 in
  let cap = Addrtbl.capacity t in
  let keys = wrapping_keys 3 in
  List.iteri (fun i k -> Addrtbl.replace t k i (plain_cap k)) keys;
  check_int "no growth yet" cap (Addrtbl.capacity t);
  List.iteri (fun i k -> check_int "found past the wrap" i (Addrtbl.find t k)) keys;
  (* Removing the run's head must shift the wrapped entries back across
     the end of the table, capabilities with them. *)
  Addrtbl.remove t (List.hd keys);
  check_int "removed" (-1) (Addrtbl.find t (List.hd keys));
  List.iteri
    (fun i k ->
      if i > 0 then begin
        check_int "still found after the shift" i (Addrtbl.find t k);
        check "capability shifted with its key" true (Cap.equal (plain_cap k) (Addrtbl.cap t k))
      end)
    keys;
  check_int "length" 2 (Addrtbl.length t);
  check "a capability encode rejects binds nothing" true
    (match Addrtbl.replace t 16 0 (Cap.root ~length:(1 lsl 40)) with
    | () -> false
    | exception Invalid_argument _ -> Addrtbl.find t 16 = -1 && Addrtbl.length t = 2)

type op =
  | Add of int * int * int * int (* key, packed size and state, perms, address offset *)
  | Set of int * int
  | Find of int
  | Remove of int

(* Keys from a small granule-aligned range (they collide as the table
   grows from 8 slots), the wrapping keys, and a wide range that leaves
   room below 2^40 for the capability's bounds. Each added binding
   packs a size and a state bit, as the ledger does. *)
let gen_ops =
  let open QCheck.Gen in
  let wrap = Array.of_list (wrapping_keys 6) in
  let key =
    frequency
      [
        (6, map (fun g -> g * 16) (int_range 0 95));
        (2, map (fun i -> wrap.(i)) (int_range 0 (Array.length wrap - 1)));
        (1, map (fun g -> g * 16) (int_range 0 (1 lsl 35)));
      ]
  in
  let packed = map2 (fun size q -> (size lsl 1) lor Bool.to_int q) (int_range 1 (1 lsl 20)) bool in
  list_size (int_range 1 600)
    (frequency
       [
         (5, map4 (fun k v p off -> Add (k, v, p, off)) key packed (int_range 0 127) nat);
         (2, map2 (fun k v -> Set (k, v)) key packed);
         (3, map (fun k -> Find k) key);
         (3, map (fun k -> Remove k) key);
       ])

let prop_addrtbl_model =
  QCheck.Test.make ~name:"entry table agrees with a Hashtbl model" ~count:300
    (QCheck.make ~print:(fun ops -> Printf.sprintf "<%d ops>" (List.length ops)) gen_ops)
    (fun ops ->
      let t = Addrtbl.create 0 and model = Hashtbl.create 16 in
      let agrees k =
        match Hashtbl.find_opt model k with
        | Some (v, c) -> Addrtbl.find t k = v && Cap.equal (Addrtbl.cap t k) c
        | None -> (
            Addrtbl.find t k = -1
            && match Addrtbl.cap t k with _ -> false | exception Not_found -> true)
      in
      List.for_all
        (fun op ->
          (match op with
          | Add (k, v, perms, off) ->
              let c = entry_cap k ~size:(v lsr 1) ~perms ~off in
              Addrtbl.replace t k v c;
              Hashtbl.replace model k (v, c)
          | Set (k, v) -> (
              match Hashtbl.find_opt model k with
              | Some (_, c) ->
                  Addrtbl.set t k v;
                  Hashtbl.replace model k (v, c)
              | None -> (
                  try Addrtbl.set t k v with Not_found -> ()))
          | Find _ -> ()
          | Remove k ->
              Addrtbl.remove t k;
              Hashtbl.remove model k);
          (match op with Add (k, _, _, _) | Set (k, _) | Find k | Remove k -> agrees k)
          && Addrtbl.length t = Hashtbl.length model
          && 2 * Addrtbl.length t <= Addrtbl.capacity t)
        ops
      &&
      let bindings fold tbl = List.sort compare (fold (fun k v acc -> (k, v) :: acc) tbl []) in
      bindings Addrtbl.fold t = bindings (fun f -> Hashtbl.fold (fun k (v, _) -> f k v)) model
      && Hashtbl.fold (fun k _ ok -> ok && agrees k) model true)

(* ---- the storm workload end to end ---- *)

let test_tenantecon_storm_identities () =
  let config =
    {
      Tenantecon.default_config with
      Tenantecon.requests = 150;
      slices = 8;
    }
  in
  let r =
    Tenantecon.run ~config ~mode:(Runtime.Safe Revoker.Reloaded) ()
  in
  check "serving identity exact" true r.Tenantecon.identity_ok;
  check "quota ledger conserved" true r.Tenantecon.conserved;
  check "storm fired" true (r.Tenantecon.storm_tenant > 0);
  check "storm handed bytes to quarantine" true (r.Tenantecon.storm_freed_bytes > 0);
  let crashed =
    List.filter (fun o -> o.Tenantecon.o_crashed) r.Tenantecon.per_tenant
  in
  check_int "exactly one tenant crashed" 1 (List.length crashed);
  check "largest tenant crashed" true
    (List.for_all
       (fun o ->
         o.Tenantecon.o_quota
         <= (List.hd crashed).Tenantecon.o_quota)
       r.Tenantecon.per_tenant)

(* A baseline runtime has no revoker, so no scheduler entry and no
   quarantine: every free credits inline and nothing is ever parked. *)
let test_tenantecon_baseline_storm () =
  let config =
    { Tenantecon.default_config with Tenantecon.requests = 150; slices = 4 }
  in
  let r = Tenantecon.run ~config ~mode:Runtime.Baseline () in
  check "serving identity exact" true r.Tenantecon.identity_ok;
  check "quota ledger conserved" true r.Tenantecon.conserved;
  check_int "no quarantine" 0 r.Tenantecon.quarantine_peak;
  check "storm fired" true (r.Tenantecon.storm_freed_allocs > 0);
  List.iter
    (fun o ->
      check_int "balance settled" 0 o.Tenantecon.o_balance;
      check_int "no epoch grants" 0 o.Tenantecon.o_grants)
    r.Tenantecon.per_tenant

let test_tenantecon_deterministic () =
  let config =
    { Tenantecon.default_config with Tenantecon.requests = 80; slices = 4 }
  in
  let run () = Tenantecon.run ~config ~mode:(Runtime.Safe Revoker.Reloaded) () in
  let a = run () and b = run () in
  check "identical wall clock" true (a.Tenantecon.wall_cycles = b.Tenantecon.wall_cycles);
  check "identical per-tenant rows" true
    (a.Tenantecon.per_tenant = b.Tenantecon.per_tenant);
  check "identical slice curve" true
    (a.Tenantecon.slice_p999 = b.Tenantecon.slice_p999)

let () =
  Alcotest.run "tenant"
    [
      ( "quota",
        [
          Alcotest.test_case "exact-fit charge" `Quick test_exact_fit_charge;
          Alcotest.test_case "sealed capability revoked" `Quick
            test_sealed_capability_revoked;
        ] );
      ( "overcommit",
        [
          Alcotest.test_case "deny" `Quick test_deny_at_exhaustion_deny;
          Alcotest.test_case "steal-from-idle" `Quick test_deny_at_exhaustion_steal;
          Alcotest.test_case "trigger-revocation" `Quick
            test_deny_at_exhaustion_revoke;
        ] );
      ( "free_all",
        [
          Alcotest.test_case "double free_all is a no-op" `Quick
            test_free_all_noop_when_empty;
          Alcotest.test_case "racing a mid-epoch sweep" `Quick
            test_free_all_racing_mid_epoch_sweep;
        ] );
      ( "conservation",
        [
          Alcotest.test_case "skip-credit fault detected" `Quick
            test_skip_credit_fault_detected;
        ] );
      ( "entry table",
        [
          Alcotest.test_case "collisions wrap past the end" `Quick test_addrtbl_wrap;
          QCheck_alcotest.to_alcotest prop_addrtbl_model;
        ] );
      ( "storm",
        [
          Alcotest.test_case "identities hold end to end" `Quick
            test_tenantecon_storm_identities;
          Alcotest.test_case "baseline storm" `Quick test_tenantecon_baseline_storm;
          Alcotest.test_case "deterministic" `Quick test_tenantecon_deterministic;
        ] );
    ]
