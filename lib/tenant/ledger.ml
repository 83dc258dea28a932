(* The quota ledger: sealed per-tenant allocator capabilities in the
   CHERIoT mould, ported onto the quarantine pipeline. Every tenant
   holds a sealed capability minted by [register]; allocation charges
   its quota at allocation granularity (the size-class rounded size) and
   the charge is credited back only when the memory leaves quarantine —
   via the shim's release hook, strictly before the [Reuse] event — so
   quarantined-but-unrevoked memory still counts against its owner and
   revocation lag is an economic cost each tenant feels. *)

module Capability = Cheri.Capability
module Machine = Sim.Machine
module Trace = Sim.Trace
module Backend = Alloc.Backend
module Runtime = Ccr.Runtime
module Mrs = Ccr.Mrs

type overcommit = Deny | Steal_from_idle | Trigger_revocation

let overcommit_name = function
  | Deny -> "deny"
  | Steal_from_idle -> "steal"
  | Trigger_revocation -> "revoke"

let all_overcommits = [ Deny; Steal_from_idle; Trigger_revocation ]

let overcommit_of_name = function
  | "deny" -> Some Deny
  | "steal" -> Some Steal_from_idle
  | "revoke" -> Some Trigger_revocation
  | _ -> None

type fault = Skip_credit

(* A charge, as the entry table holds it in one int: the size-class
   rounded bytes, and in the low bit whether the allocation is still live
   or parked in quarantine (freed, awaiting revocation — still billed to
   its owner). The table keeps the allocation's capability beside it. *)
let live_charge size = size lsl 1
let charge_size charge = charge lsr 1
let is_quarantined charge = charge land 1 = 1
let quarantined charge = charge lor 1

type account = {
  a_tenant : int;
  a_quota : int;
  a_rt : Runtime.t;
  allocs : Addrtbl.t; (* base -> charge and capability *)
  mutable a_stamp : int; (* the stamp its capabilities must carry; 0 once revoked *)
  mutable charged : int;
  mutable credited : int;
  mutable live : int; (* bytes of Live entries *)
  mutable quarantined : int; (* bytes of Quarantined entries *)
  mutable denied_quota : int;
  mutable denied_phys : int;
  mutable free_alls : int;
  mutable reclaims : int; (* times picked as an over-commit victim *)
  mutable peak_balance : int;
}

type t = {
  m : Machine.t;
  phys_limit : int;
  overcommit : overcommit;
  accounts : (int, account) Hashtbl.t;
  mutable next_stamp : int;
  mutable committed : int; (* Σ outstanding balances, all tenants *)
  mutable peak_committed : int;
  mutable fault : fault option;
}

(* The sealed capability: unforgeable only by convention in the host
   language, but the seal stamp gives it CHERIoT's revocable-authority
   semantics — [revoke_cap] invalidates every capability minted for a
   tenant without touching the tenant's memory. Like a CHERIoT allocator
   capability pointing at its [AllocatorCapabilityState], it names its
   account directly, so unsealing is a stamp comparison, not a lookup. *)
type cap = { c_account : account; c_stamp : int; c_ledger : t }

let create m ~phys_limit ~overcommit () =
  if phys_limit <= 0 then invalid_arg "Ledger.create: phys_limit must be > 0";
  {
    m;
    phys_limit;
    overcommit;
    accounts = Hashtbl.create 8;
    next_stamp = 1;
    committed = 0;
    peak_committed = 0;
    fault = None;
  }

let phys_limit t = t.phys_limit
let overcommit t = t.overcommit
let peak_committed t = t.peak_committed
let inject_fault t f = t.fault <- f

let balance a = a.charged - a.credited

let account t tenant =
  match Hashtbl.find_opt t.accounts tenant with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Ledger: unknown tenant %d" tenant)

let unseal op (c : cap) =
  let a = c.c_account in
  if a.a_stamp <> c.c_stamp then
    invalid_arg
      (Printf.sprintf "%s: revoked or forged allocator capability (tenant %d)"
         op a.a_tenant);
  a

let emit t ctx ~pid ?arg2 kind arg =
  Machine.trace_emit t.m ~time:(Machine.now ctx) ~core:(Machine.core_id ctx)
    ~pid ?arg2 kind arg

(* Credit path: runs on the tenant's revoker thread for each entry of a
   clean batch, before the bitmap clear and the [Reuse] event (see
   [Mrs.set_on_release]) — or inline at [free] under a baseline runtime,
   which has no quarantine to park the charge in. The [Skip_credit]
   fault drops the whole credit (bookkeeping and event): the sanitizer's
   quota-conservation rule must notice the [Reuse] of a still-charged
   region. *)
let credit t a ctx ~addr =
  let charge = Addrtbl.find a.allocs addr in
  (* no entry: not a ledger allocation (e.g. adopted quarantine) *)
  if charge >= 0 then
    match t.fault with
    | Some Skip_credit -> Addrtbl.remove a.allocs addr
    | None ->
        let size = charge_size charge in
        a.credited <- a.credited + size;
        if is_quarantined charge then a.quarantined <- a.quarantined - size
        else a.live <- a.live - size;
        t.committed <- t.committed - size;
        Addrtbl.remove a.allocs addr;
        emit t ctx ~pid:a.a_tenant ~arg2:size Trace.Quota_credit addr

let register t ~tenant ~quota rt =
  if quota <= 0 then invalid_arg "Ledger.register: quota must be > 0";
  if Hashtbl.mem t.accounts tenant then
    invalid_arg (Printf.sprintf "Ledger.register: tenant %d already registered"
                   tenant);
  let stamp = t.next_stamp in
  t.next_stamp <- t.next_stamp + 1;
  let a =
    {
      a_tenant = tenant;
      a_quota = quota;
      a_rt = rt;
      allocs = Addrtbl.create 256;
      a_stamp = stamp;
      charged = 0;
      credited = 0;
      live = 0;
      quarantined = 0;
      denied_quota = 0;
      denied_phys = 0;
      free_alls = 0;
      reclaims = 0;
      peak_balance = 0;
    }
  in
  Hashtbl.replace t.accounts tenant a;
  (* One account per runtime: the release hook is the account's credit
     stream. *)
  (match rt.Runtime.mrs with
  | Some mrs ->
      Mrs.set_on_release mrs
        (Some (fun ctx ~addr ~size:_ -> credit t a ctx ~addr))
  | None -> ());
  { c_account = a; c_stamp = stamp; c_ledger = t }

let revoke_cap t tenant =
  match Hashtbl.find_opt t.accounts tenant with
  | Some a -> a.a_stamp <- 0
  | None -> ()

let deny t a ctx ~rounded ~phys =
  if phys then a.denied_phys <- a.denied_phys + 1
  else a.denied_quota <- a.denied_quota + 1;
  emit t ctx ~pid:a.a_tenant ~arg2:(if phys then 1 else 0) Trace.Quota_deny
    rounded;
  None

(* Deterministic over-commit victim: the account with the most charge
   parked in quarantine (ties to the lowest pid), preferring someone
   other than the requester — "steal from idle" — but falling back to
   the requester's own quarantine when it is the only debtor. *)
let victim t requester =
  let best =
    Hashtbl.fold
      (fun _ a best ->
        if a.quarantined = 0 then best
        else
          match best with
          | None -> Some a
          | Some b ->
              let pref x = (x.a_tenant <> requester.a_tenant), x.quarantined in
              let (oa, qa) = pref a and (ob, qb) = pref b in
              if oa <> ob then if oa then Some a else best
              else if qa > qb || (qa = qb && a.a_tenant < b.a_tenant) then
                Some a
              else best)
      t.accounts None
  in
  best

let reclaim_tries = 32

(* Physical exhaustion: Σ outstanding balances would exceed the physical
   heap. Resolve per policy; [true] means the allocation may proceed. *)
let ensure_physical t a ctx rounded =
  let exhausted () = t.committed + rounded > t.phys_limit in
  if not (exhausted ()) then true
  else
    match t.overcommit with
    | Deny -> false
    | Steal_from_idle ->
        let rec loop tries =
          if not (exhausted ()) then true
          else if tries = 0 then false
          else
            match victim t a with
            | None -> false
            | Some v -> (
                match v.a_rt.Runtime.mrs with
                | None -> false
                | Some mrs ->
                    v.reclaims <- v.reclaims + 1;
                    Mrs.flush mrs ctx;
                    if Mrs.quarantine_bytes mrs = 0 then false
                    else begin
                      Mrs.wait_release mrs ctx;
                      loop (tries - 1)
                    end)
        in
        loop reclaim_tries
    | Trigger_revocation ->
        (* Kick every debtor's revocation, then wait for drains until
           the committed sum fits (or progress stops). *)
        let rec loop tries =
          if not (exhausted ()) then true
          else if tries = 0 then false
          else begin
            let debtors =
              Hashtbl.fold (fun _ acct acc -> acct :: acc) t.accounts []
              |> List.filter (fun acct -> acct.quarantined > 0)
              |> List.sort (fun x y -> compare x.a_tenant y.a_tenant)
            in
            List.iter
              (fun acct ->
                match acct.a_rt.Runtime.mrs with
                | Some mrs -> Mrs.flush mrs ctx
                | None -> ())
              debtors;
            match victim t a with
            | None -> false
            | Some v -> (
                match v.a_rt.Runtime.mrs with
                | None -> false
                | Some mrs ->
                    if Mrs.quarantine_bytes mrs = 0 then false
                    else begin
                      v.reclaims <- v.reclaims + 1;
                      Mrs.wait_release mrs ctx;
                      loop (tries - 1)
                    end)
          end
        in
        loop reclaim_tries

let malloc cap ctx size =
  let t = cap.c_ledger in
  let a = unseal "Ledger.malloc" cap in
  let rounded = Alloc.Sizeclass.rounded_size size in
  if balance a + rounded > a.a_quota then deny t a ctx ~rounded ~phys:false
  else if not (ensure_physical t a ctx rounded) then
    deny t a ctx ~rounded ~phys:true
  else begin
    let c = Runtime.malloc a.a_rt ctx size in
    let base = Capability.base c in
    a.charged <- a.charged + rounded;
    a.live <- a.live + rounded;
    t.committed <- t.committed + rounded;
    if balance a > a.peak_balance then a.peak_balance <- balance a;
    if t.committed > t.peak_committed then t.peak_committed <- t.committed;
    Addrtbl.replace a.allocs base (live_charge rounded) c;
    emit t ctx ~pid:a.a_tenant ~arg2:rounded Trace.Quota_charge base;
    Some c
  end

(* Move one live charge to quarantine and hand the memory to the shim.
   Shared by [free] and [free_all]; the caller has already unsealed. *)
let quarantine_one t a ctx base charge =
  let size = charge_size charge in
  let c = Addrtbl.cap a.allocs base in
  Addrtbl.set a.allocs base (quarantined charge);
  a.live <- a.live - size;
  a.quarantined <- a.quarantined + size;
  Runtime.free a.a_rt ctx c;
  (* A baseline runtime returns memory to the allocator immediately —
     there is no quarantine to park the charge in, so credit inline. *)
  if a.a_rt.Runtime.mrs = None then credit t a ctx ~addr:base

let free cap ctx base =
  let t = cap.c_ledger in
  let a = unseal "Ledger.free" cap in
  let charge = Addrtbl.find a.allocs base in
  if charge < 0 then
    invalid_arg
      (Printf.sprintf "Ledger.free: 0x%x is not a live allocation of tenant %d"
         base a.a_tenant);
  if is_quarantined charge then
    invalid_arg
      (Printf.sprintf "Ledger.free: double free of 0x%x (tenant %d)" base
         a.a_tenant);
  quarantine_one t a ctx base charge

(* The CHERIoT [heap_free_all] analogue: hand the tenant's entire live
   heap to quarantine in one shot — post-failure cleanup that needs no
   cooperation from the (possibly crashed) tenant code. The charges stay
   on the books until revocation completes; only then are they credited
   back, so a bulk free is a quarantine debt spike, not a refund. *)
let free_all cap ctx =
  let t = cap.c_ledger in
  let a = unseal "Ledger.free_all" cap in
  let live =
    Addrtbl.fold
      (fun base charge acc ->
        if is_quarantined charge then acc else (base, charge) :: acc)
      a.allocs []
    |> List.sort (fun (x, _) (y, _) -> Int.compare x y)
  in
  match live with
  | [] -> (0, 0) (* nothing live: a repeated free_all is a no-op *)
  | _ ->
      let bytes = List.fold_left (fun s (_, charge) -> s + charge_size charge) 0 live in
      a.free_alls <- a.free_alls + 1;
      emit t ctx ~pid:a.a_tenant ~arg2:bytes Trace.Free_all (List.length live);
      List.iter (fun (base, charge) -> quarantine_one t a ctx base charge) live;
      (match a.a_rt.Runtime.mrs with
      | Some mrs -> Mrs.flush mrs ctx
      | None -> ());
      (List.length live, bytes)

(* ---- probes ---- *)

let over_quota t ~tenant =
  match Hashtbl.find_opt t.accounts tenant with
  | None -> false
  | Some a -> balance a >= a.a_quota

let debt t ~tenant =
  match Hashtbl.find_opt t.accounts tenant with
  | None -> 0
  | Some a -> a.quarantined

let quota t ~tenant = (account t tenant).a_quota
let tenants t =
  Hashtbl.fold (fun p a l -> if a.a_stamp <> 0 then p :: l else l) t.accounts []
  |> List.sort Int.compare

(* ---- statistics and the conservation identity ---- *)

type account_stats = {
  s_tenant : int;
  s_quota : int;
  s_charged : int;
  s_credited : int;
  s_live : int;
  s_quarantined : int;
  s_denied_quota : int;
  s_denied_phys : int;
  s_free_alls : int;
  s_reclaims : int;
  s_peak_balance : int;
  s_conserved : bool;
}

(* The ledger-side conservation identity, computed against the entry
   table rather than the running live/quarantined counters so a
   bookkeeping bug in either side cannot hide: charged − credited must
   equal the bytes the table still holds. *)
let conserved a =
  let held = Addrtbl.fold (fun _ charge s -> s + charge_size charge) a.allocs 0 in
  balance a = held && a.live + a.quarantined = held

let account_stats_of a =
  {
    s_tenant = a.a_tenant;
    s_quota = a.a_quota;
    s_charged = a.charged;
    s_credited = a.credited;
    s_live = a.live;
    s_quarantined = a.quarantined;
    s_denied_quota = a.denied_quota;
    s_denied_phys = a.denied_phys;
    s_free_alls = a.free_alls;
    s_reclaims = a.reclaims;
    s_peak_balance = a.peak_balance;
    s_conserved = conserved a;
  }

let account_stats t ~tenant = account_stats_of (account t tenant)
