(* Virtual memory subsystem tests: PTEs, pmap, TLB, address spaces,
   layout arithmetic, reservations. *)

module Pte = Vm.Pte
module Pmap = Vm.Pmap
module Tlb = Vm.Tlb
module Phys = Vm.Phys
module Aspace = Vm.Aspace
module Layout = Vm.Layout
module Reservation = Vm.Reservation
module Mem = Tagmem.Mem

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let page = Phys.page_size

let mk_phys () = Phys.create (Mem.create ~size:(1 lsl 20))

let test_phys_alloc_free () =
  let p = mk_phys () in
  let total = Phys.total_frames p in
  check_int "all free initially" total (Phys.free_frames p);
  let f = Phys.alloc_frame p in
  check_int "one taken" (total - 1) (Phys.free_frames p);
  Phys.free_frame p f;
  check_int "returned" total (Phys.free_frames p)

let test_phys_exhaustion () =
  let p = mk_phys () in
  for _ = 1 to Phys.total_frames p do
    ignore (Phys.alloc_frame p)
  done;
  Alcotest.check_raises "exhausted" Out_of_memory (fun () ->
      ignore (Phys.alloc_frame p))

let test_zero_frame () =
  let p = mk_phys () in
  let f = Phys.alloc_frame p in
  let a = Phys.frame_addr f in
  Tagmem.Mem.write_u64 (Phys.mem p) a 77L;
  Phys.zero_frame p f;
  Alcotest.(check int64) "zeroed" 0L (Tagmem.Mem.read_u64 (Phys.mem p) a)

let test_pmap_basic () =
  let pm = Pmap.create ~asid:0 ~pages:16 in
  let pte = Pte.make ~frame:3 ~writable:true ~clg:false in
  Pmap.enter pm ~vpage:10 pte;
  check "mem" true (Pmap.mem pm ~vpage:10);
  check "lookup" true (Pmap.lookup pm ~vpage:10 = Some pte);
  check_int "count" 1 (Pmap.page_count pm);
  Pmap.remove pm ~vpage:10;
  check "removed" false (Pmap.mem pm ~vpage:10)

let test_pmap_sorted () =
  let pm = Pmap.create ~asid:0 ~pages:16 in
  List.iter
    (fun vp -> Pmap.enter pm ~vpage:vp (Pte.make ~frame:vp ~writable:true ~clg:false))
    [ 9; 2; 5 ];
  Alcotest.(check (list int)) "sorted" [ 2; 5; 9 ] (Pmap.vpages_in pm ~lo:0 ~hi:max_int);
  Alcotest.(check (list int)) "range" [ 5; 9 ] (Pmap.vpages_in pm ~lo:3 ~hi:9)

let test_pmap_lock_protocol () =
  let pm = Pmap.create ~asid:0 ~pages:16 in
  let contended = Pmap.lock pm ~who:1 in
  check "uncontended" false contended;
  Alcotest.check_raises "re-entrant"
    (Invalid_argument "Pmap.lock: re-entrant acquisition") (fun () ->
      ignore (Pmap.lock pm ~who:1));
  Pmap.unlock pm ~who:1;
  Alcotest.check_raises "unlock not holder"
    (Invalid_argument "Pmap.unlock: not the holder") (fun () -> Pmap.unlock pm ~who:2)

let test_pmap_generation () =
  let pm = Pmap.create ~asid:0 ~pages:16 in
  check "initial gen" false (Pmap.generation pm);
  Pmap.set_generation pm true;
  check "flipped" true (Pmap.generation pm)

let test_tlb_fill_and_hit () =
  let tlb = Tlb.create ~entries:16 () in
  check "miss first" true (Tlb.lookup tlb ~vpage:5 < 0);
  let pte = Pte.make ~frame:1 ~writable:true ~clg:false in
  let s = Tlb.insert tlb ~vpage:5 pte in
  check "snapshot clg" false (Tlb.clg tlb s);
  check_int "hit returns the filled slot" s (Tlb.lookup tlb ~vpage:5);
  check "the slot holds the live pte" true (Tlb.pte tlb s == pte)

let test_tlb_snapshot_staleness () =
  let tlb = Tlb.create ~entries:16 () in
  let pte = Pte.make ~frame:1 ~writable:true ~clg:false in
  let s = Tlb.insert tlb ~vpage:5 pte in
  pte.Pte.clg <- true;
  check "stale snapshot" false (Tlb.clg tlb s);
  Tlb.refresh tlb s ~stamp:(Tlb.stamp tlb s);
  check "refreshed" true (Tlb.clg tlb s)

(* A fault handler may run other threads, which may refill the slot the
   fault went through: the refresh that follows names the old fill and
   must leave the new one's snapshot alone. *)
let test_tlb_stale_stamp () =
  let tlb = Tlb.create ~entries:16 () in
  let old_pte = Pte.make ~frame:1 ~writable:true ~clg:false in
  let s = Tlb.insert tlb ~vpage:5 old_pte in
  let stamp = Tlb.stamp tlb s in
  old_pte.Pte.clg <- true;
  let pte = Pte.make ~frame:2 ~writable:true ~clg:false in
  check_int "the refill takes the same slot" s (Tlb.insert tlb ~vpage:21 pte);
  check "a fresh stamp" true (Tlb.stamp tlb s <> stamp);
  pte.Pte.clg <- true;
  Tlb.refresh tlb s ~stamp;
  check "stale refresh leaves the snapshot" false (Tlb.clg tlb s);
  check "and the pte" true (Tlb.pte tlb s == pte);
  Tlb.refresh tlb s ~stamp:(Tlb.stamp tlb s);
  check "current refresh re-latches" true (Tlb.clg tlb s)

let test_tlb_invalidate () =
  let tlb = Tlb.create ~entries:16 () in
  let pte = Pte.make ~frame:1 ~writable:true ~clg:false in
  ignore (Tlb.insert tlb ~vpage:5 pte);
  Tlb.invalidate_page tlb ~vpage:5;
  check "gone" true (Tlb.lookup tlb ~vpage:5 < 0);
  ignore (Tlb.insert tlb ~vpage:5 pte);
  Tlb.flush tlb;
  check "flushed" true (Tlb.lookup tlb ~vpage:5 < 0)

let test_tlb_conflict () =
  let tlb = Tlb.create ~entries:16 () in
  let pte = Pte.make ~frame:1 ~writable:true ~clg:false in
  ignore (Tlb.insert tlb ~vpage:5 pte);
  ignore (Tlb.insert tlb ~vpage:21 pte);
  (* direct-mapped: 21 land 15 = 5, so it evicts vpage 5 *)
  check "evicted" true (Tlb.lookup tlb ~vpage:5 < 0)

(* The flat TLB against an association list of the fills it holds, each
   with its PTE, latched bit and stamp. Insert drops the one fill that
   shares the new vpage's slot (16 entries, vpages below 64, so slots
   conflict often); a refresh names a fill by the stamp an earlier insert
   took, current or stale. *)
type tlb_op =
  | T_insert of int * int (* vpage, pte *)
  | T_lookup of int
  | T_invalidate of int list
  | T_flush
  | T_refresh of int (* which earlier insert's stamp, counted back *)
  | T_set_clg of int * bool (* a revoker moving a live PTE's generation *)

let tlb_op_gen =
  let open QCheck.Gen in
  let vpage = int_bound 63 and pte = int_bound 3 in
  frequency
    [
      (4, map2 (fun v p -> T_insert (v, p)) vpage pte);
      (4, map (fun v -> T_lookup v) vpage);
      (2, map (fun vs -> T_invalidate vs) (list_size (int_bound 3) vpage));
      (1, return T_flush);
      (3, map (fun k -> T_refresh k) (int_bound 5));
      (3, map2 (fun p b -> T_set_clg (p, b)) pte bool);
    ]

let pp_tlb_op = function
  | T_insert (v, p) -> Printf.sprintf "insert %d pte%d" v p
  | T_lookup v -> Printf.sprintf "lookup %d" v
  | T_invalidate vs -> "invalidate [" ^ String.concat "," (List.map string_of_int vs) ^ "]"
  | T_flush -> "flush"
  | T_refresh k -> Printf.sprintf "refresh stamp-%d" k
  | T_set_clg (p, b) -> Printf.sprintf "pte%d.clg <- %b" p b

let prop_tlb_model =
  QCheck.Test.make ~name:"flat TLB == association-list model" ~count:500
    (QCheck.make ~print:(fun l -> String.concat "; " (List.map pp_tlb_op l))
       QCheck.Gen.(list_size (int_range 1 60) tlb_op_gen))
    (fun ops ->
      let entries = 16 in
      let tlb = Tlb.create ~entries () in
      let ptes = Array.init 4 (fun f -> Pte.make ~frame:f ~writable:true ~clg:false) in
      (* vpage -> (pte, latched clg, stamp), one per slot *)
      let model = ref [] in
      (* every insert's stamp and slot so far, newest first *)
      let fills = ref [] in
      let same_slot a b = a land (entries - 1) = b land (entries - 1) in
      let agrees v =
        let s = Tlb.lookup tlb ~vpage:v in
        match List.assoc_opt v !model with
        | None -> s < 0
        | Some (pte, clg, stamp) ->
            s >= 0 && Tlb.pte tlb s == pte && Tlb.clg tlb s = clg && Tlb.stamp tlb s = stamp
      in
      List.for_all
        (function
          | T_insert (v, p) ->
              let s = Tlb.insert tlb ~vpage:v ptes.(p) in
              let stamp = Tlb.stamp tlb s in
              let fresh = not (List.exists (fun (st, _) -> st = stamp) !fills) in
              fills := (stamp, s) :: !fills;
              model :=
                (v, (ptes.(p), ptes.(p).Pte.clg, stamp))
                :: List.filter (fun (v', _) -> not (same_slot v v')) !model;
              fresh && Tlb.lookup tlb ~vpage:v = s
          | T_lookup v -> agrees v
          | T_invalidate vs ->
              Tlb.invalidate_pages tlb ~vpages:vs;
              model := List.filter (fun (v, _) -> not (List.mem v vs)) !model;
              true
          | T_flush ->
              Tlb.flush tlb;
              model := [];
              true
          | T_refresh k -> (
              match List.nth_opt !fills k with
              | None -> true
              | Some (stamp, s) ->
                  (* the slot the named fill went to, whatever it holds now *)
                  Tlb.refresh tlb s ~stamp;
                  model :=
                    List.map
                      (fun (v, (pte, clg, st)) ->
                        (v, (pte, (if st = stamp then pte.Pte.clg else clg), st)))
                      !model;
                  true)
          | T_set_clg (p, b) ->
              ptes.(p).Pte.clg <- b;
              true)
        ops
      && List.for_all agrees (List.init 64 Fun.id))

let test_layout_shadow_math () =
  let l = Layout.make ~heap_bytes:(1 lsl 20) in
  check "heap below shadow" true (l.Layout.heap_limit < l.Layout.shadow_base);
  let a = l.Layout.heap_base in
  check_int "first byte" l.Layout.shadow_base (Layout.shadow_addr_of_heap l a);
  check_int "first bit" 0 (Layout.shadow_bit_of_heap a);
  let a2 = l.Layout.heap_base + 128 in
  check_int "next shadow byte" (l.Layout.shadow_base + 1) (Layout.shadow_addr_of_heap l a2);
  let a3 = l.Layout.heap_base + 16 in
  check_int "second granule bit" 1 (Layout.shadow_bit_of_heap a3);
  check "contains" true (Layout.contains_heap l a);
  check "not below" false (Layout.contains_heap l (a - 1));
  check "not at limit" false (Layout.contains_heap l l.Layout.heap_limit)

let test_aspace_map_translate () =
  let phys = mk_phys () in
  let layout = Layout.make ~heap_bytes:(1 lsl 18) in
  let asp = Aspace.create phys layout ~asid:0 in
  let va = layout.Layout.heap_base in
  let fresh = Aspace.map_range asp ~vaddr:va ~len:(3 * page) ~writable:true in
  check_int "three pages" 3 fresh;
  check_int "idempotent" 0 (Aspace.map_range asp ~vaddr:va ~len:page ~writable:true);
  (match Aspace.translate asp (va + 123) with
  | Some (pa, pte) ->
      check "offset preserved" true (pa land (page - 1) = (va + 123) land (page - 1));
      check "writable" true pte.Pte.writable
  | None -> Alcotest.fail "translate failed");
  check "unmapped is None" true (Aspace.translate asp (va + (100 * page)) = None)

let test_aspace_fresh_maps_shadow () =
  let phys = mk_phys () in
  let layout = Layout.make ~heap_bytes:(1 lsl 20) in
  let asp = Aspace.create phys layout ~asid:0 in
  let lo = layout.Layout.shadow_base / page and hi = (layout.Layout.shadow_limit / page) - 1 in
  check "the shadow spans several pages" true (hi > lo);
  Alcotest.(check (list int))
    "exactly the shadow pages" (List.init (hi - lo + 1) (( + ) lo))
    (Pmap.vpages_in (Aspace.pmap asp) ~lo:0 ~hi:max_int);
  check_int "mapped pages" (hi - lo + 1) (Aspace.mapped_pages asp);
  Pmap.iter (Aspace.pmap asp) ~f:(fun _ pte ->
      check "writable" true pte.Pte.writable;
      check "refuses capability stores" false pte.Pte.cap_store);
  check "no heap page" true (Aspace.translate asp layout.Layout.heap_base = None);
  check "no page past the shadow" true
    (match Aspace.map_range asp ~vaddr:layout.Layout.shadow_limit ~len:page ~writable:true with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_aspace_new_pte_generation () =
  let phys = mk_phys () in
  let layout = Layout.make ~heap_bytes:(1 lsl 18) in
  let asp = Aspace.create phys layout ~asid:0 in
  Pmap.set_generation (Aspace.pmap asp) true;
  ignore (Aspace.map_range asp ~vaddr:layout.Layout.heap_base ~len:page ~writable:true);
  match Aspace.translate asp layout.Layout.heap_base with
  | Some (_, pte) -> check "adopts generation" true pte.Pte.clg
  | None -> Alcotest.fail "unmapped"

let test_reservation_lifecycle () =
  let r = Reservation.make ~base:(16 * page) ~length:(4 * page) in
  check "active" true (Reservation.state r = Reservation.Active);
  check "not guarded" false (Reservation.is_guarded r (16 * page));
  Reservation.unmap_part r ~off:0 ~len:page;
  check "guarded hole" true (Reservation.is_guarded r (16 * page));
  check "rest mapped" false (Reservation.is_guarded r (17 * page));
  check "still active" true (Reservation.state r = Reservation.Active);
  Reservation.unmap_part r ~off:page ~len:(3 * page);
  check "quarantined when empty" true (Reservation.state r = Reservation.Quarantined);
  Reservation.release r;
  check "released" true (Reservation.state r = Reservation.Released)

let test_reservation_errors () =
  Alcotest.check_raises "unaligned" (Invalid_argument "Reservation.make: page alignment")
    (fun () -> ignore (Reservation.make ~base:100 ~length:page));
  let r = Reservation.make ~base:0 ~length:(2 * page) in
  Alcotest.check_raises "bad range" (Invalid_argument "Reservation.unmap_part: bad range")
    (fun () -> Reservation.unmap_part r ~off:0 ~len:(3 * page));
  Alcotest.check_raises "release active"
    (Invalid_argument "Reservation.release: not quarantined") (fun () ->
      Reservation.release r)

let test_reservation_double_unmap_idempotent () =
  let r = Reservation.make ~base:0 ~length:(2 * page) in
  Reservation.unmap_part r ~off:0 ~len:page;
  Reservation.unmap_part r ~off:0 ~len:page;
  check "still active after double unmap of same page" true
    (Reservation.state r = Reservation.Active)

let prop_shadow_bijection =
  QCheck.Test.make ~name:"shadow byte/bit addressing is injective per granule"
    ~count:300
    QCheck.(pair (int_bound 4000) (int_bound 4000))
    (fun (g1, g2) ->
      let l = Layout.make ~heap_bytes:(1 lsl 20) in
      let a1 = l.Layout.heap_base + (g1 * 16) and a2 = l.Layout.heap_base + (g2 * 16) in
      g1 = g2
      || Layout.shadow_addr_of_heap l a1 <> Layout.shadow_addr_of_heap l a2
      || Layout.shadow_bit_of_heap a1 <> Layout.shadow_bit_of_heap a2)

(* The flat page table against a [Hashtbl] model, across random enters
   (re-entering a mapped vpage included), removals and range queries, with
   vpages drawn from a little below 0 to a little past the table's end.
   After every step the table agrees with the model on every drawn vpage,
   on its page count and on [iter]'s order; entering outside the table
   raises, and lookups and removals there find nothing. *)
let pmap_pages = 40

type pmap_op = Enter of int | Remove of int | Query of int * int

let pmap_op_gen =
  QCheck.Gen.(
    let vp = int_range (-3) (pmap_pages + 2) in
    frequency
      [
        (4, map (fun v -> Enter v) vp);
        (2, map (fun v -> Remove v) vp);
        (3, map2 (fun a b -> Query (min a b, max a b)) vp vp);
      ])

let pp_pmap_op = function
  | Enter v -> Printf.sprintf "enter %d" v
  | Remove v -> Printf.sprintf "remove %d" v
  | Query (lo, hi) -> Printf.sprintf "query [%d,%d]" lo hi

let prop_pmap_model =
  QCheck.Test.make ~name:"flat pmap == Hashtbl model, in vpage order" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_pmap_op ops))
       QCheck.Gen.(list_size (int_bound 80) pmap_op_gen))
    (fun ops ->
      let pm = Pmap.create ~asid:0 ~pages:pmap_pages in
      let model = Hashtbl.create 16 in
      let keys () = List.sort compare (Hashtbl.fold (fun vp _ acc -> vp :: acc) model []) in
      let agrees vp =
        Pmap.mem pm ~vpage:vp = Hashtbl.mem model vp
        &&
        match (Pmap.lookup pm ~vpage:vp, Hashtbl.find_opt model vp) with
        | None, None -> true
        | Some a, Some b -> a == b
        | _ -> false
      in
      let step = function
        | Enter vp ->
            let pte = Pte.make ~frame:vp ~writable:false ~clg:false in
            if vp >= 0 && vp < pmap_pages then begin
              Pmap.enter pm ~vpage:vp pte;
              Hashtbl.replace model vp pte;
              true
            end
            else (
              match Pmap.enter pm ~vpage:vp pte with
              | () -> false
              | exception Invalid_argument _ -> true)
        | Remove vp ->
            Pmap.remove pm ~vpage:vp;
            Hashtbl.remove model vp;
            true
        | Query (lo, hi) ->
            Pmap.vpages_in pm ~lo ~hi = List.filter (fun vp -> vp >= lo && vp <= hi) (keys ())
      in
      List.for_all
        (fun op ->
          step op
          && Pmap.page_count pm = Hashtbl.length model
          && List.for_all agrees (List.init (pmap_pages + 6) (fun i -> i - 3))
          &&
          let seen = ref [] in
          Pmap.iter pm ~f:(fun vp _ -> seen := vp :: !seen);
          List.rev !seen = keys ())
        (ops @ [ Query (min_int, max_int) ]))

let () =
  Alcotest.run "vm"
    [
      ( "phys",
        [
          Alcotest.test_case "alloc/free" `Quick test_phys_alloc_free;
          Alcotest.test_case "exhaustion" `Quick test_phys_exhaustion;
          Alcotest.test_case "zero frame" `Quick test_zero_frame;
        ] );
      ( "pmap",
        [
          Alcotest.test_case "basic" `Quick test_pmap_basic;
          Alcotest.test_case "sorted" `Quick test_pmap_sorted;
          Alcotest.test_case "lock protocol" `Quick test_pmap_lock_protocol;
          Alcotest.test_case "generation" `Quick test_pmap_generation;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "fill and hit" `Quick test_tlb_fill_and_hit;
          Alcotest.test_case "snapshot staleness" `Quick test_tlb_snapshot_staleness;
          Alcotest.test_case "stale stamp" `Quick test_tlb_stale_stamp;
          Alcotest.test_case "invalidate" `Quick test_tlb_invalidate;
          Alcotest.test_case "conflict eviction" `Quick test_tlb_conflict;
        ] );
      ("layout", [ Alcotest.test_case "shadow math" `Quick test_layout_shadow_math ]);
      ( "aspace",
        [
          Alcotest.test_case "map/translate" `Quick test_aspace_map_translate;
          Alcotest.test_case "fresh maps the shadow" `Quick test_aspace_fresh_maps_shadow;
          Alcotest.test_case "new pte generation" `Quick test_aspace_new_pte_generation;
        ] );
      ( "reservation",
        [
          Alcotest.test_case "lifecycle" `Quick test_reservation_lifecycle;
          Alcotest.test_case "errors" `Quick test_reservation_errors;
          Alcotest.test_case "double unmap" `Quick test_reservation_double_unmap_idempotent;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_shadow_bijection; prop_pmap_model; prop_tlb_model ] );
    ]
