(* Tagged memory and cache model tests. *)

module Mem = Tagmem.Mem
module Cache = Tagmem.Cache
module Cap = Cheri.Capability

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let mk () = Mem.create ~size:(1 lsl 16)

let test_data_roundtrip () =
  let m = mk () in
  Mem.write_u64 m 128 0x1122334455667788L;
  Alcotest.(check int64) "u64" 0x1122334455667788L (Mem.read_u64 m 128);
  Mem.write_u8 m 200 0xab;
  check_int "u8" 0xab (Mem.read_u8 m 200)

let test_cap_roundtrip () =
  let m = mk () in
  let c = Cap.set_bounds (Cap.root ~length:(1 lsl 16)) ~base:256 ~length:64 in
  Mem.write_cap m 512 c;
  check "tag set" true (Mem.read_tag m 512);
  check "cap equal" true (Cap.equal c (Mem.read_cap m 512));
  (* the data bytes of a tagged granule hold the address *)
  Alcotest.(check int64) "address in data" (Int64.of_int (Cap.addr c)) (Mem.read_u64 m 512);
  (* a capability memory cannot encode is refused, and the granule keeps
     what it held *)
  let wide = Cap.root ~length:(1 lsl 40) in
  check "unencodable store raises" true
    (try
       Mem.write_cap m 512 (Cap.set_addr wide 4096);
       false
     with Invalid_argument _ -> true);
  check "old capability kept" true (Cap.equal c (Mem.read_cap m 512))

let test_untagged_store_clears () =
  let m = mk () in
  let c = Cap.set_bounds (Cap.root ~length:(1 lsl 16)) ~base:256 ~length:64 in
  Mem.write_cap m 512 c;
  Mem.write_cap m 512 (Cap.clear_tag c);
  check "tag cleared" false (Mem.read_tag m 512)

let test_tag_coherence_data_write () =
  let m = mk () in
  let c = Cap.set_bounds (Cap.root ~length:(1 lsl 16)) ~base:256 ~length:64 in
  Mem.write_cap m 512 c;
  Mem.write_u8 m 519 0xff;
  check "byte store clears tag" false (Mem.read_tag m 512);
  let loaded = Mem.read_cap m 512 in
  check "loaded untagged" false (Cap.tag loaded);
  Mem.write_cap m 512 c;
  Mem.write_u64 m 520 0L;
  check "u64 store into granule clears tag" false (Mem.read_tag m 512);
  Mem.write_cap m 512 c;
  (* a straddling write must clear both granules *)
  Mem.write_cap m 528 c;
  Mem.write_u64 m 524 0L;
  check "straddle clears first" false (Mem.read_tag m 512);
  check "straddle clears second" false (Mem.read_tag m 528)

let test_misalignment_rejected () =
  let m = mk () in
  Alcotest.check_raises "read_cap unaligned" (Invalid_argument "Mem.read_cap: unaligned")
    (fun () -> ignore (Mem.read_cap m 8))

let test_clear_tag_keeps_data () =
  let m = mk () in
  let c = Cap.set_bounds (Cap.root ~length:(1 lsl 16)) ~base:256 ~length:64 in
  Mem.write_cap m 512 c;
  Mem.clear_tag m 512;
  check "tag gone" false (Mem.read_tag m 512);
  Alcotest.(check int64) "data intact" (Int64.of_int (Cap.addr c)) (Mem.read_u64 m 512)

let test_count_and_iter () =
  let m = mk () in
  let c = Cap.set_bounds (Cap.root ~length:(1 lsl 16)) ~base:0 ~length:16 in
  Mem.write_cap m 0 c;
  Mem.write_cap m 64 c;
  Mem.write_cap m 4096 c;
  check_int "count in range" 2 (Mem.count_tags m ~lo:0 ~hi:4096);
  check_int "count all" 3 (Mem.count_tags m ~lo:0 ~hi:(Mem.size m));
  let seen = ref 0 in
  Mem.iter_granules m ~lo:0 ~hi:128 (fun _ tagged -> if tagged then incr seen);
  check_int "iter sees both" 2 !seen

let test_fill_clears_tags () =
  let m = mk () in
  let c = Cap.set_bounds (Cap.root ~length:(1 lsl 16)) ~base:0 ~length:16 in
  Mem.write_cap m 256 c;
  Mem.fill m ~lo:0 ~hi:1024 0xcc;
  check "fill cleared tag" false (Mem.read_tag m 256);
  check_int "fill wrote" 0xcc (Mem.read_u8 m 300)

let test_bounds_checked () =
  let m = mk () in
  Alcotest.check_raises "oob write"
    (Invalid_argument
       (Printf.sprintf "Mem: access [%#x,+%d) outside [0,%#x)" (Mem.size m) 1 (Mem.size m)))
    (fun () -> Mem.write_u8 m (Mem.size m) 0)

(* The word accessors read and write page chunks unchecked once [Mem]'s
   own tests have proved the word inside one; every address those tests
   refuse must raise, never reach a chunk. *)
let test_loud_on_bad_addresses () =
  let m = mk () in
  let size = Mem.size m in
  let c = Cap.set_bounds (Cap.root ~length:(1 lsl 16)) ~base:256 ~length:64 in
  (* a tagged store on the first page, so its capability chunk exists *)
  Mem.write_cap m 512 c;
  let raises name f =
    check (name ^ " raises Invalid_argument") true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  let granule_calls a =
    [
      ("cap_word 0", fun () -> Mem.cap_word m a 0);
      ("cap_word 1", fun () -> Mem.cap_word m a 1);
      ("cap_addr", fun () -> Mem.cap_addr m a);
      ("read_cap", fun () -> Cap.addr (Mem.read_cap m a));
      ("write_cap", fun () -> Mem.write_cap m a c; 0);
    ]
  in
  (* misaligned: mid-granule, and the last word of the tagged page,
     whose granule would run into the next page *)
  List.iter
    (fun a ->
      List.iter
        (fun (name, f) -> raises (Printf.sprintf "%s at misaligned %#x" name a) f)
        (granule_calls a))
    [ 520; 4096 - 8 ];
  (* out of range: below, at and straddling the end of memory *)
  List.iter
    (fun a ->
      List.iter
        (fun (name, f) -> raises (Printf.sprintf "%s at out-of-range %#x" name a) f)
        (granule_calls a))
    [ -16; size - 8; size; size + 4096 ];
  List.iter
    (fun a ->
      List.iter
        (fun (name, f) -> raises (Printf.sprintf "%s at out-of-range %#x" name a) f)
        [
          ("read_u64", fun () -> Int64.to_int (Mem.read_u64 m a));
          ("write_u64", fun () -> Mem.write_u64 m a 1L; 0);
          ("read_u64_bit", fun () -> Bool.to_int (Mem.read_u64_bit m a 3));
          ("update_bits", fun () -> Mem.update_bits m a ~lo:0 ~hi:8 ~set:true);
        ])
    [ -8; -1; size - 7; size - 1; size; size + 4096 ];
  raises "fill past the end" (fun () -> Mem.fill m ~lo:(size - 64) ~hi:(size + 8) 0);
  (* untagged page: no tagged store has reached the second page *)
  raises "cap_word 0 on a page with no capability chunk" (fun () -> Mem.cap_word m 4096 0);
  raises "cap_word 1 on a page with no capability chunk" (fun () -> Mem.cap_word m 8192 1);
  (* word 0 is [base lor (perms lsl 40)], [Capability.encode]'s layout *)
  check_int "cap_word on the tagged page" (Cap.base c) (Mem.cap_word m 512 0 land ((1 lsl 40) - 1));
  check_int "cap_addr on the tagged page" (Cap.addr c) (Mem.cap_addr m 512)

(* ---- cache ---- *)

let test_cache_hit_miss () =
  let c = Cache.create () in
  let lat1 = Cache.access c ~addr:0 ~write:false in
  let lat2 = Cache.access c ~addr:8 ~write:false in
  check "first access misses to DRAM" true (lat1 > 100);
  check "same line hits L1" true (lat2 <= 4);
  let st = Cache.stats c in
  check_int "one bus read" 1 st.Cache.bus_reads;
  check_int "one l1 hit" 1 st.Cache.l1_hits

let test_cache_l2_path () =
  let c = Cache.create ~l1_kib:1 ~l2_kib:64 () in
  ignore (Cache.access c ~addr:0 ~write:false);
  (* evict line 0 from tiny L1 by touching its conflict set *)
  ignore (Cache.access c ~addr:1024 ~write:false);
  let lat = Cache.access c ~addr:0 ~write:false in
  check "L2 hit latency" true (lat > 4 && lat < 100);
  check_int "l2 hits" 1 (Cache.stats c).Cache.l2_hits

let test_cache_writeback () =
  let c = Cache.create ~l1_kib:1 ~l2_kib:4 () in
  ignore (Cache.access c ~addr:0 ~write:true);
  (* force eviction of the dirty line from L2 *)
  ignore (Cache.access c ~addr:4096 ~write:false);
  let st = Cache.stats c in
  check_int "dirty eviction wrote back" 1 st.Cache.bus_writes

let test_cache_flush () =
  let c = Cache.create () in
  ignore (Cache.access c ~addr:0 ~write:true);
  Cache.flush c;
  let st = Cache.stats c in
  check "flush writes back dirty" true (st.Cache.bus_writes >= 1);
  let lat = Cache.access c ~addr:0 ~write:false in
  check "post-flush miss" true (lat > 100)

let test_cache_stream_counts_bus () =
  let c = Cache.create () in
  let lat = Cache.access_stream c ~addr:0 ~write:false in
  check "stream cheaper than demand miss" true (lat < 120);
  check_int "stream still counts bus" 1 (Cache.stats c).Cache.bus_reads

let test_cache_nt_no_alloc () =
  let c = Cache.create () in
  ignore (Cache.access_nt c ~addr:0 ~write:false);
  let lat = Cache.access c ~addr:0 ~write:false in
  check "nt did not install line" true (lat > 100)

(* [access_stream_lines ~n] is [n] [access_stream] calls 64 bytes apart,
   from any state: same latency, every stats field, and the same cache
   state after, as probes read it. Small levels (16 and 64 lines) and
   runs of up to 80 lines make the run evict its own lines, dirty ones
   included. *)
let prop_stream_lines =
  let open QCheck.Gen in
  let access =
    map3 (fun kind a w -> (kind, a, w)) (int_bound 2) (int_bound ((1 lsl 16) - 1)) bool
  in
  let gen =
    quad (list_size (int_bound 200) access)
      (triple (int_bound ((1 lsl 16) - 1)) bool (int_bound 80))
      (list_size (int_range 1 20) (pair (int_bound ((1 lsl 16) - 1)) bool))
      unit
  in
  QCheck.Test.make ~name:"access_stream_lines == per-line access_stream" ~count:300
    (QCheck.make gen) (fun (warm, (addr, write, n), probes, ()) ->
      let mk () =
        let c = Cache.create ~l1_kib:1 ~l2_kib:4 () in
        List.iter
          (fun (kind, a, w) ->
            ignore
              (match kind with
              | 0 -> Cache.access c ~addr:a ~write:w
              | 1 -> Cache.access_stream c ~addr:a ~write:w
              | _ -> Cache.access_nt c ~addr:a ~write:w))
          warm;
        c
      in
      let batched = mk () and looped = mk () in
      let lat = Cache.access_stream_lines batched ~addr ~write ~n in
      let lat' = ref 0 in
      for i = 0 to n - 1 do
        lat' := !lat' + Cache.access_stream looped ~addr:(addr + (64 * i)) ~write
      done;
      lat = !lat'
      && Cache.stats batched = Cache.stats looped
      && List.for_all
           (fun (a, w) ->
             Cache.access batched ~addr:a ~write:w = Cache.access looped ~addr:a ~write:w
             && Cache.stats batched = Cache.stats looped)
           probes)

let prop_tag_density =
  QCheck.Test.make ~name:"tags never exceed one per granule" ~count:100
    QCheck.(small_list (pair (int_bound 1000) bool))
    (fun writes ->
      let m = Mem.create ~size:(1 lsl 14) in
      let c = Cap.set_bounds (Cap.root ~length:(1 lsl 14)) ~base:0 ~length:16 in
      List.iter
        (fun (slot, tagged) ->
          let a = slot * 16 mod Mem.size m in
          if tagged then Mem.write_cap m a c else Mem.write_u64 m a 1L)
        writes;
      Mem.count_tags m ~lo:0 ~hi:(Mem.size m) <= Mem.size m / 16)

(* ---- demand paging is invisible: Mem against a flat model ---- *)

(* Four whole pages plus a partial one. *)
let model_size = (4 * 4096) + 512

type op =
  | W8 of int * int
  | W64 of int * int
  | R64 of int
  | Wcap of int * Cap.t
  | Clear of int
  | Fill of int * int * int
  | Copy of int * int * int

(* Capabilities that exercise every field memory packs: bases anywhere
   below 2^40 (half of them within a page of it), random permissions, an
   address moved anywhere in the representable window, a sealed third,
   and an untagged half. *)
let cap_gen =
  let open QCheck.Gen in
  let root = Cap.root ~length:(1 lsl 40) in
  let* length = oneof [ int_range 1 64; int_range 1 (1 lsl 30) ] in
  let* base =
    oneof
      [ int_bound ((1 lsl 40) - length); map (fun k -> (1 lsl 40) - length - k) (int_bound 4096) ]
  in
  let* perms = int_bound 127 in
  let* a = int_bound max_int in
  let* otype = frequency [ (2, return 0); (1, int_range 1 ((1 lsl 22) - 1)) ] in
  let* tagged = bool in
  let c = Cap.restrict_perms (Cap.set_bounds root ~base ~length) (Cheri.Perms.of_int perms) in
  let c = Cap.set_addr c (c.win_lo + (a mod (c.win_hi - c.win_lo))) in
  let c = if otype = 0 then c else Cap.seal c ~otype in
  return (if tagged then c else Cap.clear_tag c)

let op_gen =
  let open QCheck.Gen in
  let addr = int_bound (model_size - 1) in
  let granule_addr = map (fun g -> g * 16) (int_bound ((model_size / 16) - 1)) in
  let page = int_bound 3 in
  frequency
    [
      (3, map2 (fun a v -> W8 (a, v)) addr (int_bound 255));
      (3, map2 (fun a v -> W64 (min a (model_size - 8), v)) addr (int_bound 1000));
      (* page-straddling words *)
      (1, map2 (fun p k -> W64 ((p * 4096) + 4089 + k, 7)) (int_bound 2) (int_bound 6));
      (* a page's last word, and the memory's *)
      (1, map2 (fun p v -> W64 ((p * 4096) + 4088, v)) (int_bound 3) (int_bound 1000));
      (1, map (fun v -> W64 (model_size - 8, v)) (int_bound 1000));
      (* reads anywhere, at a page's last word and across a page boundary *)
      (2, map (fun a -> R64 (min a (model_size - 8))) addr);
      (1, map (fun p -> R64 ((p * 4096) + 4088)) (int_bound 3));
      (1, map2 (fun p k -> R64 ((p * 4096) + 4089 + k)) (int_bound 3) (int_bound 6));
      (1, return (R64 (model_size - 8)));
      (4, map2 (fun a c -> Wcap (a, c)) granule_addr cap_gen);
      (2, map (fun a -> Clear a) addr);
      (1, map2 (fun p v -> Fill (p * 4096, (p + 1) * 4096, v)) page (oneofl [ 0; 0; 0x5c ]));
      ( 2,
        map3
          (fun a n v -> Fill (a, min model_size (a + n), v))
          addr (int_bound 9000) (oneofl [ 0; 0xa7 ]) );
      (1, map2 (fun s d -> Copy (s * 4096, d * 4096, 4096)) page page);
      ( 1,
        map3
          (fun s d n -> Copy (s * 16, 8192 + (d * 16), n * 16))
          (int_bound 500) (int_bound 500) (int_bound 24) );
    ]

let pp_op = function
  | W8 (a, v) -> Printf.sprintf "w8 %d %d" a v
  | W64 (a, v) -> Printf.sprintf "w64 %d %d" a v
  | R64 a -> Printf.sprintf "r64 %d" a
  | Wcap (a, c) -> Format.asprintf "cap %d %a" a Cap.pp c
  | Clear a -> Printf.sprintf "clear %d" a
  | Fill (lo, hi, v) -> Printf.sprintf "fill %d %d %d" lo hi v
  | Copy (s, d, n) -> Printf.sprintf "copy %d %d %d" s d n

let prop_demand_paging =
  QCheck.Test.make ~name:"demand-paged memory reads as a flat array" ~count:200
    (QCheck.make ~print:(fun l -> String.concat "; " (List.map pp_op l))
       QCheck.Gen.(list_size (int_range 1 40) op_gen))
    (fun ops ->
      let m = Mem.create ~size:model_size in
      let data = Bytes.make model_size '\000' in
      let tags = Array.make (model_size / 16) false in
      let shadow = Array.make (model_size / 16) Cap.null in
      let untag lo hi =
        for g = lo / 16 to (hi - 1) / 16 do
          tags.(g) <- false
        done
      in
      let ok = ref true in
      List.iter
        (function
          | W8 (a, v) ->
              Mem.write_u8 m a v;
              Bytes.set data a (Char.chr v);
              untag a (a + 1)
          | W64 (a, v) ->
              Mem.write_u64 m a (Int64.of_int v);
              Bytes.set_int64_le data a (Int64.of_int v);
              untag a (a + 8)
          | R64 a -> if Mem.read_u64 m a <> Bytes.get_int64_le data a then ok := false
          | Wcap (a, c) ->
              Mem.write_cap m a c;
              Bytes.set_int64_le data a (Int64.of_int (Cap.addr c));
              Bytes.set_int64_le data (a + 8) 0L;
              tags.(a / 16) <- Cap.tag c;
              shadow.(a / 16) <- c
          | Clear a ->
              Mem.clear_tag m a;
              tags.(a / 16) <- false
          | Fill (lo, hi, v) ->
              Mem.fill m ~lo ~hi v;
              if hi > lo then begin
                Bytes.fill data lo (hi - lo) (Char.chr v);
                untag lo hi
              end
          | Copy (s, d, n) ->
              if s + n <= d || d + n <= s then begin
                Mem.copy_range m ~src:s ~dst:d ~len:n;
                Bytes.blit data s data d n;
                for i = 0 to (n / 16) - 1 do
                  tags.((d / 16) + i) <- tags.((s / 16) + i);
                  shadow.((d / 16) + i) <- shadow.((s / 16) + i)
                done
              end)
        ops;
      for a = 0 to model_size - 1 do
        if Mem.read_u8 m a <> Char.code (Bytes.get data a) then ok := false
      done;
      for g = 0 to (model_size / 16) - 1 do
        let a = g * 16 in
        if Mem.read_tag m a <> tags.(g) then ok := false;
        (* every field, the cached window included *)
        if tags.(g) && Mem.read_cap m a <> shadow.(g) then ok := false;
        if Mem.read_u64 m a <> Bytes.get_int64_le data a then ok := false
      done;
      !ok
      && Mem.count_tags m ~lo:0 ~hi:model_size
         = Array.fold_left (fun n t -> if t then n + 1 else n) 0 tags)

let test_copy_overlap_rejected () =
  let m = mk () in
  Alcotest.check_raises "overlap" (Invalid_argument "Mem.copy_range: overlapping ranges")
    (fun () -> Mem.copy_range m ~src:0 ~dst:16 ~len:64)

let () =
  Alcotest.run "tagmem"
    [
      ( "mem",
        [
          Alcotest.test_case "data roundtrip" `Quick test_data_roundtrip;
          Alcotest.test_case "cap roundtrip" `Quick test_cap_roundtrip;
          Alcotest.test_case "untagged store" `Quick test_untagged_store_clears;
          Alcotest.test_case "tag coherence" `Quick test_tag_coherence_data_write;
          Alcotest.test_case "misalignment" `Quick test_misalignment_rejected;
          Alcotest.test_case "clear_tag keeps data" `Quick test_clear_tag_keeps_data;
          Alcotest.test_case "count and iter" `Quick test_count_and_iter;
          Alcotest.test_case "fill clears tags" `Quick test_fill_clears_tags;
          Alcotest.test_case "bounds checked" `Quick test_bounds_checked;
          Alcotest.test_case "loud on bad addresses" `Quick test_loud_on_bad_addresses;
          Alcotest.test_case "copy overlap rejected" `Quick test_copy_overlap_rejected;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit/miss" `Quick test_cache_hit_miss;
          Alcotest.test_case "l2 path" `Quick test_cache_l2_path;
          Alcotest.test_case "writeback" `Quick test_cache_writeback;
          Alcotest.test_case "flush" `Quick test_cache_flush;
          Alcotest.test_case "stream bus" `Quick test_cache_stream_counts_bus;
          Alcotest.test_case "nt no alloc" `Quick test_cache_nt_no_alloc;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_tag_density; prop_demand_paging; prop_stream_lines ] );
    ]
