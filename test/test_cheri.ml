(* Unit and property tests for the capability model. *)

module Cap = Cheri.Capability
module Perms = Cheri.Perms
module Compress = Cheri.Compress

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---- Perms ---- *)

let test_perms_basics () =
  check "empty subset all" true (Perms.subset Perms.empty Perms.all);
  check "all not subset empty" false (Perms.subset Perms.all Perms.empty);
  check "load in read_write" true (Perms.mem Perms.read_write Perms.load);
  check "execute not in read_write" false (Perms.mem Perms.read_write Perms.execute);
  let p = Perms.remove Perms.all Perms.store in
  check "removed store" false (Perms.mem p Perms.store);
  check "kept load" true (Perms.mem p Perms.load);
  check_int "roundtrip int" (Perms.to_int Perms.read_write)
    (Perms.to_int (Perms.of_int (Perms.to_int Perms.read_write)))

let test_perms_lattice () =
  let u = Perms.union Perms.load Perms.store in
  check "inter union load" true (Perms.equal (Perms.inter u Perms.load) Perms.load);
  check "union comm" true
    (Perms.equal (Perms.union Perms.load Perms.store) (Perms.union Perms.store Perms.load))

(* ---- Compress ---- *)

let test_exact_small () =
  check "small exact" true (Compress.is_exact ~base:48 ~length:100);
  check_int "align small" 1 (Compress.required_alignment 100);
  check_int "round small" 100 (Compress.round_length 100)

let test_padding_large () =
  let base = 12345 and length = 1 lsl 20 in
  let base', length' = Compress.representable ~base ~length in
  check "base' <= base" true (base' <= base);
  check "covers top" true (base' + length' >= base + length);
  let a = Compress.required_alignment length in
  check "a power of two" true (a land (a - 1) = 0);
  check_int "base aligned" 0 (base' mod a);
  (* aligned request of rounded length is exact *)
  let l = Compress.round_length length in
  check "aligned is exact" true (Compress.is_exact ~base:(4 * a) ~length:l)

(* Padding base 3 down and top 32769 up to 2-byte alignment gives length
   32768, one past what exponent 1's mantissa holds ((2^14 - 1) * 2). *)
let test_exponent_carry () =
  let base', length' = Compress.representable ~base:3 ~length:32766 in
  check_int "carried base" 0 base';
  check_int "carried length" 32772 length';
  check "carried result exact" true (Compress.is_exact ~base:base' ~length:length')

let test_window_contains_bounds () =
  let lo, hi = Compress.representable_window ~base:4096 ~length:65536 in
  check "lo <= base" true (lo <= 4096);
  check "hi >= top" true (hi >= 4096 + 65536)

(* ---- Capability unit tests ---- *)

let root () = Cap.root ~length:(1 lsl 32)

let test_root () =
  let r = root () in
  check "tagged" true (Cap.tag r);
  check_int "base" 0 (Cap.base r);
  check "all perms" true (Perms.equal (Cap.perms r) Perms.all);
  check "in bounds" true (Cap.in_bounds r)

let test_set_bounds_basic () =
  let c = Cap.set_bounds (root ()) ~base:4096 ~length:256 in
  check "tagged" true (Cap.tag c);
  check_int "base" 4096 (Cap.base c);
  check_int "length" 256 (Cap.length c);
  check_int "addr at base" 4096 (Cap.addr c)

let test_set_bounds_escape_untags () =
  let parent = Cap.set_bounds (root ()) ~base:4096 ~length:256 in
  let c = Cap.set_bounds parent ~base:4000 ~length:100 in
  check "escape below untagged" false (Cap.tag c);
  let c = Cap.set_bounds parent ~base:4300 ~length:100 in
  check "escape above untagged" false (Cap.tag c);
  let c = Cap.set_bounds parent ~base:4100 ~length:100 in
  check "inside tagged" true (Cap.tag c)

let test_set_bounds_negative () =
  check "negative length untagged" false
    (Cap.tag (Cap.set_bounds (root ()) ~base:0 ~length:(-1)))

let test_untagged_derivation () =
  let d = Cap.set_bounds Cap.null ~base:0 ~length:16 in
  check "derive from null untagged" false (Cap.tag d)

let test_set_addr_window () =
  let c = Cap.set_bounds (root ()) ~base:65536 ~length:4096 in
  let inside = Cap.set_addr c 66000 in
  check "inside keeps tag" true (Cap.tag inside);
  check_int "addr moved" 66000 (Cap.addr inside);
  let near = Cap.set_addr c (65536 + 4096 + 100) in
  check "near oob keeps tag (representable)" true (Cap.tag near);
  check "near oob not dereferenceable" false (Cap.can_load near);
  let far = Cap.set_addr c (1 lsl 30) in
  check "far oob untags" false (Cap.tag far);
  (* bounds never move *)
  check_int "base unchanged" 65536 (Cap.base far);
  check_int "length unchanged" 4096 (Cap.length far)

let test_deref_checks () =
  let c = Cap.set_bounds (root ()) ~base:4096 ~length:64 in
  let c = Cap.restrict_perms c Perms.read_write in
  check "can load" true (Cap.can_load c);
  check "can store" true (Cap.can_store c);
  check "can load cap" true (Cap.can_load_cap c);
  let ro = Cap.clear_perm c Perms.store in
  check "ro cannot store" false (Cap.can_store ro);
  check "ro can load" true (Cap.can_load ro);
  let nocap = Cap.clear_perm c (Perms.union Perms.load_cap Perms.store_cap) in
  check "no cap-load perm" false (Cap.can_load_cap nocap);
  check "data load ok" true (Cap.can_load nocap);
  (* width checks at the end of bounds *)
  let tail = Cap.set_addr c (4096 + 60) in
  check "4-wide at end ok" true (Cap.can_load ~width:4 tail);
  check "8-wide at end fails" false (Cap.can_load ~width:8 tail)

let test_untag_blocks_deref () =
  let c = Cap.set_bounds (root ()) ~base:4096 ~length:64 in
  let u = Cap.clear_tag c in
  check "untagged cannot load" false (Cap.can_load u);
  check "untagged cannot store" false (Cap.can_store u)

let test_sealing () =
  let c = Cap.set_bounds (root ()) ~base:4096 ~length:64 in
  let s = Cap.seal c ~otype:7 in
  check "sealed tagged" true (Cap.tag s);
  check "sealed" true (Cap.is_sealed s);
  check "sealed cannot load" false (Cap.can_load s);
  check "sealed set_addr untags" false (Cap.tag (Cap.set_addr s 4100));
  check "seal twice untags" false (Cap.tag (Cap.seal s ~otype:9));
  let u = Cap.unseal s ~otype:7 in
  check "unsealed tagged" true (Cap.tag u);
  check "unsealed can load" true (Cap.can_load u);
  check "wrong otype untags" false (Cap.tag (Cap.unseal s ~otype:8));
  check "seal otype 0 untags" false (Cap.tag (Cap.seal c ~otype:0))

let test_is_subset () =
  let p = Cap.set_bounds (root ()) ~base:4096 ~length:4096 in
  let c = Cap.set_bounds p ~base:4200 ~length:100 in
  check "child subset parent" true (Cap.is_subset c p);
  check "parent not subset child" false (Cap.is_subset p c)

(* ---- Property tests ---- *)

let gen_region =
  QCheck.Gen.(
    pair (int_bound ((1 lsl 24) - 1)) (map (fun n -> n + 1) (int_bound ((1 lsl 22) - 1))))

let arb_region = QCheck.make ~print:(fun (b, l) -> Printf.sprintf "(%d,%d)" b l) gen_region

let prop_monotone_bounds =
  QCheck.Test.make ~name:"derived bounds stay within parent" ~count:500 arb_region
    (fun (base, length) ->
      let c = Cap.set_bounds (root ()) ~base ~length in
      (not (Cap.tag c))
      || (Cap.base c <= base
         && Cap.top c >= base + length
         && Cap.base c >= 0
         && Cap.top c <= 1 lsl 32))

let prop_exact_request_tags =
  QCheck.Test.make ~name:"exact requests from root always tag" ~count:500 arb_region
    (fun (base, length) ->
      let b', l' = Compress.representable ~base ~length in
      let c = Cap.set_bounds_exact (root ()) ~base:b' ~length:l' in
      Cap.tag c && Cap.base c = b' && Cap.length c = l')

let prop_set_addr_preserves_bounds =
  QCheck.Test.make ~name:"set_addr never changes bounds" ~count:500
    (QCheck.pair arb_region QCheck.small_int) (fun ((base, length), a) ->
      let c = Cap.set_bounds (root ()) ~base ~length in
      let c' = Cap.set_addr c a in
      Cap.base c' = Cap.base c && Cap.length c' = Cap.length c)

let prop_perms_only_shrink =
  QCheck.Test.make ~name:"restrict_perms only clears bits" ~count:500
    (QCheck.pair QCheck.small_int QCheck.small_int) (fun (a, b) ->
      let pa = Perms.of_int a and pb = Perms.of_int b in
      Perms.subset (Perms.inter pa pb) pa && Perms.subset (Perms.inter pa pb) pb)

let prop_rounded_alignment_exact =
  QCheck.Test.make ~name:"round_length at required alignment is exact" ~count:500
    (QCheck.make QCheck.Gen.(map (fun n -> n + 1) (int_bound ((1 lsl 26) - 1))))
    (fun len ->
      let l = Compress.round_length len in
      let a = Compress.required_alignment l in
      Compress.is_exact ~base:(3 * a) ~length:l)

(* Requests up to base 2^30 and length 2^24, half of them with a length
   just under what some exponent e's mantissa holds, where padding both
   ends to 2^e can carry the length into exponent e + 1. *)
let arb_request =
  let gen =
    QCheck.Gen.(
      let base = int_bound ((1 lsl 30) - 1) in
      let any = pair base (int_range 1 ((1 lsl 24) - 1)) in
      let near_carry =
        let* e = int_range 1 10 in
        let* d = int_bound ((1 lsl e) - 1) in
        let* b = base in
        return (b, (((1 lsl Compress.mantissa_width) - 1) lsl e) - d)
      in
      oneof [ any; near_carry ])
  in
  QCheck.make ~print:(fun (b, l) -> Printf.sprintf "(base %d, length %d)" b l) gen

let prop_representable_idempotent =
  QCheck.Test.make ~name:"representable is idempotent and exact" ~count:2000 arb_request
    (fun (base, length) ->
      let base', length' = Compress.representable ~base ~length in
      Compress.representable ~base:base' ~length:length' = (base', length')
      && Compress.is_exact ~base:base' ~length:length')

(* ---- Flat encoding ---- *)

(* Encode into a fresh 16-byte buffer and decode back at the
   capability's own address. *)
let roundtrip c =
  let b = Bytes.make 16 '\000' in
  Cap.encode c b 0;
  Cap.decode b 0 ~addr:(Cap.addr c)

(* Every field, the cached window included. *)
let same_fields (a : Cap.t) (b : Cap.t) =
  a.tag = b.tag && a.base = b.base && a.length = b.length && a.addr = b.addr
  && Perms.equal a.perms b.perms && a.otype = b.otype && a.win_lo = b.win_lo
  && a.win_hi = b.win_hi

type step = Bounds of int * int | Perms of int | Addr of int | Seal of int

(* A derivation chain from a 2^40 root: a first [set_bounds] of at most
   2^39 bytes, some ending right at 2^40, then random steps. A step that
   would untag the capability is dropped, so the chain's result is
   tagged. Steps carry raw draws, scaled to the capability they meet. *)
let arb_chain =
  let gen =
    QCheck.Gen.(
      let* length = int_range 1 (1 lsl 39) in
      let* base =
        oneof
          [ int_bound ((1 lsl 40) - length); map (fun k -> (1 lsl 40) - length - k) (int_bound 4096) ]
      in
      let step =
        frequency
          [
            (3, map2 (fun o l -> Bounds (o, l)) (int_bound max_int) (int_bound max_int));
            (2, map (fun p -> Perms p) (int_bound 127));
            (3, map (fun a -> Addr a) (int_bound max_int));
            (1, map (fun o -> Seal o) (int_range 1 ((1 lsl 22) - 1)));
          ]
      in
      let* steps = list_size (int_range 0 8) step in
      return (base, length, steps))
  in
  let pp_step = function
    | Bounds (o, l) -> Printf.sprintf "bounds %d %d" o l
    | Perms p -> Printf.sprintf "perms %d" p
    | Addr a -> Printf.sprintf "addr %d" a
    | Seal o -> Printf.sprintf "seal %d" o
  in
  QCheck.make
    ~print:(fun (b, l, steps) ->
      Printf.sprintf "base %d length %d: %s" b l (String.concat "; " (List.map pp_step steps)))
    gen

let chain_root = Cap.root ~length:(1 lsl 40)

(* Every capability along the chain, in order, the first [set_bounds]
   included. *)
let derive_all (base, length, steps) =
  let apply (c : Cap.t) step =
    let c' =
      match step with
      | Bounds (o, l) ->
          let b = c.base + (o mod c.length) in
          Cap.set_bounds c ~base:b ~length:(1 + (l mod (Cap.top c - b)))
      | Perms p -> Cap.restrict_perms c (Perms.of_int p)
      | Addr a -> Cap.set_addr c (c.win_lo + (a mod (c.win_hi - c.win_lo)))
      | Seal o -> Cap.seal c ~otype:o
    in
    if Cap.tag c' then c' else c
  in
  let rec go c = function [] -> [ c ] | step :: rest -> c :: go (apply c step) rest in
  go (Cap.set_bounds chain_root ~base ~length) steps

let derive chain = List.fold_left (fun _ c -> c) Cap.null (derive_all chain)

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"decode (encode c) = c on derivation chains" ~count:2000 arb_chain
    (fun chain ->
      let c = derive chain in
      Cap.tag c && same_fields (roundtrip c) c)

(* ---- Sealing and monotonicity laws ---- *)

let arb_otype = QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 ((1 lsl 22) - 1))

(* A chain's tagged result, unsealed with its own type if it is
   sealed. *)
let unsealed chain =
  let c = derive chain in
  if Cap.is_sealed c then Cap.unseal c ~otype:(Cap.otype c) else c

let prop_seal_roundtrip =
  QCheck.Test.make ~name:"unseal (seal c) = c, misuse untags" ~count:1000
    (QCheck.triple arb_chain arb_otype arb_otype) (fun (chain, o, o') ->
      let c = unsealed chain in
      let s = Cap.seal c ~otype:o in
      Cap.tag c && Cap.tag s && Cap.is_sealed s
      && same_fields (Cap.unseal s ~otype:o) c
      && (o' = o || not (Cap.tag (Cap.unseal s ~otype:o')))
      && (not (Cap.tag (Cap.seal s ~otype:o')))
      && not (Cap.tag (Cap.unseal c ~otype:o)))

(* Raw draws scale to the sealed capability's own bounds, so each step
   would keep the tag on the same capability unsealed. *)
let prop_sealed_derivation_untags =
  QCheck.Test.make ~name:"derivation from a sealed capability untags" ~count:1000
    (QCheck.quad arb_chain arb_otype (QCheck.int_bound max_int) (QCheck.int_bound max_int))
    (fun (chain, o, x, y) ->
      let s = Cap.seal (unsealed chain) ~otype:o in
      let b = Cap.base s + (x mod Cap.length s) in
      let length = 1 + (y mod (Cap.top s - b)) in
      let p = Perms.of_int (x land 127) in
      let untagged c = not (Cap.tag c) in
      Cap.tag s
      && untagged (Cap.set_bounds s ~base:b ~length)
      && untagged (Cap.set_bounds_exact s ~base:(Cap.base s) ~length:(Cap.length s))
      && untagged (Cap.set_addr s (Cap.addr s))
      && untagged (Cap.restrict_perms s p)
      && untagged (Cap.restrict_perms s Perms.all)
      && untagged (Cap.clear_perm s p)
      && untagged (Cap.seal s ~otype:o))

let prop_chain_monotone =
  QCheck.Test.make ~name:"chain steps are subsets of parent and root" ~count:1000 arb_chain
    (fun chain ->
      let rec ok parent = function
        | [] -> true
        | c :: rest ->
            Cap.tag c && Cap.is_subset c parent && Cap.is_subset c chain_root && ok c rest
      in
      ok chain_root (derive_all chain))

let test_codec_limits () =
  let raises name c =
    let b = Bytes.make 16 '\007' in
    Alcotest.check_raises name (Invalid_argument "Capability.encode: field out of range")
      (fun () -> Cap.encode c b 0);
    check (name ^ ": nothing written") true (Bytes.equal b (Bytes.make 16 '\007'))
  in
  let wide = Cap.root ~length:(1 lsl 41) in
  raises "base 2^40" (Cap.set_bounds wide ~base:(1 lsl 40) ~length:16);
  raises "length 2^40" (Cap.root ~length:(1 lsl 40));
  let c = Cap.set_bounds wide ~base:4096 ~length:64 in
  raises "otype 2^22" (Cap.seal c ~otype:(1 lsl 22));
  (* the largest values that fit *)
  List.iter
    (fun (name, c) ->
      check (name ^ " tagged") true (Cap.tag c);
      check (name ^ " roundtrips") true (same_fields (roundtrip c) c))
    [
      ("base 2^40 - 16", Cap.set_bounds wide ~base:((1 lsl 40) - 16) ~length:16);
      ("length 2^40 - 1", Cap.set_bounds_exact wide ~base:0 ~length:((1 lsl 40) - (1 lsl 26)));
      ("otype 2^22 - 1", Cap.seal c ~otype:((1 lsl 22) - 1));
    ]

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "cheri"
    [
      ( "perms",
        [
          Alcotest.test_case "basics" `Quick test_perms_basics;
          Alcotest.test_case "lattice" `Quick test_perms_lattice;
        ] );
      ( "compress",
        [
          Alcotest.test_case "exact small" `Quick test_exact_small;
          Alcotest.test_case "padding large" `Quick test_padding_large;
          Alcotest.test_case "exponent carry" `Quick test_exponent_carry;
          Alcotest.test_case "window" `Quick test_window_contains_bounds;
        ] );
      ( "capability",
        [
          Alcotest.test_case "root" `Quick test_root;
          Alcotest.test_case "set_bounds" `Quick test_set_bounds_basic;
          Alcotest.test_case "escape untags" `Quick test_set_bounds_escape_untags;
          Alcotest.test_case "negative length" `Quick test_set_bounds_negative;
          Alcotest.test_case "null derivation" `Quick test_untagged_derivation;
          Alcotest.test_case "set_addr window" `Quick test_set_addr_window;
          Alcotest.test_case "deref checks" `Quick test_deref_checks;
          Alcotest.test_case "untag blocks deref" `Quick test_untag_blocks_deref;
          Alcotest.test_case "sealing" `Quick test_sealing;
          Alcotest.test_case "is_subset" `Quick test_is_subset;
          Alcotest.test_case "encode limits" `Quick test_codec_limits;
        ] );
      ( "properties",
        qt
          [
            prop_monotone_bounds;
            prop_exact_request_tags;
            prop_set_addr_preserves_bounds;
            prop_perms_only_shrink;
            prop_rounded_alignment_exact;
            prop_representable_idempotent;
            prop_codec_roundtrip;
            prop_seal_roundtrip;
            prop_sealed_derivation_untags;
            prop_chain_monotone;
          ] );
    ]
