module Capability = Cheri.Capability
module Perms = Cheri.Perms
module Layout = Vm.Layout
module Machine = Sim.Machine
module Cost = Sim.Cost

let run_pages = 4 (* 16 KiB runs, as jemalloc uses for small bins *)
let run_bytes = run_pages * Vm.Phys.page_size

type run = {
  r_base : int;
  r_class : int; (* size-class index *)
  r_region : int; (* bytes per region *)
  r_nregions : int;
  occupancy : Bytes.t; (* 1 byte per region: '\001' live or quarantined *)
  mutable r_used : int;
}

type t = {
  m : Machine.t;
  aspace : Vm.Aspace.t;
  heap_cap : Capability.t;
  bins : run list array; (* per class: non-full runs, address-ordered *)
  full : (int, run) Hashtbl.t; (* run base -> run, when full *)
  run_of_addr : (int, run) Hashtbl.t; (* run base page -> run *)
  mutable run_cache : int list; (* retired run bases *)
  large_free : (int, int list) Hashtbl.t;
  live : (int, int) Hashtbl.t; (* base -> rounded size *)
  dirty : (int, unit) Hashtbl.t;
  heap_limit : int;
  mutable bump : int;
  mutable live_bytes : int;
  mutable allocations : int;
  mutable peak_rss : int;
  mutable runs : int;
  mutable scrub_bytes : int;
}

let create ?aspace m =
  let aspace = match aspace with Some a -> a | None -> Machine.aspace m in
  let layout = Vm.Aspace.layout aspace in
  let heap_base = layout.Layout.heap_base in
  let heap_limit = layout.Layout.heap_limit in
  let root = Capability.root ~length:(1 lsl 40) in
  let heap_cap =
    Capability.set_bounds root ~base:heap_base ~length:(heap_limit - heap_base)
  in
  assert (Capability.tag heap_cap);
  {
    m;
    aspace;
    heap_cap;
    bins = Array.make Sizeclass.num_classes [];
    full = Hashtbl.create 64;
    run_of_addr = Hashtbl.create 256;
    run_cache = [];
    large_free = Hashtbl.create 16;
    live = Hashtbl.create 4096;
    dirty = Hashtbl.create 4096;
    heap_limit;
    bump = heap_base;
    live_bytes = 0;
    allocations = 0;
    peak_rss = 0;
    runs = 0;
    scrub_bytes = 0;
  }

let note_rss t =
  let rss = Vm.Aspace.mapped_pages t.aspace in
  if rss > t.peak_rss then t.peak_rss <- rss

let align_up x a = (x + a - 1) land lnot (a - 1)

let bump_alloc t ctx ~size ~align =
  let base = align_up t.bump align in
  if base + size > t.heap_limit then raise Out_of_memory;
  t.bump <- base + size;
  Machine.map ctx ~vaddr:base ~len:size ~writable:true;
  base

let fresh_run t ctx cls =
  let region = Sizeclass.size_of_class cls in
  let base =
    match t.run_cache with
    | b :: rest ->
        t.run_cache <- rest;
        b
    | [] -> bump_alloc t ctx ~size:run_bytes ~align:Vm.Phys.page_size
  in
  let n = run_bytes / region in
  let run =
    {
      r_base = base;
      r_class = cls;
      r_region = region;
      r_nregions = n;
      occupancy = Bytes.make n '\000';
      r_used = 0;
    }
  in
  Hashtbl.replace t.run_of_addr base run;
  t.runs <- t.runs + 1;
  run

(* insert keeping address order: lowest-address non-full run first, the
   heart of jemalloc's locality story *)
let rec insert_sorted run = function
  | [] -> [ run ]
  | r :: rest as l ->
      if run.r_base < r.r_base then run :: l else r :: insert_sorted run rest

let retire_run t run =
  Hashtbl.remove t.run_of_addr run.r_base;
  t.run_cache <- run.r_base :: t.run_cache;
  t.runs <- t.runs - 1

(* Runs are page-aligned spans of [run_pages] pages: the containing run's
   base is one of the [run_pages] page-aligned addresses at or below
   [addr]. *)
let run_containing t addr =
  let rec probe base n =
    if n = 0 then None
    else
      match Hashtbl.find_opt t.run_of_addr base with
      | Some run when addr >= run.r_base && addr < run.r_base + run_bytes ->
          Some run
      | _ -> probe (base - Vm.Phys.page_size) (n - 1)
  in
  probe (addr land lnot (Vm.Phys.page_size - 1)) run_pages

let derive t base size =
  let c = Capability.set_bounds_exact t.heap_cap ~base ~length:size in
  assert (Capability.tag c);
  Capability.restrict_perms c Perms.read_write

let alloc_small t ctx cls =
  let run =
    match t.bins.(cls) with
    | r :: _ -> r
    | [] ->
        let r = fresh_run t ctx cls in
        t.bins.(cls) <- [ r ];
        r
  in
  (* first-fit within the run *)
  let rec find i =
    if i >= run.r_nregions then invalid_arg "Jemalloc: full run in bin"
    else if Bytes.get run.occupancy i = '\000' then i
    else find (i + 1)
  in
  let i = find 0 in
  Bytes.set run.occupancy i '\001';
  run.r_used <- run.r_used + 1;
  if run.r_used = run.r_nregions then begin
    t.bins.(cls) <- List.filter (fun r -> r.r_base <> run.r_base) t.bins.(cls);
    Hashtbl.replace t.full run.r_base run
  end;
  run.r_base + (i * run.r_region)

let malloc t ctx req =
  Machine.charge ctx Cost.malloc_fixed;
  let size = Sizeclass.rounded_size req in
  let base =
    match Sizeclass.class_of_size size with
    | Some cls when Sizeclass.size_of_class cls = size && size <= run_bytes ->
        alloc_small t ctx cls
    | _ -> (
        match Hashtbl.find_opt t.large_free size with
        | Some (b :: rest) ->
            Hashtbl.replace t.large_free size rest;
            b
        | Some [] | None ->
            bump_alloc t ctx ~size ~align:(Cheri.Compress.required_alignment size))
  in
  Hashtbl.replace t.live base size;
  t.live_bytes <- t.live_bytes + size;
  t.allocations <- t.allocations + 1;
  let cap = derive t base size in
  if Hashtbl.mem t.dirty base then begin
    Hashtbl.remove t.dirty base;
    t.scrub_bytes <- t.scrub_bytes + size;
    Machine.zero ctx cap
  end
  else Machine.touch ctx cap ~write:true;
  note_rss t;
  cap

let withdraw t ctx cap =
  Machine.charge ctx Cost.free_fixed;
  let base = Capability.base cap in
  match Hashtbl.find_opt t.live base with
  | None ->
      invalid_arg
        (Printf.sprintf "Jemalloc.withdraw: %#x is not a live allocation" base)
  | Some size ->
      Hashtbl.remove t.live base;
      t.live_bytes <- t.live_bytes - size;
      size

(* Return a region to its run: flips the occupancy bit; a run emptied by
   this release leaves its bin and is retired to the cache. *)
let release_range t ctx ~addr ~size =
  Machine.charge ctx Cost.free_fixed;
  Hashtbl.replace t.dirty addr ();
  match run_containing t addr with
  | Some run when size = run.r_region ->
      let i = (addr - run.r_base) / run.r_region in
      if Bytes.get run.occupancy i = '\000' then
        invalid_arg "Jemalloc.release_range: double release";
      Bytes.set run.occupancy i '\000';
      let was_full = run.r_used = run.r_nregions in
      run.r_used <- run.r_used - 1;
      if was_full then begin
        Hashtbl.remove t.full run.r_base;
        t.bins.(run.r_class) <- insert_sorted run t.bins.(run.r_class)
      end;
      if run.r_used = 0 then begin
        t.bins.(run.r_class) <-
          List.filter (fun r -> r.r_base <> run.r_base) t.bins.(run.r_class);
        retire_run t run
      end
  | Some _ | None ->
      let l = Option.value ~default:[] (Hashtbl.find_opt t.large_free size) in
      Hashtbl.replace t.large_free size (addr :: l)

let free t ctx cap =
  let base = Capability.base cap in
  let size = withdraw t ctx cap in
  Machine.touch ctx cap ~write:true;
  release_range t ctx ~addr:base ~size

let live_bytes t = t.live_bytes
let allocation_count t = t.allocations
let peak_rss_pages t = t.peak_rss
let run_count t = t.runs
let scrub_bytes t = t.scrub_bytes

let check_invariants t =
  Hashtbl.iter
    (fun base run ->
      if base <> run.r_base then failwith "Jemalloc: run index corrupt";
      let used = ref 0 in
      Bytes.iter (fun c -> if c <> '\000' then incr used) run.occupancy;
      if !used <> run.r_used then failwith "Jemalloc: occupancy count corrupt")
    t.run_of_addr;
  Array.iteri
    (fun cls runs ->
      List.iter
        (fun r ->
          if r.r_class <> cls then failwith "Jemalloc: run in wrong bin";
          if r.r_used >= r.r_nregions then failwith "Jemalloc: full run in bin";
          if r.r_used = 0 then failwith "Jemalloc: empty run not retired")
        runs;
      ignore
        (List.fold_left
           (fun prev r ->
             if r.r_base < prev then failwith "Jemalloc: bin not address-ordered";
             r.r_base)
           min_int runs))
    t.bins
