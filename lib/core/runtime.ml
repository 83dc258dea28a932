module Machine = Sim.Machine
module Backend = Alloc.Backend

type mode = Baseline | Safe of Revoker.strategy
type allocator_kind = Snmalloc | Jemalloc

let mode_name = function
  | Baseline -> "baseline"
  | Safe s -> Revoker.strategy_name s

let all_modes = Baseline :: List.map (fun s -> Safe s) Revoker.all_strategies

let mode_of_name = function
  | "baseline" -> Some Baseline
  | "paint" | "paint-sync" -> Some (Safe Revoker.Paint_sync)
  | s -> Option.map (fun st -> Safe st) (Revoker.strategy_of_name s)

let machine_config ?(processes = 1) ~heap_bytes ~seed () =
  {
    Machine.default_config with
    heap_bytes;
    mem_bytes = (processes * (heap_bytes + (heap_bytes / 16))) + (8 * 1024 * 1024);
    seed;
  }

type t = {
  machine : Machine.t;
  alloc : Backend.t;
  hoards : Kernel.Hoard.t;
  mode : mode;
  mrs : Mrs.t option;
  revoker : Revoker.t option;
}

let create ?(config = Machine.default_config) ?(policy = Policy.default)
    ?(revoker_core = 2) ?(non_temporal = false) ?recovery
    ?(allocator = Snmalloc) mode =
  let machine = Machine.create config in
  let alloc =
    match allocator with
    | Snmalloc -> Backend.snmalloc (Alloc.Allocator.create machine)
    | Jemalloc -> Backend.jemalloc (Alloc.Jemalloc.create machine)
  in
  let hoards = Kernel.Hoard.create () in
  match mode with
  | Baseline -> { machine; alloc; hoards; mode; mrs = None; revoker = None }
  | Safe strategy ->
      let revoker =
        Revoker.create machine ~strategy ~core:revoker_core ~non_temporal
          ?recovery ~hoards ()
      in
      let mrs = Mrs.create machine ~alloc ~revoker ~policy () in
      { machine; alloc; hoards; mode; mrs = Some mrs; revoker = Some revoker }

let malloc t ctx size =
  match t.mrs with
  | Some mrs -> Mrs.malloc mrs ctx size
  | None -> t.alloc.Backend.malloc ctx size

let free t ctx cap =
  match t.mrs with
  | Some mrs -> Mrs.free mrs ctx cap
  | None -> t.alloc.Backend.free ctx cap

let finish t ctx =
  match t.mrs with Some mrs -> Mrs.finish mrs ctx | None -> ()

let revoker_records t =
  match t.revoker with Some r -> Revoker.records r | None -> []

let mrs_stats t = Option.map Mrs.stats t.mrs
