(* [lookup] runs on every simulated TLB miss, and a mature workload's
   random heap traffic misses the (architecturally small) TLB most of
   the time — so the authoritative hashtable sits behind a host-side
   direct-mapped cache of the option values themselves. The cache is
   pure memoization: [enter]/[remove] keep it exact, and hits return the
   same option [Hashtbl.find_opt] would, without hashing or allocation. *)
let cache_size = 8192 (* power of two *)

type t = {
  asid : int;
  pages : (int, Pte.t) Hashtbl.t;
  cache_key : int array; (* vpage, or -1 = unknown *)
  cache_val : Pte.t option array;
  mutable sorted : int array option;
      (* every mapped vpage, ascending; [None] after an [enter] or a
         [remove] until the next enumeration rebuilds it *)
  mutable generation : bool;
  mutable lock_holder : int option;
  mutable lock_acquisitions : int;
  mutable contended : int;
  mutable busy_count : int;
}

let create ~asid =
  {
    asid;
    pages = Hashtbl.create 1024;
    cache_key = Array.make cache_size (-1);
    cache_val = Array.make cache_size None;
    sorted = None;
    generation = false;
    lock_holder = None;
    lock_acquisitions = 0;
    contended = 0;
    busy_count = 0;
  }

let asid t = t.asid

let cache_store t ~vpage v =
  let s = vpage land (cache_size - 1) in
  t.cache_key.(s) <- vpage;
  t.cache_val.(s) <- v

let enter t ~vpage pte =
  Hashtbl.replace t.pages vpage pte;
  cache_store t ~vpage (Some pte);
  t.sorted <- None

let remove t ~vpage =
  Hashtbl.remove t.pages vpage;
  cache_store t ~vpage None;
  t.sorted <- None

let lookup t ~vpage =
  let s = vpage land (cache_size - 1) in
  if t.cache_key.(s) = vpage then t.cache_val.(s)
  else begin
    let v = Hashtbl.find_opt t.pages vpage in
    t.cache_key.(s) <- vpage;
    t.cache_val.(s) <- v;
    v
  end
let mem t ~vpage = Hashtbl.mem t.pages vpage
let page_count t = Hashtbl.length t.pages
let iter t ~f = Hashtbl.iter f t.pages

let vpages_in t ~lo ~hi =
  let sorted =
    match t.sorted with
    | Some a -> a
    | None ->
        let a = Array.make (Hashtbl.length t.pages) 0 and i = ref 0 in
        Hashtbl.iter
          (fun vp _ ->
            a.(!i) <- vp;
            incr i)
          t.pages;
        Array.sort Int.compare a;
        t.sorted <- Some a;
        a
  in
  Array.fold_right (fun vp acc -> if vp >= lo && vp <= hi then vp :: acc else acc) sorted []

let generation t = t.generation
let set_generation t g = t.generation <- g

let lock t ~who =
  match t.lock_holder with
  | Some owner when owner = who -> invalid_arg "Pmap.lock: re-entrant acquisition"
  | Some _ ->
      (* Cooperative scheduling: the previous holder must have released at
         its last safe point; observing a holder here means contention. *)
      t.contended <- t.contended + 1;
      t.lock_holder <- Some who;
      t.lock_acquisitions <- t.lock_acquisitions + 1;
      true
  | None ->
      t.lock_holder <- Some who;
      t.lock_acquisitions <- t.lock_acquisitions + 1;
      false

let unlock t ~who =
  match t.lock_holder with
  | Some owner when owner = who -> t.lock_holder <- None
  | _ -> invalid_arg "Pmap.unlock: not the holder"

let lock_acquisitions t = t.lock_acquisitions
let busy t = t.busy_count <- t.busy_count + 1

let unbusy t =
  if t.busy_count <= 0 then invalid_arg "Pmap.unbusy: not busy";
  t.busy_count <- t.busy_count - 1

let is_busy t = t.busy_count > 0
