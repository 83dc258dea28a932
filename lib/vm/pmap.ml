type t = {
  asid : int;
  slots : Pte.t option array; (* indexed by vpage *)
  mutable count : int;
  mutable generation : bool;
  mutable lock_holder : int option;
}

let create ~asid ~pages =
  { asid; slots = Array.make pages None; count = 0; generation = false; lock_holder = None }

let asid t = t.asid
let[@inline] inside t vpage = vpage >= 0 && vpage < Array.length t.slots

let enter t ~vpage pte =
  if not (inside t vpage) then invalid_arg "Pmap.enter: vpage outside the table";
  (match Array.unsafe_get t.slots vpage with None -> t.count <- t.count + 1 | Some _ -> ());
  Array.unsafe_set t.slots vpage (Some pte)

let remove t ~vpage =
  if inside t vpage then
    match Array.unsafe_get t.slots vpage with
    | None -> ()
    | Some _ ->
        Array.unsafe_set t.slots vpage None;
        t.count <- t.count - 1

let lookup t ~vpage = if inside t vpage then Array.unsafe_get t.slots vpage else None
let mem t ~vpage = Option.is_some (lookup t ~vpage)
let page_count t = t.count

let iter t ~f =
  Array.iteri (fun vp slot -> match slot with Some pte -> f vp pte | None -> ()) t.slots

let vpages_in t ~lo ~hi =
  let acc = ref [] in
  for vp = Int.min hi (Array.length t.slots - 1) downto Int.max lo 0 do
    match Array.unsafe_get t.slots vp with Some _ -> acc := vp :: !acc | None -> ()
  done;
  !acc

let generation t = t.generation
let set_generation t g = t.generation <- g

let lock t ~who =
  match t.lock_holder with
  | Some owner when owner = who -> invalid_arg "Pmap.lock: re-entrant acquisition"
  | Some _ ->
      (* Cooperative scheduling: the previous holder must have released at
         its last safe point; observing a holder here means contention. *)
      t.lock_holder <- Some who;
      true
  | None ->
      t.lock_holder <- Some who;
      false

let unlock t ~who =
  match t.lock_holder with
  | Some owner when owner = who -> t.lock_holder <- None
  | _ -> invalid_arg "Pmap.unlock: not the holder"
