module Capability = Cheri.Capability
module Machine = Sim.Machine
module Cost = Sim.Cost

type t = {
  caps : (int, Capability.t) Hashtbl.t;
  mutable next : int;
}

let create () = { caps = Hashtbl.create 64; next = 0 }

let register t ctx c =
  Machine.charge ctx Cost.syscall_entry;
  let h = t.next in
  t.next <- t.next + 1;
  Hashtbl.replace t.caps h c;
  h

let retrieve t ctx h =
  Machine.charge ctx Cost.syscall_entry;
  match Hashtbl.find_opt t.caps h with
  | Some c -> c
  | None -> raise Not_found

let deregister t ctx h =
  Machine.charge ctx Cost.syscall_entry;
  Hashtbl.remove t.caps h

let scan t ~f =
  let n = Hashtbl.length t.caps in
  Hashtbl.iter
    (fun h c -> if Capability.tag c then Hashtbl.replace t.caps h (f c))
    t.caps;
  n

let iter t ~f = Hashtbl.iter f t.caps
let size t = Hashtbl.length t.caps
