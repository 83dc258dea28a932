module Trace = Sim.Trace

type footprint = {
  globals : string list; (* machine-wide protocol state touched *)
  regions : (int * int) list; (* quarantine regions: base, size *)
  caps : int list; (* granules hit by tagged capability stores *)
}

let empty = { globals = []; regions = []; caps = [] }
let is_empty f = f.globals = [] && f.regions = [] && f.caps = []
let granule a = a land lnot 15

let add_event f (e : Trace.event) =
  match e.Trace.kind with
  | Trace.Paint | Trace.Unpaint | Trace.Quarantine_enq | Trace.Quarantine_deq
  | Trace.Reuse | Trace.Quota_charge | Trace.Quota_credit ->
      (* arg: region base; arg2: size (0 if unused — cover one granule) *)
      let r = (e.Trace.arg, max e.Trace.arg2 16) in
      if List.mem r f.regions then f else { f with regions = r :: f.regions }
  | Trace.Context_switch | Trace.Req_shed | Trace.Req_lost
  | Trace.Governor_defer | Trace.Governor_force
  | Trace.Governor_quantum | Trace.Slo_violation | Trace.Quota_deny
  | Trace.Free_all | Trace.Custom _ ->
      f
  | k ->
      let g = Trace.kind_name k in
      if List.mem g f.globals then f else { f with globals = g :: f.globals }

let add_cap_store f ~vaddr =
  let g = granule vaddr in
  if List.mem g f.caps then f else { f with caps = g :: f.caps }

let overlap (b1, s1) (b2, s2) = b1 < b2 + s2 && b2 < b1 + s1

(* Regions and cap-store granules live in one address comparison; a
   granule is a 16-byte region. *)
let spans f = f.regions @ List.map (fun a -> (a, 16)) f.caps

let dependent f1 f2 =
  if is_empty f1 || is_empty f2 then false
  else if f1.globals <> [] || f2.globals <> [] then true
  else
    let s2 = spans f2 in
    List.exists (fun r -> List.exists (overlap r) s2) (spans f1)

let pp fmt f =
  if is_empty f then Format.fprintf fmt "(empty)"
  else begin
    List.iter (fun g -> Format.fprintf fmt "%s " g) f.globals;
    List.iter (fun (b, s) -> Format.fprintf fmt "[%#x+%d] " b s) f.regions;
    List.iter (fun a -> Format.fprintf fmt "cap:%#x " a) f.caps
  end
