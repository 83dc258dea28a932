type t = { phys : Phys.t; layout : Layout.t; pmap : Pmap.t }

let pmap t = t.pmap
let layout t = t.layout
let phys t = t.phys
let page = Phys.page_size

let map_pages t ~vaddr ~len ~writable ~cap_store =
  let first = vaddr / page and last = (vaddr + len - 1) / page in
  let fresh = ref 0 in
  for vp = first to last do
    if not (Pmap.mem t.pmap ~vpage:vp) then begin
      let frame = Phys.alloc_frame t.phys in
      Phys.zero_frame t.phys frame;
      let pte = Pte.make ~frame ~writable ~clg:(Pmap.generation t.pmap) in
      pte.Pte.cap_store <- cap_store;
      Pmap.enter t.pmap ~vpage:vp pte;
      incr fresh
    end
  done;
  !fresh

let map_range t ~vaddr ~len ~writable = map_pages t ~vaddr ~len ~writable ~cap_store:true

(* The table ends with the layout's last region, the shadow bitmap. *)
let empty phys layout ~asid =
  { phys; layout; pmap = Pmap.create ~asid ~pages:(layout.Layout.shadow_limit / page) }

(* The shadow bitmap is a kernel-provided object: mapped eagerly,
   writable, but never allowed to carry capabilities. *)
let create phys layout ~asid =
  let t = empty phys layout ~asid in
  let lo = layout.Layout.shadow_base in
  ignore
    (map_pages t ~vaddr:lo ~len:(layout.Layout.shadow_limit - lo) ~writable:true
       ~cap_store:false);
  t

let translate t va =
  match Pmap.lookup t.pmap ~vpage:(va / page) with
  | None -> None
  | Some pte -> Some (Phys.frame_addr pte.Pte.frame + (va land (page - 1)), pte)

let mapped_pages t = Pmap.page_count t.pmap
let asid t = Pmap.asid t.pmap

(* Copy-on-write fork. Every mapping is shared frame-for-frame: writable
   pages (in both parent and child) are downgraded to read-only with the
   [cow] bit set so the first store on either side takes a fault and gets
   a private copy. The child pmap inherits the parent's CLG generation and
   each PTE keeps its per-page [clg] bit (§4.3: the child inherits the
   parent's revocation-in-progress state verbatim). Returns the new space
   and the parent vpages that were downgraded — the caller must shoot
   those down from TLBs so stale writable snapshots cannot linger. *)
let fork t ~asid =
  let child = empty t.phys t.layout ~asid in
  Pmap.set_generation child.pmap (Pmap.generation t.pmap);
  let downgraded = ref [] in
  Pmap.iter t.pmap ~f:(fun vp (pte : Pte.t) ->
      Phys.ref_frame t.phys pte.Pte.frame;
      let cpte = Pte.make ~frame:pte.Pte.frame ~writable:false ~clg:pte.Pte.clg in
      cpte.Pte.readable <- pte.Pte.readable;
      cpte.Pte.cap_store <- pte.Pte.cap_store;
      cpte.Pte.cap_dirty <- pte.Pte.cap_dirty;
      cpte.Pte.load_trap <- pte.Pte.load_trap;
      cpte.Pte.wired <- pte.Pte.wired;
      cpte.Pte.cow <- pte.Pte.writable || pte.Pte.cow;
      Pmap.enter child.pmap ~vpage:vp cpte;
      if pte.Pte.writable then begin
        pte.Pte.writable <- false;
        pte.Pte.cow <- true;
        downgraded := vp :: !downgraded
      end);
  (child, List.rev !downgraded)

(* Resolve a CoW fault on [vpage]. If the frame is no longer shared the
   PTE is upgraded in place; otherwise the frame is duplicated. Returns
   [true] iff a physical copy happened (the caller charges for it). *)
let cow_break t ~vpage =
  match Pmap.lookup t.pmap ~vpage with
  | None -> invalid_arg "Aspace.cow_break: unmapped vpage"
  | Some pte ->
      if not pte.Pte.cow then invalid_arg "Aspace.cow_break: not a CoW page";
      let copied =
        if Phys.frame_refs t.phys pte.Pte.frame = 1 then false
        else begin
          let fresh = Phys.alloc_frame t.phys in
          Phys.copy_frame t.phys ~src:pte.Pte.frame ~dst:fresh;
          Phys.free_frame t.phys pte.Pte.frame;
          pte.Pte.frame <- fresh;
          true
        end
      in
      pte.Pte.writable <- true;
      pte.Pte.cow <- false;
      copied

(* Tear down every mapping (process reap / exec). Frames are dropped by
   one reference each; shared CoW frames survive in their other owners. *)
let release_all t =
  let released = Pmap.page_count t.pmap in
  Pmap.iter t.pmap ~f:(fun vp pte ->
      Phys.free_frame t.phys pte.Pte.frame;
      Pmap.remove t.pmap ~vpage:vp);
  released
