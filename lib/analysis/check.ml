type t = Sanitizer.t * Race.t

let attach ?revoker m =
  if Sim.Machine.tracer m = None then begin
    let tr = Sim.Trace.create () in
    Sim.Machine.attach_tracer m (Some tr);
    Sim.Trace.set_warn_on_drop tr false
  end;
  (Sanitizer.attach ?revoker m, Race.attach m)

let attach_runtime (rt : Ccr.Runtime.t) = attach ?revoker:rt.revoker rt.machine

let attach_os os =
  let init_rt = Os.runtime (Os.init os) in
  let ((san, _) as c) = attach ?revoker:init_rt.revoker (Os.machine os) in
  Os.set_on_process os (fun p ->
      Sanitizer.register_process san ~pid:(Os.pid p) ?revoker:(Os.runtime p).revoker ());
  c

let verdict check ~drift =
  let b = Buffer.create 0 in
  let fmt = Format.formatter_of_buffer b in
  let ok =
    match check with
    | None -> true
    | Some (san, race) ->
        Sanitizer.finish san;
        if not (Sanitizer.ok san) then Sanitizer.report fmt san;
        if not (Race.ok race) then Race.report fmt race;
        Sanitizer.ok san && Race.ok race
  in
  List.iter (Format.fprintf fmt "%s@.") drift;
  Format.pp_print_flush fmt ();
  (ok && drift = [], Buffer.contents b)
