module Loadgen = Service.Loadgen
module Slo = Service.Slo
module Governor = Service.Governor

(* Cycles of compute per request. *)
let compute_per_req = 30_000

type config = {
  pattern : Loadgen.pattern;
  requests : int;
  servers : int;
  queue_depth : int;
  deadline_us : float option;
  target_p99_us : float;
  session_slots : int;
  seed : int;
}

let default_config =
  {
    pattern = Loadgen.Poisson 20_000.0;
    requests = 6_000;
    servers = 2;
    queue_depth = 64;
    deadline_us = None;
    target_p99_us = 1_000.0;
    session_slots = 20_000;
    seed = 11;
  }

type outcome = {
  result : Result.t;
  offered : int;
  served : int;
  shed_depth : int;
  shed_deadline : int;
  slo : Slo.t;
  governor : Governor.stats option;
}

let run ?(config = default_config) ?tracer ?on_runtime ?(governed = false) ~mode () =
  let cfg = config in
  let o =
    Rig.run ?tracer ?on_runtime
      {
        Rig.name = "serve";
        mode;
        governed;
        policy = None;
        heap_mb = 24;
        servers = cfg.servers;
        queue_depth = cfg.queue_depth;
        deadline_us = cfg.deadline_us;
        brownout = None;
        target_p99_us = cfg.target_p99_us;
        session_slots = cfg.session_slots;
        compute_per_req;
        seed = cfg.seed;
        clock = Rig.After_setup;
        windows = [];
        check = false;
      }
      ~arrivals:
        (Loadgen.schedule
           { Loadgen.pattern = cfg.pattern; requests = cfg.requests; seed = cfg.seed })
      ~classes:(fun _ -> 0)
  in
  {
    result = o.Rig.result;
    offered = Slo.offered o.Rig.slo;
    served = o.Rig.served;
    shed_depth = o.Rig.shed_depth;
    shed_deadline = o.Rig.shed_deadline;
    slo = o.Rig.slo;
    governor = o.Rig.governor;
  }
