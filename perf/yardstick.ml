(* A fixed host workload that shares no code with the simulator, timed
   next to every cell so that pass times can be read against the speed
   the host had at that moment.

   The benchmark's host is a shared virtual machine: other tenants' load
   moves its speed by 10-25 % over tens of seconds, with no steal time
   to show for it. The kernel mixes what the simulator does — random
   read-modify-writes over a table larger than the caches, dependent
   integer arithmetic, short-lived small allocations, and effect-handler
   round trips like the ones that switch simulated threads — so its time
   tracks those swings (per-pass correlation 0.88-0.98 with the four
   workloads, one kernel run before and one after each cell; either half
   alone tracks some workload worse). It lives here, not in a library,
   so no change to the simulator can speed it up. *)

let words = 1 lsl 22 (* 32 MiB of ints *)
let table = lazy (Array.make words 0)
let steps = 200_000
let switches = 400_000

(* Typical CPU seconds of one [run] on the host the baseline was
   measured on (a 2-core x86-64 container), so that a normalized time
   reads as seconds on that host. *)
let reference_s = 0.009

let memory table =
  let s = ref 88172645463325252 in
  let keep = ref [] in
  for i = 1 to steps do
    let x = !s in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    s := x;
    let j = x land (words - 1) in
    table.(j) <- table.(j) + ((i * 3) lxor (j lsr 3));
    if i land 7 = 0 then keep := (i, j) :: (if i land 1023 = 0 then [] else !keep)
  done;
  ignore (Sys.opaque_identity !keep)

type _ Effect.t += Switch : unit Effect.t

let fibers () =
  let open Effect.Deep in
  match_with
    (fun () ->
      for _ = 1 to switches do
        Effect.perform Switch
      done)
    ()
    {
      retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Switch -> Some (fun (k : (a, unit) continuation) -> continue k ())
          | _ -> None);
    }

(* CPU seconds of one run (the table is built outside the timing). *)
let time () =
  let table = Lazy.force table in
  let t0 = Clock.cpu_s () in
  memory table;
  fibers ();
  Clock.cpu_s () -. t0
