(* Host clocks.

   Spans and the run's time budget use CLOCK_MONOTONIC in nanoseconds,
   through bechamel's stub, declared here with an unboxed result so that
   a reading allocates nothing on the traced hot path.

   Pass and set-up times are process CPU time (user + system, from
   getrusage): the benchmark is one single-domain process, so on an idle
   host this equals wall time, and on a shared one it leaves out the
   time the process waited for a core, which other tenants' load
   decides. *)

external now_raw : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let[@inline] now_ns () = Int64.to_int (now_raw ())
let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9

let cpu_s () = Sys.time ()
