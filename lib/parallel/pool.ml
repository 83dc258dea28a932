let default_jobs () = max 1 (min 16 (Domain.recommended_domain_count ()))

type 'b outcome =
  | Pending
  | Done of 'b
  | Failed of exn * Printexc.raw_backtrace

let map ?jobs f xs =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  if jobs = 1 then List.map f xs
  else begin
    let items = Array.of_list xs in
    let n = Array.length items in
    let results = Array.make n Pending in
    let next = Atomic.make 0 in
    let rec worker () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (* each slot is written by exactly one domain (the one that won
           the fetch-and-add for index [i]) and read only after the
           join, so plain array stores are race-free *)
        (results.(i) <-
           (match f items.(i) with
            | v -> Done v
            | exception e -> Failed (e, Printexc.get_raw_backtrace ())));
        worker ()
      end
    in
    let spawned = min (jobs - 1) (max 0 (n - 1)) in
    let domains = List.init spawned (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join domains;
    (* re-raise the lowest-indexed failure so error reporting is as
       deterministic as success output *)
    Array.iter
      (function
        | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
        | Pending | Done _ -> ())
      results;
    Array.to_list
      (Array.map
         (function
           | Done v -> v
           | Pending | Failed _ -> assert false)
         results)
  end
