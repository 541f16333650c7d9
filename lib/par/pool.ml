module Metrics = Incdb_obs.Metrics
module Events = Incdb_obs.Events

(* Registered eagerly so the pool's activity always shows up in metric
   exports, at zero when nothing ran in parallel. *)
let tasks_run = Metrics.counter "par.tasks_run"
let domains_spawned = Metrics.counter "par.domains_spawned"
let chunks_claimed = Metrics.counter "par.chunks_claimed"

let recommended () = Domain.recommended_domain_count ()

let resolve jobs =
  if jobs < 0 then invalid_arg "Pool.resolve: negative job count"
  else if jobs = 0 then recommended ()
  else jobs

type failure = { index : int; exn : exn; bt : Printexc.raw_backtrace }

(* Keep the failure of the lowest-indexed failing task, so which
   exception the caller sees does not depend on domain scheduling. *)
let record_failure cell index exn bt =
  let rec go () =
    let cur = Atomic.get cell in
    match cur with
    | Some f when f.index <= index -> ()
    | _ ->
      if not (Atomic.compare_and_set cell cur (Some { index; exn; bt })) then
        go ()
  in
  go ()

let run ~jobs tasks =
  let tasks = Array.of_list tasks in
  let n = Array.length tasks in
  if n = 0 then []
  else begin
    let workers = max 1 (min (resolve jobs) n) in
    if workers = 1 then
      Array.to_list
        (Array.map
           (fun task ->
             Metrics.incr tasks_run;
             task ())
           tasks)
    else begin
      let results = Array.make n None in
      let failure : failure option Atomic.t = Atomic.make None in
      let next = Atomic.make 0 in
      (* Guided self-scheduling: each claim takes half an even share of
         the remaining tasks, so chunks start large (few atomic
         operations while the queue is full) and halve down to single
         tasks at the tail (no worker left holding a big chunk while the
         others idle).  The claim sequence — hence which worker runs
         which task — never affects results: they are stored by index. *)
      let claim () =
        let rec go () =
          let i = Atomic.get next in
          if i >= n then None
          else
            let chunk = max 1 ((n - i) / (2 * workers)) in
            let stop = min n (i + chunk) in
            if Atomic.compare_and_set next i stop then begin
              Metrics.incr chunks_claimed;
              Events.instant "pool.claim"
                ~args:(fun () -> [ ("lo", Events.Int i); ("hi", Events.Int stop) ]);
              Some (i, stop)
            end
            else go ()
        in
        go ()
      in
      let worker () =
        let rec loop () =
          if Atomic.get failure = None then
            match claim () with
            | None -> ()
            | Some (lo, hi) ->
              (* A claimed chunk always runs to completion: chunks are
                 claimed in index order, so the lowest-indexed failing
                 task is guaranteed to execute and win the failure cell,
                 whatever the schedule. *)
              Events.with_span "pool.chunk"
                ~args:(fun () -> [ ("lo", Events.Int lo); ("hi", Events.Int hi) ])
                (fun () ->
                  for i = lo to hi - 1 do
                    match tasks.(i) () with
                    | r ->
                      Metrics.incr tasks_run;
                      results.(i) <- Some r
                    | exception exn ->
                      record_failure failure i exn
                        (Printexc.get_raw_backtrace ())
                  done);
              loop ()
        in
        (* One lane-covering span per worker: in the Chrome export each
           domain's lane shows the worker's lifetime with its claimed
           chunks nested inside, idle gaps visible between them. *)
        Events.with_span "pool.worker" loop
      in
      let spawned =
        List.init (workers - 1) (fun _ ->
            Metrics.incr domains_spawned;
            Domain.spawn worker)
      in
      worker ();
      List.iter Domain.join spawned;
      match Atomic.get failure with
      | Some { exn; bt; _ } -> Printexc.raise_with_backtrace exn bt
      | None ->
        Array.to_list
          (Array.map
             (function
               | Some r -> r
               (* Unreachable: every task either stored a result or
                  recorded the failure re-raised above. *)
               | None -> assert false)
             results)
    end
  end
