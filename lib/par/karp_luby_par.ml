open Incdb_approx

module Trace = Incdb_obs.Trace
module Metrics = Incdb_obs.Metrics
module Events = Incdb_obs.Events
module Log = Incdb_obs.Log

(* Shared with the sequential estimator: same counter names, same
   registered handles. *)
let samples_drawn = Metrics.counter "karp_luby.samples_drawn"
let coverage_hits = Metrics.counter "karp_luby.coverage_hits"
let streams_run = Metrics.counter "karp_luby.streams_run"
let running_estimate = Metrics.gauge "karp_luby.running_estimate"

(* Enough streams that any plausible domain count divides the work
   evenly, few enough that tiny sample budgets are not shredded. *)
let streams = 64

(* Hit tally of one stream: [count] samples from the RNG seeded by
   [(seed, stream)], through the compiled sampler ([Karp_luby.sample_hit]
   is read-only on the compiled events with per-call scratch, so one
   compiled value is safely shared by every worker domain). *)
let stream_hits ~seed ~stream ~count compiled =
  let st = Random.State.make [| seed; stream |] in
  let hits = ref 0 in
  for _ = 1 to count do
    Metrics.incr samples_drawn;
    if Karp_luby.sample_hit compiled st then begin
      Metrics.incr coverage_hits;
      incr hits
    end
  done;
  !hits

let run_estimator ?(jobs = 0) ~seed ~samples q db =
  if samples <= 0 then invalid_arg "Karp_luby_par.estimate: need positive samples";
  let jobs = Pool.resolve jobs in
  let compiled = Karp_luby.compile q db in
  if Karp_luby.compiled_size compiled = 0 then None
  else begin
    let total_weight = Karp_luby.compiled_total_weight compiled in
    let nstreams = min streams samples in
    (* Stream s draws ceil-or-floor of samples/nstreams so the counts sum
       to exactly [samples]; the split depends only on [samples], never on
       [jobs], which is what makes the estimate jobs-invariant. *)
    let tasks =
      List.init nstreams (fun s () ->
          Metrics.incr streams_run;
          let count =
            (samples / nstreams) + (if s < samples mod nstreams then 1 else 0)
          in
          Events.with_span "karp_luby.stream"
            ~args:(fun () ->
              [ ("stream", Events.Int s); ("count", Events.Int count) ])
            (fun () -> stream_hits ~seed ~stream:s ~count compiled))
    in
    let hits =
      Trace.with_span "karp_luby_par.sample" (fun () ->
          List.fold_left ( + ) 0 (Pool.run ~jobs tasks))
    in
    let rate = float_of_int hits /. float_of_int samples in
    Metrics.set running_estimate (total_weight *. rate);
    Log.debugf
      "karp_luby_par: %d events, %d streams, %d jobs, %d/%d canonical hits, \
       estimate %.6g"
      (Karp_luby.compiled_size compiled) nstreams jobs hits samples
      (total_weight *. rate);
    Some (total_weight, rate)
  end

let estimate ?jobs ~seed ~samples q db =
  Trace.with_span "karp_luby_par.estimate" (fun () ->
      match run_estimator ?jobs ~seed ~samples q db with
      | None -> 0.
      | Some (total_weight, rate) -> total_weight *. rate)

let estimate_with_ci ?jobs ~seed ~samples q db =
  Trace.with_span "karp_luby_par.estimate" (fun () ->
      match run_estimator ?jobs ~seed ~samples q db with
      | None -> (0., 0.)
      | Some (total_weight, rate) ->
        ( total_weight *. rate,
          total_weight *. Karp_luby.wilson_half_width ~samples rate ))
