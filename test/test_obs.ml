(* Tests for the Incdb_obs observability layer: span nesting, counter
   behaviour under exceptions, the disabled no-op mode, histogram
   bucketing and percentiles, the flight-recorder ring buffers, the
   Chrome/Prometheus exports and the JSON export round-trip. *)

open Incdb_obs

(* Every test starts from a clean, enabled registry and leaves the
   switch off so the other suites keep measuring the no-op path. *)
let with_fresh_obs f =
  Export.reset ();
  Runtime.set_enabled true;
  Fun.protect f ~finally:(fun () -> Runtime.set_enabled false)

let test_span_nesting () =
  with_fresh_obs (fun () ->
      Trace.with_span "a" (fun () ->
          Alcotest.(check (option string))
            "path of a" (Some "a") (Trace.current_path ());
          Trace.with_span "b" (fun () ->
              Alcotest.(check (option string))
                "path of a/b" (Some "a/b") (Trace.current_path ()));
          Trace.with_span "c" (fun () -> ());
          Trace.with_span "c" (fun () -> ()));
      let paths = List.map (fun s -> s.Trace.span_path) (Trace.spans ()) in
      (* Spans are recorded when they close, so children appear before
         their parent in first-seen order. *)
      Alcotest.(check (list string)) "paths" [ "a/b"; "a/c"; "a" ] paths;
      (match Trace.find "a/c" with
      | Some s -> Alcotest.(check int) "a/c calls" 2 s.Trace.span_calls
      | None -> Alcotest.fail "span a/c was not recorded");
      match Trace.find "a" with
      | Some s -> Alcotest.(check int) "a calls" 1 s.Trace.span_calls
      | None -> Alcotest.fail "span a was not recorded")

let test_exception_keeps_totals () =
  with_fresh_obs (fun () ->
      let c = Metrics.counter "test.obs_exn" in
      (try
         Trace.with_span "outer" (fun () ->
             Trace.with_span "boom" (fun () ->
                 Metrics.incr c ~by:3;
                 raise Exit))
       with Exit -> ());
      Alcotest.(check int) "counter kept its increments" 3 (Metrics.value c);
      (match Trace.find "outer/boom" with
      | Some s ->
        Alcotest.(check int) "raising span still recorded" 1 s.Trace.span_calls
      | None -> Alcotest.fail "raising span was not recorded");
      (* The span stack must have unwound: new spans are roots again. *)
      Trace.with_span "after" (fun () ->
          Alcotest.(check (option string))
            "stack unwound" (Some "after") (Trace.current_path ())))

let test_disabled_noop () =
  Export.reset ();
  Runtime.set_enabled false;
  let c = Metrics.counter "test.obs_noop" in
  Metrics.incr c;
  Metrics.set_gauge "test.obs_noop_gauge" 1.0;
  Trace.with_span "ghost" (fun () -> Metrics.incr c ~by:10);
  Events.instant "ghost_event";
  Alcotest.(check int) "counter untouched" 0 (Metrics.value c);
  (* Gauges register eagerly (like counters, so they export at zero),
     but the disabled set is still a no-op. *)
  Alcotest.(check (option (float 0.))) "gauge registered, value untouched"
    (Some 0.0)
    (Metrics.gauge_value "test.obs_noop_gauge");
  Alcotest.(check bool) "no span recorded" true (Trace.find "ghost" = None);
  Alcotest.(check int) "span registry empty" 0 (List.length (Trace.spans ()));
  Alcotest.(check int) "no ring created" 0 (List.length (Events.snapshot ()))

let test_histogram_buckets () =
  with_fresh_obs (fun () ->
      let h =
        Metrics.histogram ~lower:10. ~factor:10. ~nbuckets:3 "test.obs_hist"
      in
      List.iter (Metrics.observe h) [ 5.; 50.; 500.; 5_000_000. ];
      let snap = List.assoc "test.obs_hist" (Metrics.histograms_snapshot ()) in
      Alcotest.(check int) "count" 4 snap.Metrics.count;
      Alcotest.(check (float 1e-6)) "sum" 5_000_555. snap.Metrics.sum;
      Alcotest.(check (list (pair (float 1e-6) int)))
        "bucket counts"
        [ (10., 1); (100., 1); (1000., 1); (infinity, 1) ]
        snap.Metrics.bucket_counts)

let get_exn what = function
  | Some v -> v
  | None -> Alcotest.fail ("missing " ^ what)

let test_gauge_handles () =
  with_fresh_obs (fun () ->
      let g = Metrics.gauge "test.obs_gauge_handle" in
      (* Eager registration: the gauge exports at zero before any set. *)
      Alcotest.(check (option (float 0.))) "registered at zero" (Some 0.0)
        (Metrics.gauge_value "test.obs_gauge_handle");
      Metrics.set g 2.5;
      Alcotest.(check (float 0.)) "set through the handle" 2.5
        (Metrics.gauge_read g);
      (* The legacy name-keyed setter hits the same cell. *)
      Metrics.set_gauge "test.obs_gauge_handle" 7.25;
      Alcotest.(check (float 0.)) "name-keyed set shares the cell" 7.25
        (Metrics.gauge_read g))

let test_percentiles () =
  with_fresh_obs (fun () ->
      let h =
        Metrics.histogram ~lower:10. ~factor:10. ~nbuckets:3 "test.obs_pct"
      in
      (* 50 observations in (0,10], 40 in (10,100], 10 in (100,1000]:
         p50 sits exactly at the first bucket bound, p90 at the second,
         p99 interpolates 9/10 into the third. *)
      for _ = 1 to 50 do
        Metrics.observe h 5.
      done;
      for _ = 1 to 40 do
        Metrics.observe h 50.
      done;
      for _ = 1 to 10 do
        Metrics.observe h 500.
      done;
      let snap = List.assoc "test.obs_pct" (Metrics.histograms_snapshot ()) in
      Alcotest.(check (float 1e-9)) "p50" 10. (Metrics.percentile snap 0.50);
      Alcotest.(check (float 1e-9)) "p90" 100. (Metrics.percentile snap 0.90);
      Alcotest.(check (float 1e-9)) "p99" 910. (Metrics.percentile snap 0.99);
      (* Mass in the overflow bucket degrades to the largest finite
         bound rather than inventing an infinite quantile. *)
      let o =
        Metrics.histogram ~lower:10. ~factor:10. ~nbuckets:3 "test.obs_pct_of"
      in
      Metrics.observe o 1e9;
      let osnap =
        List.assoc "test.obs_pct_of" (Metrics.histograms_snapshot ())
      in
      Alcotest.(check (float 1e-9)) "overflow p99" 1000.
        (Metrics.percentile osnap 0.99);
      (* Empty histogram: every quantile is 0. *)
      let e =
        Metrics.histogram ~lower:10. ~factor:10. ~nbuckets:3 "test.obs_pct_e"
      in
      ignore e;
      let esnap =
        List.assoc "test.obs_pct_e" (Metrics.histograms_snapshot ())
      in
      Alcotest.(check (float 1e-9)) "empty p50" 0.
        (Metrics.percentile esnap 0.50))

let test_ring_overflow () =
  with_fresh_obs (fun () ->
      let saved = !Events.capacity in
      Fun.protect
        ~finally:(fun () ->
          Events.set_capacity saved;
          Events.reset ())
        (fun () ->
          Events.set_capacity 8;
          Events.reset ();
          for i = 1 to 20 do
            Events.instant (Printf.sprintf "e%d" i)
          done;
          Alcotest.(check int) "exact drop count" 12 (Events.dropped ());
          Alcotest.(check int) "drop counter matches" 12
            (Metrics.value Events.dropped_counter);
          match Events.snapshot () with
          | [ (_, events) ] ->
            Alcotest.(check (list string))
              "newest events kept, oldest first"
              (List.init 8 (fun i -> Printf.sprintf "e%d" (13 + i)))
              (List.map (fun e -> e.Events.name) events)
          | lanes ->
            Alcotest.fail
              (Printf.sprintf "expected one lane, got %d" (List.length lanes))))

let test_reset_mid_span () =
  with_fresh_obs (fun () ->
      (* A reset landing inside open spans (incdbd reusing the obs layer
         between requests) must neither corrupt the registries nor leak
         the pre-reset stack into post-reset paths. *)
      Trace.with_span "outer" (fun () ->
          Events.with_span "outer_ev" (fun () ->
              Export.reset ();
              Alcotest.(check (option string))
                "stale stack discarded" None (Trace.current_path ());
              Trace.with_span "fresh" (fun () ->
                  Alcotest.(check (option string))
                    "post-reset spans are roots" (Some "fresh")
                    (Trace.current_path ()))));
      (* The straddling span skipped recording; the post-reset one
         recorded at its root path. *)
      Alcotest.(check bool) "straddling span dropped" true
        (Trace.find "outer" = None);
      Alcotest.(check bool) "post-reset span recorded" true
        (Trace.find "fresh" <> None);
      (* New spans keep working on the fresh generation. *)
      Trace.with_span "after" (fun () -> ());
      Alcotest.(check bool) "registry usable after reset" true
        (Trace.find "after" <> None))

let test_chrome_lanes () =
  with_fresh_obs (fun () ->
      Events.reset ();
      (* Enough tasks that with 4 workers at least one spawned domain
         claims a chunk; every worker emits its lane-covering span
         regardless. *)
      let tasks = List.init 32 (fun i () -> i * i) in
      let (_ : int list) = Incdb_par.Pool.run ~jobs:4 tasks in
      let j = Chrome.to_json () in
      let events =
        get_exn "traceEvents"
          (Option.bind (Json.member "traceEvents" j) Json.to_list)
      in
      let lanes = Hashtbl.create 8 in
      let stacks = Hashtbl.create 8 in
      List.iter
        (fun e ->
          let ph =
            match Json.member "ph" e with
            | Some (Json.String s) -> s
            | _ -> Alcotest.fail "event without ph"
          in
          if ph <> "M" then begin
            let tid =
              get_exn "tid" (Option.bind (Json.member "tid" e) Json.to_int)
            in
            let name =
              match Json.member "name" e with
              | Some (Json.String s) -> s
              | _ -> Alcotest.fail "event without name"
            in
            Hashtbl.replace lanes tid ();
            let stack =
              Option.value ~default:[] (Hashtbl.find_opt stacks tid)
            in
            match ph with
            | "B" -> Hashtbl.replace stacks tid (name :: stack)
            | "E" -> (
              match stack with
              | top :: rest when top = name -> Hashtbl.replace stacks tid rest
              | _ -> Alcotest.fail ("unbalanced end of " ^ name))
            | _ -> ()
          end)
        events;
      Alcotest.(check bool) "at least two domain lanes" true
        (Hashtbl.length lanes >= 2);
      Hashtbl.iter
        (fun tid stack ->
          if stack <> [] then
            Alcotest.fail (Printf.sprintf "lane %d left spans open" tid))
        stacks)

(* Event args are thunks the exporter calls long after emission; each
   must report the values of its own moment.  The sequential Karp-Luby
   estimator emits one instant per batch of samples with the running
   hit count, read from a mutable counter: every batch must export its
   own count, not the final one. *)
let test_args_captured_at_emission () =
  with_fresh_obs (fun () ->
      Events.reset ();
      let open Incdb_incomplete in
      let db =
        Idb.make
          [ Idb.fact "R" [ Term.null "n" ] ]
          (Idb.Nonuniform [ ("n", [ "0"; "1" ]) ])
      in
      let q = Incdb_cq.Query.Bcq (Incdb_cq.Cq.of_string "R(x)") in
      let (_ : float) =
        Incdb_approx.Karp_luby.estimate ~seed:1 ~samples:1_600 q db
      in
      let events =
        get_exn "traceEvents"
          (Option.bind (Json.member "traceEvents" (Chrome.to_json ()))
             Json.to_list)
      in
      let arg e k =
        get_exn k
          (Option.bind
             (Option.bind (Json.member "args" e) (Json.member k))
             Json.to_int)
      in
      let batches =
        List.filter_map
          (fun e ->
            match Json.member "name" e with
            | Some (Json.String "karp_luby.sample_batch") ->
              Some (arg e "samples", arg e "hits")
            | _ -> None)
          events
      in
      Alcotest.(check (list int)) "one instant per 100 samples"
        (List.init 16 (fun i -> 100 * (i + 1)))
        (List.map fst batches);
      Alcotest.(check (list int)) "hits as counted at each batch"
        (List.map fst batches) (List.map snd batches))

(* Rings are bounded by the domains live at once: sequential two-domain
   pool runs hand the worker's ring from one spawned domain to the next
   instead of registering a ring per domain ever spawned. *)
let test_rings_recycled () =
  with_fresh_obs (fun () ->
      Events.reset ();
      for _ = 1 to 200 do
        let (_ : int list) =
          Incdb_par.Pool.run ~jobs:2 (List.init 4 (fun i () -> i))
        in
        ()
      done;
      let lanes = Events.snapshot () in
      Alcotest.(check bool)
        (Printf.sprintf "at most 2 rings (saw %d)" (List.length lanes))
        true
        (List.length lanes <= 2);
      (* The recycled worker ring still holds its events. *)
      Alcotest.(check bool) "worker events exported" true
        (List.exists
           (fun (_, evs) ->
             List.exists (fun e -> e.Events.name = "pool.worker") evs)
           lanes))

let test_prom_format () =
  with_fresh_obs (fun () ->
      let c = Metrics.counter "test.obs_prom" in
      Metrics.incr c ~by:3;
      let g = Metrics.gauge "test.obs_prom_gauge" in
      Metrics.set g 1.5;
      let h = Metrics.histogram "test.obs_prom_hist" in
      Metrics.observe h 42.;
      Trace.with_span "prom_span" (fun () -> ());
      let text = Prom.to_string () in
      let contains sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length text
          && (String.sub text i n = sub || go (i + 1))
        in
        go 0
      in
      List.iter
        (fun (what, needle) ->
          Alcotest.(check bool) what true (contains needle))
        [
          ("counter line", "incdb_test_obs_prom_total 3");
          ("counter type", "# TYPE incdb_test_obs_prom_total counter");
          ("gauge line", "incdb_test_obs_prom_gauge 1.5");
          ("histogram inf bucket", "incdb_test_obs_prom_hist_bucket{le=\"+Inf\"} 1");
          ("histogram count", "incdb_test_obs_prom_hist_count 1");
          ("span family", "incdb_span_calls_total{path=\"prom_span\"} 1");
        ])

let test_json_round_trip () =
  with_fresh_obs (fun () ->
      let c = Metrics.counter "test.obs_rt" in
      Metrics.incr c ~by:7;
      Metrics.set_gauge "test.obs_rt_gauge" 2.5;
      let h = Metrics.histogram "test.obs_rt_hist" in
      Metrics.observe h 1_500.;
      Trace.with_span "outer" (fun () -> Trace.with_span "inner" (fun () -> ()));
      let text = Json.to_string ~indent:2 (Export.to_json ()) in
      match Json.of_string text with
      | Error msg -> Alcotest.fail ("export does not parse back: " ^ msg)
      | Ok j ->
        Alcotest.(check int) "schema_version" 2
          (get_exn "schema_version"
             (Option.bind (Json.member "schema_version" j) Json.to_int));
        let counters = get_exn "counters" (Json.member "counters" j) in
        Alcotest.(check int) "counter value" 7
          (get_exn "test.obs_rt"
             (Option.bind (Json.member "test.obs_rt" counters) Json.to_int));
        let spans =
          get_exn "spans"
            (Option.bind (Json.member "spans" j) Json.to_list)
        in
        let outer =
          get_exn "outer span"
            (List.find_opt
               (fun s -> Json.member "name" s = Some (Json.String "outer"))
               spans)
        in
        let children =
          get_exn "outer children"
            (Option.bind (Json.member "children" outer) Json.to_list)
        in
        Alcotest.(check int) "outer has one child" 1 (List.length children);
        let inner = List.hd children in
        Alcotest.(check bool) "child path" true
          (Json.member "path" inner = Some (Json.String "outer/inner"));
        let wall =
          get_exn "wall_ns"
            (Option.bind (Json.member "wall_ns" inner) Json.to_int)
        in
        Alcotest.(check bool) "wall_ns non-negative" true (wall >= 0);
        let hists = get_exn "histograms" (Json.member "histograms" j) in
        let hist =
          get_exn "test.obs_rt_hist" (Json.member "test.obs_rt_hist" hists)
        in
        Alcotest.(check int) "histogram count" 1
          (get_exn "count" (Option.bind (Json.member "count" hist) Json.to_int)))

let test_export_reset () =
  with_fresh_obs (fun () ->
      let c = Metrics.counter "test.obs_reset" in
      Metrics.incr c ~by:5;
      Trace.with_span "gone" (fun () -> ());
      Export.reset ();
      Alcotest.(check int) "counter zeroed" 0 (Metrics.value c);
      Alcotest.(check int) "spans cleared" 0 (List.length (Trace.spans ()));
      (* Registration survives: the counter still exports at zero. *)
      Alcotest.(check bool) "registration kept" true
        (List.mem_assoc "test.obs_reset" (Metrics.counters_snapshot ())))

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "exception safety" `Quick
            test_exception_keeps_totals;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "disabled no-op" `Quick test_disabled_noop;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "gauge handles" `Quick test_gauge_handles;
          Alcotest.test_case "percentiles" `Quick test_percentiles;
        ] );
      ( "events",
        [
          Alcotest.test_case "ring overflow" `Quick test_ring_overflow;
          Alcotest.test_case "reset mid-span" `Quick test_reset_mid_span;
          Alcotest.test_case "chrome lanes" `Quick test_chrome_lanes;
          Alcotest.test_case "rings recycled" `Quick test_rings_recycled;
          Alcotest.test_case "args captured at emission" `Quick
            test_args_captured_at_emission;
        ] );
      ( "export",
        [
          Alcotest.test_case "json round trip" `Quick test_json_round_trip;
          Alcotest.test_case "prometheus format" `Quick test_prom_format;
          Alcotest.test_case "reset" `Quick test_export_reset;
        ] );
    ]
