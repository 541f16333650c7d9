(* End-to-end benchmark of the counting system.

     main.exe gen   --seed N --out DIR [--workload W]
     main.exe check DIR
     main.exe run   --workload W --seed N --seconds S --trace 0|1
                    --corpus DIR --incdbd PATH
     main.exe smoke --incdbd PATH --scratch DIR --committed DIR

   [run] prints, as its last line, one JSON object with the run's
   correctness, operation counts and metrics; [e2ebench/run.sh] builds
   the program, generates the corpus for the seed and calls it. *)

open Harness

let workloads = Gen.workloads

(* ------------------------------------------------------------------ *)
(* Arguments                                                           *)
(* ------------------------------------------------------------------ *)

let args = Array.to_list Sys.argv |> List.tl

let opt name =
  let rec go = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> go rest
    | [] -> None
  in
  go args

let required name =
  match opt name with Some v -> v | None -> failwith ("missing argument " ^ name)

let int_arg name = int_of_string (required name)

(* ------------------------------------------------------------------ *)
(* gen / check                                                         *)
(* ------------------------------------------------------------------ *)

let gen ~size ~seed ~out which =
  List.iter (Gen.write ~size ~seed ~dir:out) which

(* Recompute every expected count in a corpus directory with the
   reference counter, reading the files back with its own parser.  The
   large #Val instances, beyond enumeration, are checked through the
   negation property against their closed-formula values instead. *)
let check dir =
  let bad = ref 0 and enumerated = ref 0 and by_property = ref 0 and formula_only = ref 0 in
  List.iter
    (fun w ->
      let wdir = Filename.concat dir w in
      let db file = Inst.of_idb_text (Inst.read_file (Filename.concat wdir file)) in
      if Sys.file_exists (Filename.concat wdir "ops.tsv") then begin
        let rows = tsv (Filename.concat wdir "ops.tsv") in
        List.iter
          (function
            | [ id; _; file; problem; qtext; expected; _ ] ->
              let d = db file in
              let q = if qtext = "*" then None else Some (Inst.query_of_text qtext) in
              let got =
                match (problem, q) with
                | "val", Some q -> Option.map string_of_int (Reference.count_val d q)
                | _ -> Option.map Big.to_string (Reference.count_comp d q)
              in
              (match got with
              | Some g ->
                incr enumerated;
                if g <> expected then begin
                  incr bad;
                  Printf.printf "%s/%s: expected %s, reference %s\n" w id expected g
                end
              | None -> (
                let partner =
                  List.find_opt
                    (function
                      | [ _; _; f; "val"; qt; _; _ ] -> f = file && (qt = "not " ^ qtext || qtext = "not " ^ qt)
                      | _ -> false)
                    rows
                in
                match partner with
                | Some [ _; _; _; _; _; e2; _ ] ->
                  incr by_property;
                  let sum = Big.add (Big.of_string expected) (Big.of_string e2) in
                  if not (Big.equal sum (Reference.total_valuations d)) then begin
                    incr bad;
                    Printf.printf "%s/%s: q and not q do not sum to the total\n" w id
                  end
                | _ -> incr formula_only))
            | _ -> incr bad)
          rows
      end;
      if Sys.file_exists (Filename.concat wdir "requests.tsv") then
        List.iter
          (function
            | [ kind; expect; line ] when kind = "count" || kind = "bounds" || kind = "approx" ->
              let j = Serve.json line in
              let s name = match Incdb_obs.Json.member name j with Some (Incdb_obs.Json.String v) -> Some v | _ -> None in
              let d =
                match (s "db", s "db_text") with
                | Some f, _ -> db f
                | None, Some t -> Inst.of_idb_text t
                | None, None -> failwith "request without a database"
              in
              let q = Inst.query_of_text (Option.get (s "query")) in
              let got =
                if kind = "approx" || s "problem" <> Some "comp" && kind = "count" then
                  Option.map string_of_int (Reference.count_val d q)
                else Option.map Big.to_string (Reference.count_comp d (Some q))
              in
              incr enumerated;
              if got <> Some expect then begin
                incr bad;
                Printf.printf "%s: %s: expected %s, reference %s\n" w line expect
                  (Option.value ~default:"(cannot finish)" got)
              end
            | _ -> ())
          (tsv (Filename.concat wdir "requests.tsv")))
    workloads;
  Printf.printf
    "%d expected counts recomputed by enumeration, %d checked by q + not q = total, %d \
     closed-formula only; %d mismatches\n"
    !enumerated !by_property !formula_only !bad;
  !bad = 0

(* ------------------------------------------------------------------ *)
(* Untraced runs: the end-to-end metrics                               *)
(* ------------------------------------------------------------------ *)

let setups = 3

let end_to_end ~setup_s ~answers ~rate ~pct ~words ~rss =
  [
    metric "setup_s" "s" setup_s;
    metric "answers_per_s" "1/s" rate;
    metric "latency_p50_ms" "ms" (1000. *. pct 0.5);
    metric "latency_p90_ms" "ms" (1000. *. pct 0.9);
    metric "latency_p99_ms" "ms" (1000. *. pct 0.99);
    metric "alloc_words_per_answer" "words" (words /. float_of_int answers);
    metric "peak_rss_mb" "MiB" rss;
  ]

(* Throughput and latency percentiles of the closed loop, each taken in
   every whole second of the run and reported as the median over those
   seconds: a stretch of slow host time then shifts the figures of its
   own seconds only, instead of the whole run's tail. *)
let windowed (r : Serve.loop_result) =
  let n = max 1 (int_of_float r.seconds) in
  let per = Array.init n (fun _ -> samples ()) in
  for i = 0 to r.lat.len - 1 do
    let w = int_of_float r.ends.data.(i) in
    if w < n then push per.(w) r.lat.data.(i)
  done;
  let per = Array.to_list per |> List.filter (fun s -> s.len > 0) in
  let rate = median (List.map (fun s -> float_of_int s.len) per) in
  let sorted_per = List.map sorted per in
  (rate, fun p -> median (List.map (fun a -> percentile a p) sorted_per))

let run_dispatch ~dir ~seconds =
  let runs = List.init setups (fun _ -> Dispatch.setup ~traced:false dir) in
  let ops = fst (List.nth runs (setups - 1)) in
  let r = Dispatch.run_passes ~seconds ops in
  (* The median and 90th percentile are taken in each pass and reported
     as the median over passes, so a slow stretch of host time moves
     only its own passes; a pass is too short for a 99th percentile,
     which is taken over the whole run. *)
  let n = List.length ops in
  let pooled = sorted r.lat in
  let passes =
    List.init (r.lat.len / n) (fun i ->
        let a = Array.sub r.lat.data (i * n) n in
        Array.sort compare a;
        a)
  in
  let pct p =
    if p >= 0.99 then percentile pooled p
    else median (List.map (fun a -> percentile a p) passes)
  in
  ( r.answers, r.failed, r.wrong,
    end_to_end
      ~setup_s:(median (List.map snd runs))
      ~answers:r.answers
      ~rate:(float_of_int r.answers /. r.seconds)
      ~pct ~words:r.words ~rss:(peak_rss_mb "self") )

(* The first set-ups start, warm and stop a server each; the words they
   allocate are the baseline subtracted from the measured server's
   total, which leaves the words of the timed requests.  A set-up is
   short (tens of milliseconds), so it is repeated more often than the
   dispatcher workloads' set-up. *)
let serve_setups = 9

let run_serve ~incdbd ~dir ~seconds =
  let reqs = Array.of_list (Serve.load dir) in
  let baselines =
    List.init (serve_setups - 1) (fun i ->
        let s, dt = Serve.setup ~incdbd ~dir ~tag:(string_of_int i) reqs in
        (dt, Serve.stop s))
  in
  let s, dt = Serve.setup ~incdbd ~dir ~tag:"timed" reqs in
  let r = Serve.closed_loop ~traced:false s reqs ~seconds in
  let rss = peak_rss_mb (string_of_int s.Serve.pid) in
  let words = Serve.stop s -. median (List.map snd baselines) in
  let rate, pct = windowed r in
  ( r.answers, r.failed, r.wrong,
    end_to_end
      ~setup_s:(median (dt :: List.map fst baselines))
      ~answers:r.answers ~rate ~pct ~words ~rss )

(* ------------------------------------------------------------------ *)
(* The traced run: per-layer metrics                                   *)
(* ------------------------------------------------------------------ *)

let obs_on f =
  Incdb_obs.Runtime.set_enabled true;
  Fun.protect ~finally:(fun () -> Incdb_obs.Runtime.set_enabled false) f

(* Nanoseconds per call of [f] over the operand pairs, cycling. *)
let per_call_ns f pairs =
  let pairs = Array.of_list pairs in
  let n = 200_000 in
  let t0 = now_ns () in
  for i = 0 to n - 1 do
    let a, b = pairs.(i mod Array.length pairs) in
    ignore (Sys.opaque_identity (f a b))
  done;
  float_of_int (now_ns () - t0) /. float_of_int n

let nat_metrics (ops : Dispatch.op list) =
  let open Incdb_bignum in
  let counts = List.map (fun (o : Dispatch.op) -> Nat.of_string o.expected) ops in
  let small, big = List.partition (fun n -> Nat.bit_length n <= 62) counts in
  let pairs l =
    let a = Array.of_list l in
    List.init (max 1 (Array.length a)) (fun i -> (a.(i), a.((i * 7 + 3) mod Array.length a)))
  in
  let ns f l = if l = [] then 0. else per_call_ns f (pairs l) in
  [
    metric "nat.add_small_ns" "ns" (ns Nat.add small);
    metric "nat.add_big_ns" "ns" (ns Nat.add big);
    metric "nat.mul_small_ns" "ns" (ns Nat.mul small);
    metric "nat.mul_big_ns" "ns" (ns Nat.mul big);
  ]

let route_metrics prefix routes (pass : Dispatch.pass_result) name_of =
  List.map
    (fun (_, short, _) ->
      let n =
        Hashtbl.fold
          (fun route c acc -> if name_of route = Some (prefix ^ "." ^ short) then acc + c else acc)
          pass.Dispatch.routes 0
      in
      metric (Printf.sprintf "route.%s.%s" prefix short) "count" (float_of_int n))
    routes

let overhead_metrics w ~untraced ~traced =
  [
    metric ("trace." ^ w ^ ".untraced_answers_per_s") "1/s" untraced;
    metric ("trace." ^ w ^ ".answers_per_s") "1/s" traced;
    metric ("trace." ^ w ^ ".overhead_pct") "%" (100. *. (untraced -. traced) /. untraced);
  ]

(* Route mix and per-operation times of the traced run, written next to
   the spans as trace-summary.json. *)
let summary = ref []

let note_routes w routes =
  summary :=
    Printf.sprintf "%S: {%s}" w
      (String.concat ", "
         (Hashtbl.fold (fun r n acc -> Printf.sprintf "%S: %d" r n :: acc) routes []))
    :: !summary

(* Mean time of each operation over the passes of [r], with its route. *)
let note_ops w (ops : Dispatch.op list) (r : Dispatch.pass_result) =
  let ops = Array.of_list ops in
  let n = Array.length ops in
  let sum = Array.make n 0. and cnt = Array.make n 0 in
  for i = 0 to r.lat.len - 1 do
    sum.(i mod n) <- sum.(i mod n) +. r.lat.data.(i);
    cnt.(i mod n) <- cnt.(i mod n) + 1
  done;
  summary :=
    Printf.sprintf "%S: [\n%s]" (w ^ " operations")
      (String.concat ",\n"
         (Array.to_list
            (Array.mapi
               (fun i (o : Dispatch.op) ->
                 Printf.sprintf "{\"id\": %S, \"family\": %S, \"route\": %S, \"mean_ms\": %s}"
                   o.id o.family
                   (Option.value ~default:"" (Hashtbl.find_opt r.op_routes o.id))
                   (number (1000. *. sum.(i) /. float_of_int (max 1 cnt.(i)))))
               ops)))
    :: !summary

let traced_dispatch ~w ~dir ~slice a ~observe =
  let ops, _ =
    Dispatch.setup ~traced:true dir
      ~on_db:(fun dt -> Layers.add a "parse.db_ms" (dt *. 1000.))
      ~on_query:(fun dt -> Layers.add a "parse.query_us" (dt *. 1e6))
  in
  let u = Dispatch.run_passes ~seconds:slice ops in
  let t = obs_on (fun () -> Dispatch.run_passes ~observe:(observe a) ~seconds:slice ops) in
  note_routes (w ^ " routes per pass") t.routes;
  note_ops w ops u;
  let rate (r : Dispatch.pass_result) = float_of_int r.answers /. r.seconds in
  (ops, u, t, overhead_metrics w ~untraced:(rate u) ~traced:(rate t))

let traced_serve ~incdbd ~dir ~slice a =
  let open Incdb_serve in
  let reqs = Array.of_list (Serve.load dir) in
  let s, _ = Serve.setup ~incdbd ~dir ~tag:"traced" reqs in
  let u = Serve.closed_loop ~traced:false s reqs ~seconds:slice in
  let before = Serve.server_counters s in
  let rtt = Layers.acc () and routes = Hashtbl.create 8 in
  let on_response _ resp =
    match Incdb_obs.Json.of_string resp with
    | Ok j -> (
      match Serve.field "algorithm" (Serve.field "result" j) with
      | Incdb_obs.Json.String alg ->
        Hashtbl.replace routes alg (1 + Option.value ~default:0 (Hashtbl.find_opt routes alg))
      | _ -> ())
    | Error _ -> ()
  in
  let t = Serve.closed_loop ~on_response ~traced:true s reqs ~seconds:slice in
  for i = 0 to t.lat.len - 1 do Layers.add rtt "rtt_us" (t.lat.data.(i) *. 1e6) done;
  let after = Serve.server_counters s in
  ignore (Serve.stop s);
  note_routes "serve-mixed routes of the traced requests" routes;
  let delta name =
    float_of_int
      (Option.value ~default:0 (List.assoc_opt name after)
      - Option.value ~default:0 (List.assoc_opt name before))
  in
  let life name = float_of_int (Option.value ~default:0 (List.assoc_opt name after)) in
  (* In-process, on the same request lines: protocol, engine, state. *)
  let cwd = Sys.getcwd () in
  Sys.chdir dir;
  Fun.protect ~finally:(fun () -> Sys.chdir cwd) (fun () ->
        obs_on (fun () ->
            let state = State.create () in
            let parsed = Array.map (fun r -> Result.get_ok (Protocol.of_line r.Serve.line)) reqs in
            Array.iter (fun p -> ignore (Engine.handle state p)) parsed;
            for _ = 1 to 3 do
              Array.iter
                (fun r ->
                  let p, dt = timed ~traced:true "protocol.of_line" (fun () -> Protocol.of_line r.Serve.line) in
                  Layers.add a "protocol.of_line_us" (dt *. 1e6);
                  let resp, dt = timed ~traced:true "engine.handle" (fun () -> Engine.handle state (Result.get_ok p)) in
                  Layers.add a "engine.handle_ms" (dt *. 1000.);
                  let _, dt = timed ~traced:true "protocol.to_line" (fun () -> Protocol.to_line resp) in
                  Layers.add a "protocol.to_line_us" (dt *. 1e6))
                reqs
            done;
            let sources = List.sort_uniq compare (List.filter_map (fun p -> p.Protocol.source) (Array.to_list parsed)) in
            List.iter
              (fun src ->
                let st = State.create () in
                let _, dt = timed ~traced:true "state.load_db" (fun () -> State.load_db st src) in
                Layers.add a "state.load_db_us" (dt *. 1e6);
                match src with
                | Protocol.Inline text ->
                  let _, dt = timed ~traced:true "parse.db" (fun () -> Incdb_incomplete.Idb_parser.of_string text) in
                  Layers.add a "parse.db_ms" (dt *. 1000.)
                | Protocol.Path _ -> ())
              sources;
            Array.iter2
              (fun r p ->
                match r.Serve.kind with
                | "classify" ->
                  let q = Incdb_cq.Cq.of_string (Option.get p.Protocol.query) in
                  List.iter
                    (fun setting ->
                      Incdb_core.Classify.reset_cache ();
                      let _, dt = timed ~traced:true "classify.exact" (fun () -> Incdb_core.Classify.exact setting q) in
                      Layers.add a "classify.exact_us" (dt *. 1e6))
                    Incdb_core.Setting.all
                | "approx" ->
                  let _, db = Result.get_ok (State.load_db state (Option.get p.Protocol.source)) in
                  let q = Incdb_cq.Query.Bcq (Incdb_cq.Cq.of_string (Option.get p.Protocol.query)) in
                  Incdb_obs.Metrics.reset ();
                  let _, dt =
                    timed ~traced:true "karp_luby.estimate" (fun () ->
                        Incdb_approx.Karp_luby.estimate ~seed:p.Protocol.seed
                          ~samples:(Option.value ~default:50_000 p.Protocol.samples) q db)
                  in
                  Layers.add a "karp_luby.estimate_ms" (dt *. 1000.);
                  Layers.add a "karp_luby.samples_drawn" (Layers.counter "karp_luby.samples_drawn")
                | _ -> ())
              reqs parsed;
            for _ = 1 to 50 do
              let _, dt =
                timed ~traced:true "pool.run" (fun () ->
                    Incdb_par.Pool.run ~jobs:2 [ (fun () -> 1); (fun () -> 2) ])
              in
              Layers.add a "pool.run_us" (dt *. 1e6)
            done));
  let rate (r : Serve.loop_result) = float_of_int r.answers /. r.seconds in
  let ms = [
      metric "classify.cache_hits" "count" (life "classify.cache_hits");
      metric "classify.cache_misses" "count" (life "classify.cache_misses");
      metric "serve.result_cache_hits" "count" (life "serve.result_cache_hits");
      metric "serve.result_cache_misses" "count" (life "serve.result_cache_misses");
      metric "serve.result_cache_hit_ratio" "ratio"
        (Layers.ratio (life "serve.result_cache_hits") (life "serve.result_cache_misses"));
      metric "serve.db_cache_hits" "count" (life "serve.db_cache_hits");
      metric "serve.db_cache_misses" "count" (life "serve.db_cache_misses");
      metric "par.domains_spawned_per_request" "count"
        (delta "par.domains_spawned" /. Float.max 1. (delta "serve.requests"));
      metric "server.overhead_us" "us"
        (Layers.mean rtt "rtt_us" -. (1000. *. Layers.mean a "engine.handle_ms"));
    ]
  in
  (u, t, ms @ overhead_metrics "serve-mixed" ~untraced:(rate u) ~traced:(rate t))

let run_traced ~incdbd ~corpus ~seconds =
  let slice = seconds /. 6. in
  let a = Layers.acc () in
  let m = Layers.mean a in
  let vops, vu, vt, vover =
    traced_dispatch ~w:"val-elim" ~dir:(Filename.concat corpus "val-elim") ~slice a
      ~observe:Layers.observe_val
  in
  let _, cu, ct, cover =
    traced_dispatch ~w:"comp-route" ~dir:(Filename.concat corpus "comp-route") ~slice a
      ~observe:Layers.observe_comp
  in
  let su, st, serve_metrics =
    traced_serve ~incdbd ~dir:(Filename.concat corpus "serve-mixed") ~slice a
  in
  let kernel name = metric ("val_kernel." ^ name) "count" (m ("val_kernel." ^ name)) in
  let metrics =
    [
      metric "parse.db_ms" "ms" (m "parse.db_ms");
      metric "parse.query_us" "us" (m "parse.query_us");
      metric "classify.exact_us" "us" (m "classify.exact_us");
      metric "count_val.count_ms" "ms" (m "count_val.count_ms");
      metric "count_val.dispatch_ms" "ms" (m "count_val.dispatch_ms");
    ]
    @ route_metrics "val" Layers.val_routes vt Layers.val_route_name
    @ [
        metric "val_kernel.count_ms" "ms" (m "val_kernel.count_ms");
        metric "val_kernel.alloc_words" "words" (m "val_kernel.alloc_words");
        metric "val_kernel.compile_events_self_ms" "ms" (m "val_kernel.compile_events_self_ms");
        metric "val_kernel.treedec_self_ms" "ms" (m "val_kernel.treedec_self_ms");
        metric "val_kernel.eliminate_self_ms" "ms" (m "val_kernel.eliminate_self_ms");
      ]
    @ List.map kernel Layers.val_kernel_counters
    @ [
        metric "val_kernel.cache_hit_ratio" "ratio"
          (Layers.ratio (Layers.total a "val_kernel.cache_hits") (Layers.total a "val_kernel.cache_misses"));
      ]
    @ nat_metrics vops
    @ [
        metric "count_comp.count_ms" "ms" (m "count_comp.count_ms");
        metric "count_comp.probe_ms" "ms" (m "count_comp.probe_ms");
      ]
    @ route_metrics "comp" Layers.comp_routes ct Layers.comp_route_name
    @ [
        metric "comp_candidates.count_ms" "ms" (m "comp_candidates.count_ms");
        metric "comp_kernel.subsets_checked" "count" (m "comp_kernel.subsets_checked");
        metric "comp_kernel.masks_pruned" "count" (m "comp_kernel.masks_pruned");
        metric "comp_candidates.useful_ratio" "ratio"
          (Layers.ratio (Layers.total a "comp_kernel.subsets_checked") (Layers.total a "comp_kernel.masks_pruned"));
        metric "comp_kernel.plan_ms" "ms" (m "comp_kernel.plan_ms");
        metric "comp_kernel.run_ms" "ms" (m "comp_kernel.run_ms");
        metric "comp_kernel.plan_width" "count" (m "comp_kernel.plan_width");
        metric "comp_kernel.plan_branches" "count" (m "comp_kernel.plan_branches");
        metric "comp_kernel.plan_bags" "count" (m "comp_kernel.plan_bags");
      ]
    @ List.map
        (fun c -> metric ("comp_kernel." ^ c) "count" (m ("comp_kernel." ^ c)))
        Layers.comp_kernel_counters
    @ [
        metric "brute.count_ms" "ms" (m "brute.count_ms");
        metric "brute.valuations_visited" "count" (m "valuations_visited");
        metric "brute.completions_checked" "count" (m "completions_checked");
        metric "karp_luby.estimate_ms" "ms" (m "karp_luby.estimate_ms");
        metric "karp_luby.samples_drawn" "count" (m "karp_luby.samples_drawn");
        metric "pool.run_us" "us" (m "pool.run_us");
        metric "protocol.of_line_us" "us" (m "protocol.of_line_us");
        metric "protocol.to_line_us" "us" (m "protocol.to_line_us");
        metric "state.load_db_us" "us" (m "state.load_db_us");
        metric "engine.handle_ms" "ms" (m "engine.handle_ms");
      ]
    @ serve_metrics @ vover @ cover
  in
  let summary_text =
    Printf.sprintf "{%s,\n\"tracing overhead\": {%s}}\n"
      (String.concat ",\n" (List.rev !summary))
      (String.concat ", "
         (List.map
            (fun mt -> Printf.sprintf "%S: %s" mt.mname (number mt.value))
            (vover @ cover @ List.filter (fun mt -> String.starts_with ~prefix:"trace." mt.mname) serve_metrics)))
  in
  Inst.write_file (Filename.concat corpus "trace-summary.json") summary_text;
  write_spans (Filename.concat corpus "trace-spans.jsonl");
  let answers = vu.answers + vt.answers + cu.answers + ct.answers + su.answers + st.answers in
  let failed = vu.failed + vt.failed + cu.failed + ct.failed + su.failed + st.failed in
  let wrong = vu.wrong + vt.wrong + cu.wrong + ct.wrong + su.wrong + st.wrong in
  (answers, failed, wrong, metrics)

(* ------------------------------------------------------------------ *)
(* Commands                                                            *)
(* ------------------------------------------------------------------ *)

let run () =
  let workload = required "--workload" in
  if not (List.mem workload workloads) then failwith ("unknown workload " ^ workload);
  let seconds = float_of_string (required "--seconds") in
  let corpus = required "--corpus" in
  let incdbd = required "--incdbd" in
  let dir = Filename.concat corpus workload in
  let answers, failed, wrong, metrics =
    if required "--trace" = "1" then run_traced ~incdbd ~corpus ~seconds
    else if workload = "serve-mixed" then run_serve ~incdbd ~dir ~seconds
    else run_dispatch ~dir ~seconds
  in
  print_endline (result_line ~correct:(wrong = 0) ~attempted:answers ~failed metrics)

(* Every workload on a tiny corpus, one short pass each, with the same
   checks; plus: the committed corpus is what the generator writes. *)
let smoke () =
  let scratch = required "--scratch" in
  let incdbd = required "--incdbd" in
  gen ~size:Gen.Smoke ~seed:1 ~out:scratch workloads;
  if not (check scratch) then failwith "smoke: reference check failed";
  let ok = ref true in
  List.iter
    (fun w ->
      let dir = Filename.concat scratch w in
      let answers, failed, _, metrics =
        if w = "serve-mixed" then run_serve ~incdbd ~dir ~seconds:0.05
        else run_dispatch ~dir ~seconds:0.05
      in
      Printf.printf "%s: %d answers, %d failed, %d metrics\n" w answers failed (List.length metrics);
      if failed > 0 || answers = 0 then ok := false)
    workloads;
  let answers, failed, _, metrics = run_traced ~incdbd ~corpus:scratch ~seconds:0.3 in
  Printf.printf "traced: %d answers, %d failed, %d metrics\n" answers failed (List.length metrics);
  if failed > 0 then ok := false;
  (match opt "--committed" with
  | None -> ()
  | Some committed ->
    let fresh = Filename.concat scratch "committed" in
    gen ~size:Gen.Full ~seed:1 ~out:fresh workloads;
    List.iter
      (fun w ->
        let d = Filename.concat fresh w in
        Array.iter
          (fun f ->
            let mine = Inst.read_file (Filename.concat d f) in
            let theirs =
              try Inst.read_file (Filename.concat (Filename.concat committed w) f)
              with Sys_error _ -> ""
            in
            if mine <> theirs then begin
              ok := false;
              Printf.printf "committed corpus differs from the generator: %s/%s\n" w f
            end)
          (Sys.readdir d))
      workloads);
  if not !ok then exit 1

let () =
  match args with
  | "gen" :: _ ->
    let which = match opt "--workload" with Some w -> [ w ] | None -> workloads in
    gen ~size:Gen.Full ~seed:(int_arg "--seed") ~out:(required "--out") which
  | [ "check"; dir ] -> if not (check dir) then exit 1
  | "run" :: _ -> run ()
  | "smoke" :: _ -> smoke ()
  | _ ->
    prerr_endline "usage: main.exe (gen|check|run|smoke) ...";
    exit 2
