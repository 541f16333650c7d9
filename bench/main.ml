(* Benchmark and experiment harness.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- quick   # experiments only, no timings
     dune exec bench/main.exe -- smoke   # every section at tiny sizes

   Each section regenerates one artifact of the paper (Table 1, Figure 1,
   or a proposition's reduction/algorithm) and prints paper-vs-measured;
   see DESIGN.md section 3 for the experiment index and EXPERIMENTS.md for
   the recorded outcomes.

   The experiment phase runs with Incdb_obs collection on, so every run
   also produces a metrics JSON (default BENCH_OBS.json, override with
   INCDB_METRICS_OUT).  The bechamel timing phase runs with collection
   *off* unless INCDB_OBS is set, so the published numbers measure the
   disabled fast path of the probes.

   The smoke mode backs the @bench-smoke dune alias (wired into the
   default runtest): it drives every benchmark section once at tiny
   instance sizes — same code paths and assertions, seconds of wall
   time, no JSON artifacts — so bench code cannot silently rot between
   full benchmark runs. *)

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  if mode = "smoke" then begin
    Printf.printf "incdb benchmark smoke (tiny sizes, one run per probe)\n";
    Timings.smoke ();
    Scaling.smoke ();
    Comp_scaling.smoke ();
    Val_scaling.smoke ();
    Serve_scaling.smoke ();
    Printf.printf "\nAll benchmark sections smoke-tested.\n"
  end
  else if mode = "val" then
    (* Regenerate BENCH_VAL.json alone, without the experiment phase. *)
    Val_scaling.run ()
  else if mode = "serve" then
    (* Regenerate BENCH_SERVE.json alone (warm-vs-cold service rates). *)
    Serve_scaling.run ()
  else if mode = "comp" then
    (* Regenerate BENCH_COMP.json alone (#Comp elimination kernel). *)
    Comp_scaling.run ()
  else begin
    let quick = mode = "quick" in
    Printf.printf
      "Counting Problems over Incomplete Databases - reproduction harness\n";
    Incdb_obs.Runtime.set_enabled true;
    Experiments.run_all ();
    if not quick then begin
      (* Timings measure the no-op path of the observability probes by
         default; INCDB_OBS=1 opts the timed code back into collection. *)
      Incdb_obs.Runtime.set_enabled false;
      Incdb_obs.Runtime.init_from_env ();
      Timings.run ();
      Scaling.run ();
      Comp_scaling.run ();
      Val_scaling.run ();
      Serve_scaling.run ()
    end;
    let metrics_path =
      match Sys.getenv_opt "INCDB_METRICS_OUT" with
      | Some p -> p
      | None -> "BENCH_OBS.json"
    in
    Incdb_obs.Export.write_file metrics_path;
    Printf.printf "\nObservability metrics written to %s\n" metrics_path;
    Printf.printf "All experiment sections completed.\n"
  end
