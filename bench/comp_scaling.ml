(* #Comp elimination-kernel measurements, written to BENCH_COMP.json
   (override with INCDB_BENCH_COMP_OUT):

   - a uniform Codd table past any size where enumerating candidate
     subsets is practical, counted by the forced kernel;
   - a non-Codd table with a shared null, against brute force.

   Every kernel leg runs under each jobs x cache configuration and must
   be bit-identical.  As with BENCH_PAR.json, the host core count is
   recorded: the DP is sequential, so the jobs > 1 rows only show that
   the extra domains cost nothing. *)

open Incdb_bignum
open Incdb_core

let job_levels = [ 1; 2; 4 ]

(* Every kernel leg runs through the dispatcher under each jobs x cache
   combination and must be bit-identical; the jobs rows of the cache-on
   half are reported. *)
let elim_configs =
  List.concat_map (fun jobs -> [ (jobs, true); (jobs, false) ]) job_levels

let sweep_configs ?query db =
  let results =
    List.map
      (fun (jobs, cache) ->
        let (algo, nn), t =
          Instances.time (fun () ->
              match query with
              | Some q ->
                Count_comp.count ~comp_elim:Comp_kernel.Force ~jobs
                  ~comp_cache:cache q db
              | None ->
                Count_comp.count_all ~comp_elim:Comp_kernel.Force ~jobs
                  ~comp_cache:cache db)
        in
        assert (algo = Count_comp.Lineage_elimination);
        (jobs, cache, nn, t))
      elim_configs
  in
  let _, _, n1, _ = List.hd results in
  assert (List.for_all (fun (_, _, nn, _) -> Nat.equal nn n1) results);
  let times =
    List.filter_map
      (fun (jobs, cache, _, t) ->
        if cache then
          Some (Printf.sprintf "{ \"jobs\": %d, \"seconds\": %.6f }" jobs t)
        else None)
      results
  in
  (n1, times)

(* The kernel legs finish in tens of milliseconds, where run-to-run
   variance inside the long bench process (GC state left by earlier
   rows) dominates; report the best of a few runs, the usual
   microbenchmark practice.  The seconds-long brute legs are run
   once. *)
let time_best f =
  let rec go best = function
    | 0 -> best
    | k ->
      let _, t = Instances.time f in
      go (Float.min best t) (k - 1)
  in
  let y, t0 = Instances.time f in
  (y, go t0 4)

(* A uniform Codd table of [n] unary nulls over [d] values: [d]
   candidate facts, a 2^d candidate-subset space.  The forced kernel
   must equal the closed form C(d,1)+...+C(d,n) and, when feasible, the
   brute-force dedup. *)
let elim_row ?(d = 120) ?(n = 3) () =
  let db = Instances.one_unary ~d ~n ~c:0 in
  let expected =
    Nat.sum (List.map (fun k -> Combinat.binomial d k) (List.init n succ))
  in
  let n_kernel, t_kernel =
    time_best (fun () ->
        snd (Count_comp.count_all ~comp_elim:Comp_kernel.Force db))
  in
  assert (Nat.equal n_kernel expected);
  let n_sweep, times = sweep_configs db in
  assert (Nat.equal n_sweep n_kernel);
  let brute_verified =
    Instances.brute_feasible db
    &&
    let nb = Incdb_par.Brute_par.count_all_completions ~jobs:4 db in
    assert (Nat.equal n_kernel nb);
    true
  in
  Printf.printf
    "  uniform Codd table (%d candidates, %d nulls): kernel %.3fs  (closed \
     form%s; bit-identical over %d jobs x cache configs)\n\
     %!"
    d n t_kernel
    (if brute_verified then " + Brute_par verified" else "")
    (List.length elim_configs);
  Printf.sprintf
    "    { \"section\": \"comp_elim:codd-%d-candidates-%d-nulls\", \
     \"result\": %S,\n\
    \      \"kernel_seconds\": %.6f, \"brute_verified\": %b,\n\
    \      \"configs_swept\": %d, \"times\": [ %s ] }"
    d n (Nat.to_string n_kernel) t_kernel brute_verified
    (List.length elim_configs)
    (String.concat ", " times)

(* The first non-Codd row the dispatcher solves without brute force: a
   shared null across R and S (plus free nulls on both sides), which no
   closed form accepts.  The kernel conditions on
   the shared null and sweeps all branches jointly; the brute leg is the
   pre-kernel cliff for the same instance. *)
let noncodd_row ?(d = 30) ?(free_r = 2) ?(free_s = 1) () =
  let db = Instances.shared_unary ~d ~free_r ~free_s in
  let algo, n_auto =
    (* Auto, not Force: the row's claim is that the *dispatcher* now
       routes this instance to the kernel. *)
    Count_comp.count_all db
  in
  assert (algo = Count_comp.Lineage_elimination);
  let _, t_kernel =
    time_best (fun () ->
        snd (Count_comp.count_all ~comp_elim:Comp_kernel.Force db))
  in
  let n_sweep, times = sweep_configs db in
  assert (Nat.equal n_sweep n_auto);
  let n_brute, t_brute =
    Instances.time (fun () ->
        Incdb_par.Brute_par.count_all_completions ~jobs:1 db)
  in
  assert (Nat.equal n_auto n_brute);
  Printf.printf
    "  non-Codd shared null (d=%d, %d free nulls): kernel %.3fs  brute \
     %.3fs  (%.0fx, Brute_par verified; bit-identical over %d configs)\n\
     %!"
    d (free_r + free_s) t_kernel t_brute (t_brute /. t_kernel)
    (List.length elim_configs);
  Printf.sprintf
    "    { \"section\": \"comp_elim:noncodd-shared-%d-dom-%d-free\", \
     \"result\": %S,\n\
    \      \"kernel_seconds\": %.6f, \"brute_seconds\": %.6f,\n\
    \      \"speedup_vs_brute\": %.3f, \"configs_swept\": %d,\n\
    \      \"times\": [ %s ] }"
    d (free_r + free_s) (Nat.to_string n_auto) t_kernel t_brute
    (t_brute /. t_kernel) (List.length elim_configs)
    (String.concat ", " times)

let write_sections rows =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"schema_version\": 1,\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"cores\": %d,\n  \"job_levels\": [ %s ],\n"
       (Incdb_par.Pool.recommended ())
       (String.concat ", " (List.map string_of_int job_levels)));
  Buffer.add_string buf "  \"sections\": [\n";
  Buffer.add_string buf (String.concat ",\n" rows);
  Buffer.add_string buf "\n  ]\n}\n";
  let path =
    match Sys.getenv_opt "INCDB_BENCH_COMP_OUT" with
    | Some p -> p
    | None -> "BENCH_COMP.json"
  in
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "  completion-kernel data written to %s\n%!" path

let run () =
  Printf.printf "\n=== Completion kernel (#Comp elimination) ===\n";
  Printf.printf "  host cores (recommended domain count): %d\n%!"
    (Incdb_par.Pool.recommended ());
  (* Explicit sequencing: list elements evaluate right-to-left, which
     would reverse the progress lines. *)
  let r1 = elim_row () in
  let r2 = noncodd_row () in
  write_sections [ r1; r2 ]

(* Tiny sizes for @bench-smoke: the same rows and assertions, with the
   uniform table shrunk to 30 candidates and the non-Codd sweep to an
   8-value domain. *)
let smoke () =
  Printf.printf "\n=== Completion kernel (smoke) ===\n%!";
  let (_ : string) = elim_row ~d:30 ~n:2 () in
  let (_ : string) = noncodd_row ~d:8 ~free_r:1 ~free_s:1 () in
  ()
