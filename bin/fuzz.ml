(* Differential fuzzer: hammer the tractable counting algorithms, the
   dispatchers, the estimators' event constructions and the classifier
   against brute force on randomly generated queries and databases, with
   a fixed seed for reproducibility.

     dune exec bin/fuzz.exe -- [--trace] [--metrics-out FILE] \
                               [--trace-out FILE] [--val-max-cells N] \
                               [--comp-elim auto|off|force] \
                               [--comp-width-bound W] [rounds] [seed]

   Exits non-zero on the first discrepancy, printing a replayable
   counterexample.  The obs flags mirror idbcount's; they are flushed
   through [at_exit] so a failing round (which exits mid-flight) still
   leaves a timeline of the run that produced the counterexample. *)

open Incdb_bignum
open Incdb_cq
open Incdb_incomplete
open Incdb_core

let consts = [| "a"; "b"; "c"; "d"; "e" |]

let random_query st =
  let natoms = 1 + Random.State.int st 3 in
  let vars = [| "x"; "y"; "z"; "w" |] in
  Cq.make
    (List.init natoms (fun i ->
         let arity = 1 + Random.State.int st 3 in
         Cq.atom
           (Printf.sprintf "Q%d" i)
           (List.init arity (fun _ ->
                vars.(Random.State.int st (Array.length vars))))))

let random_db st q =
  let fresh = ref 0 in
  let pool = [| "p0"; "p1"; "p2" |] in
  let codd = Random.State.bool st in
  let uniform = Random.State.bool st in
  let cell () =
    if Random.State.int st 10 < 4 then
      Term.const consts.(Random.State.int st (Array.length consts))
    else if codd then begin
      incr fresh;
      Term.null (Printf.sprintf "n%d" !fresh)
    end
    else Term.null pool.(Random.State.int st (Array.length pool))
  in
  let facts =
    List.concat_map
      (fun (a : Cq.atom) ->
        List.init 2 (fun _ ->
            Idb.fact a.Cq.rel
              (List.init (Array.length a.Cq.vars) (fun _ -> cell ()))))
      q
  in
  let null_names =
    List.sort_uniq String.compare
      (List.concat_map
         (fun (f : Idb.fact) ->
           Array.to_list f.Idb.args
           |> List.filter_map (function
                | Term.Null n -> Some n
                | Term.Const _ -> None))
         facts)
  in
  let subset () =
    let chosen =
      Array.to_list consts |> List.filter (fun _ -> Random.State.bool st)
    in
    match chosen with
    | [] -> [ consts.(Random.State.int st (Array.length consts)) ]
    | l -> l
  in
  let spec =
    if uniform then Idb.Uniform (subset ())
    else Idb.Nonuniform (List.map (fun n -> (n, subset ())) null_names)
  in
  Idb.make facts spec

let manageable db =
  match Nat.to_int_opt (Idb.total_valuations db) with
  | Some t -> t <= 50_000
  | None -> false

let check_round ~val_max_cells ~comp_elim ~comp_width_bound st round =
  let q = random_query st in
  let db = random_db st q in
  if manageable db then begin
    let fail what expected got =
      Printf.printf "FAILURE in round %d (%s)\n" round what;
      Printf.printf "query: %s\n" (Cq.to_string q);
      Printf.printf "database:\n%s\n" (Idb_parser.to_string db);
      Printf.printf "expected %s, got %s\n" expected got;
      exit 1
    in
    let brute_val = Brute.count_valuations (Query.Bcq q) db in
    let brute_comp = Brute.count_completions (Query.Bcq q) db in
    (* 1. dispatchers *)
    let _, v = Count_val.count ~val_max_cells q db in
    if not (Nat.equal v brute_val) then
      fail "#Val dispatcher" (Nat.to_string brute_val) (Nat.to_string v);
    let _, c = Count_comp.count ~comp_elim ~comp_width_bound q db in
    if not (Nat.equal c brute_comp) then
      fail "#Comp dispatcher" (Nat.to_string brute_comp) (Nat.to_string c);
    (* 1b. the elimination kernel, forced, against brute force: a
       disagreement is a first-class failure, not a fallback.  A typed
       [Infeasible] refusal is legitimate (the instance may genuinely
       exceed a kernel limit) — but only under the default policy; with
       --comp-elim force the count above already went through the
       kernel, so this cross-check is free. *)
    (match
       Count_comp.count ~comp_elim:Comp_kernel.Force ~comp_width_bound q db
     with
    | _, ce ->
      if not (Nat.equal ce brute_comp) then
        fail "forced comp elimination" (Nat.to_string brute_comp)
          (Nat.to_string ce)
    | exception Comp_kernel.Infeasible _ -> ());
    (* 2. Karp-Luby event inclusion-exclusion *)
    let events = Incdb_approx.Karp_luby.events (Query.Bcq q) db in
    if List.length events <= 16 then begin
      let via_events = Incdb_approx.Karp_luby.exact_unmemoized (Query.Bcq q) db in
      if not (Nat.equal via_events brute_val) then
        fail "event inclusion-exclusion" (Nat.to_string brute_val)
          (Nat.to_string via_events)
    end;
    (* 3. enumeration *)
    let enum_count =
      List.length (List.of_seq (Incdb_approx.Enumerate.satisfying (Query.Bcq q) db))
    in
    if not (Nat.equal (Nat.of_int enum_count) brute_val) then
      fail "enumerator" (Nat.to_string brute_val) (string_of_int enum_count);
    (* 4. certainty shortcuts *)
    let possible = Certainty.possible (Query.Bcq q) db in
    if possible <> (Nat.compare brute_val Nat.zero > 0) then
      fail "possibility shortcut"
        (string_of_bool (Nat.compare brute_val Nat.zero > 0))
        (string_of_bool possible);
    (* 4b. general query dispatcher on a union with the same atoms *)
    let union = Query.Union [ q ] in
    let _, vu = Count_val.count_query ~val_max_cells union db in
    if not (Nat.equal vu brute_val) then
      fail "count_query (union)" (Nat.to_string brute_val) (Nat.to_string vu);
    (* 4c. bag semantics bounds *)
    let bag = Brute.count_all_completions_bag db in
    let set = Brute.count_all_completions db in
    if
      Nat.compare set bag > 0
      || Nat.compare bag (Idb.total_valuations db) > 0
    then
      fail "bag-semantics bounds"
        (Printf.sprintf "%s <= %s <= %s" (Nat.to_string set) (Nat.to_string bag)
           (Nat.to_string (Idb.total_valuations db)))
        "violated";
    (* 5. bounds *)
    let b = Comp_bounds.bounds ~seed:round ~samples:100 q db in
    if
      Nat.compare b.Comp_bounds.lower brute_comp > 0
      || Nat.compare brute_comp b.Comp_bounds.upper > 0
    then
      fail "comp bounds"
        (Nat.to_string brute_comp)
        (Printf.sprintf "[%s, %s]"
           (Nat.to_string b.Comp_bounds.lower)
           (Nat.to_string b.Comp_bounds.upper));
    true
  end
  else false

(* Obs flags first, then the positional [rounds] [seed].  Exports hang
   off [at_exit], not a [Fun.protect]: the [fail] path and the usage
   errors both leave through [exit], which runs at_exit handlers but
   would skip a protect finalizer higher up the stack. *)
let parse_args () =
  let usage () =
    prerr_endline
      "usage: fuzz [--trace] [--metrics-out FILE] [--trace-out FILE] \
       [--val-max-cells N] [--comp-elim auto|off|force] \
       [--comp-width-bound W] [rounds] [seed]";
    exit 2
  in
  let trace = ref false in
  let metrics_out = ref None in
  let trace_out = ref None in
  let val_max_cells = ref Val_kernel.default_max_cells in
  let comp_elim = ref Comp_kernel.Auto in
  let comp_width_bound = ref Comp_kernel.default_width_bound in
  let positional = ref [] in
  let rec go = function
    | [] -> ()
    | "--trace" :: rest ->
      trace := true;
      go rest
    | "--metrics-out" :: path :: rest ->
      metrics_out := Some path;
      go rest
    | "--trace-out" :: path :: rest ->
      trace_out := Some path;
      go rest
    | "--val-max-cells" :: n :: rest -> (
      match int_of_string_opt n with
      | Some n ->
        val_max_cells := n;
        go rest
      | None -> usage ())
    | "--comp-elim" :: policy :: rest -> (
      match policy with
      | "auto" ->
        comp_elim := Comp_kernel.Auto;
        go rest
      | "off" ->
        comp_elim := Comp_kernel.Off;
        go rest
      | "force" ->
        comp_elim := Comp_kernel.Force;
        go rest
      | _ -> usage ())
    | "--comp-width-bound" :: n :: rest -> (
      match int_of_string_opt n with
      | Some n ->
        comp_width_bound := n;
        go rest
      | None -> usage ())
    | arg :: rest when String.length arg > 0 && arg.[0] <> '-' -> (
      match int_of_string_opt arg with
      | Some n ->
        positional := n :: !positional;
        go rest
      | None -> usage ())
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let rounds, seed =
    match List.rev !positional with
    | [] -> (300, 20260704)
    | [ rounds ] -> (rounds, 20260704)
    | [ rounds; seed ] -> (rounds, seed)
    | _ -> usage ()
  in
  if !trace || !metrics_out <> None || !trace_out <> None then
    Incdb_obs.Runtime.set_enabled true;
  if !trace then at_exit (fun () -> Incdb_obs.Export.pp_summary stderr);
  (match !metrics_out with
  | None -> ()
  | Some path ->
    at_exit (fun () ->
        try Incdb_obs.Export.write_file path
        with Sys_error msg -> prerr_endline ("fuzz: cannot write metrics: " ^ msg)));
  (match !trace_out with
  | None -> ()
  | Some path ->
    at_exit (fun () ->
        try Incdb_obs.Chrome.write_file path
        with Sys_error msg -> prerr_endline ("fuzz: cannot write trace: " ^ msg)));
  (rounds, seed, !val_max_cells, !comp_elim, !comp_width_bound)

let () =
  let rounds, seed, val_max_cells, comp_elim, comp_width_bound =
    parse_args ()
  in
  let st = Random.State.make [| seed |] in
  let executed = ref 0 in
  let limited = ref 0 in
  for round = 1 to rounds do
    (* The engines' typed resource-limit errors are legitimate refusals,
       not discrepancies: a random instance may blow any of the
       enumeration caps, and under --comp-elim force the elimination
       kernel's typed [Infeasible] is the same kind of refusal.  Skip
       the round — the generator must keep consuming the same random
       stream either way, and [check_round] draws its instance before
       any engine runs, so replayability holds. *)
    match check_round ~val_max_cells ~comp_elim ~comp_width_bound st round with
    | true -> incr executed
    | false -> ()
    | exception
        ( Idb.Too_many_valuations _ | Val_kernel.Too_many_events _
        | Comp_kernel.Infeasible _ ) ->
      incr limited
  done;
  Printf.printf
    "fuzz: %d/%d rounds executed (%d skipped as too large, %d refused by an \
     engine limit), no discrepancies\n"
    !executed rounds
    (rounds - !executed - !limited)
    !limited
