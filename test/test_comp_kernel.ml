(* Tests for the #Comp elimination kernel (Comp_kernel) and its
   dispatcher arm: hand-checked Codd and non-Codd instances (including
   the branch-overlap case where summing per-branch counts would
   overcount), typed-limit units for every Infeasible variant, the
   bag-boundary spill path, and qcheck agreement with the parallel
   brute-force oracle on random Codd and non-Codd tables and with the
   Theorem 4.6 closed form on uniform unary ones — counts and
   the deterministic elim counters bit-identical across jobs {1,2,4} and
   cache on/off. *)

open Incdb_bignum
open Incdb_cq
open Incdb_incomplete
open Incdb_core
module Brute = Incdb_par.Brute_par
module Metrics = Incdb_obs.Metrics

let check_nat = Gen.check_nat

(* The elim counters that must not depend on jobs / cache (the
   cache hit/miss counters are excluded by design). *)
let elim_counters =
  [
    "comp_kernel.elim_dispatch";
    "comp_kernel.cond_branches";
    "comp_kernel.elim_states";
    "comp_kernel.elim_spilled_messages";
  ]

let with_elim_deltas f =
  let v n = Metrics.value (Metrics.counter n) in
  let before = List.map v elim_counters in
  let was = Incdb_obs.Runtime.enabled () in
  Incdb_obs.Runtime.set_enabled true;
  let y = Fun.protect ~finally:(fun () -> Incdb_obs.Runtime.set_enabled was) f in
  (y, List.map2 (fun n b -> (n, v n - b)) elim_counters before)

(* ------------------------------------------------------------------ *)
(* Hand-checked instances                                              *)
(* ------------------------------------------------------------------ *)

(* Codd, one unary relation, n nulls over a d-value domain: the number
   of completions is sum_{k=1..n} C(d,k). *)
let test_codd_one_unary () =
  let db =
    Idb.make
      [
        Idb.fact "R" [ Term.null "n0" ];
        Idb.fact "R" [ Term.null "n1" ];
      ]
      (Idb.Uniform [ "v0"; "v1"; "v2" ])
  in
  check_nat "C(3,1) + C(3,2)" (Nat.of_int 6) (Comp_kernel.count db);
  let brute = Brute.count_all_completions db in
  check_nat "matches brute force" brute (Comp_kernel.count db)

(* Non-Codd: R(n), S(n) over {0,1} — the two completions are
   {R(0),S(0)} and {R(1),S(1)}. *)
let shared_pair () =
  Idb.make
    [ Idb.fact "R" [ Term.null "n" ]; Idb.fact "S" [ Term.null "n" ] ]
    (Idb.Nonuniform [ ("n", [ "0"; "1" ]) ])

let test_noncodd_shared_pair () =
  let db = shared_pair () in
  check_nat "two completions" Nat.two (Comp_kernel.count db);
  let brute = Brute.count_all_completions db in
  check_nat "matches brute force" brute (Comp_kernel.count db)

(* The union-overcount trap: R(n), R(m), S(n), S(m), both nulls shared
   over {0,1}.  The assignments (n,m) = (0,1) and (1,0) produce the
   same completion {R(0),R(1),S(0),S(1)}, so summing per-branch counts
   would give 4; the joint sweep must give 3. *)
let test_noncodd_branch_overlap () =
  let db =
    Idb.make
      [
        Idb.fact "R" [ Term.null "n" ];
        Idb.fact "R" [ Term.null "m" ];
        Idb.fact "S" [ Term.null "n" ];
        Idb.fact "S" [ Term.null "m" ];
      ]
      (Idb.Nonuniform [ ("n", [ "0"; "1" ]); ("m", [ "0"; "1" ]) ])
  in
  check_nat "three distinct completions" (Nat.of_int 3) (Comp_kernel.count db);
  let brute = Brute.count_all_completions db in
  check_nat "matches brute force" brute (Comp_kernel.count db)

(* A repeated null inside one fact must condition, not ground the
   off-diagonal: R(n,n) over {0,1} has exactly the two diagonal
   completions. *)
let test_noncodd_diagonal () =
  let db =
    Idb.make
      [ Idb.fact "R" [ Term.null "n"; Term.null "n" ] ]
      (Idb.Nonuniform [ ("n", [ "0"; "1" ]) ])
  in
  check_nat "diagonal only" Nat.two (Comp_kernel.count db);
  match Comp_kernel.plan db with
  | Error i -> Alcotest.failf "plan refused: %s" (Comp_kernel.infeasible_to_string i)
  | Ok p ->
    Alcotest.(check int) "two candidates" 2 (Comp_kernel.plan_universe p);
    Alcotest.(check int) "two branches" 2 (Comp_kernel.plan_branches p)

(* Queries through the lineage: the Figure 1 instance with S(x,x). *)
let test_query_figure1 () =
  let db =
    Idb.make
      [
        Idb.fact_of_strings "S" [ "a"; "b" ];
        Idb.fact_of_strings "S" [ "?n1"; "a" ];
        Idb.fact_of_strings "S" [ "a"; "?n2" ];
      ]
      (Idb.Nonuniform [ ("n1", [ "a"; "b"; "c" ]); ("n2", [ "a"; "b" ]) ])
  in
  let q = Cq.make [ Cq.atom "S" [ "x"; "x" ] ] in
  let expected = Brute.count_completions (Query.Bcq q) db in
  let got = Comp_kernel.count ~query:(Query.Bcq q) db in
  check_nat "kernel matches brute force" expected got;
  (* Negation compiles through the same lineage with the flag flipped:
     the two counts partition the completion space. *)
  let all = Comp_kernel.count db in
  let negated = Comp_kernel.count ~query:(Query.Not (Query.Bcq q)) db in
  check_nat "q and not-q partition the completions" all (Nat.add got negated)

(* Interchangeable facts: eight nulls over {a,b} and three over
   {a,b,c} in R, one S-null over {c,d}.  The kernel keeps min(copies,
   |image|) of each shape — 2 + 3 + 1 fact windows — and must still
   count exactly what brute force counts, with and without a join. *)
let test_interchangeable_facts () =
  let nulls prefix k dom =
    List.init k (fun i -> (Printf.sprintf "%s%d" prefix i, dom))
  in
  let doms =
    nulls "p" 8 [ "a"; "b" ] @ nulls "t" 3 [ "a"; "b"; "c" ]
    @ [ ("s", [ "c"; "d" ]) ]
  in
  let db =
    Idb.make
      (List.map
         (fun (n, _) ->
           Idb.fact (if n = "s" then "S" else "R") [ Term.null n ])
         doms)
      (Idb.Nonuniform doms)
  in
  (match Comp_kernel.plan db with
  | Ok p ->
    Alcotest.(check bool) "at most six open fact windows" true
      (Comp_kernel.plan_width p <= 6)
  | Error i -> Alcotest.fail (Comp_kernel.infeasible_to_string i));
  check_nat "all completions" (Brute.count_all_completions db)
    (Comp_kernel.count db);
  let q = Query.Bcq (Cq.of_string "R(x), S(x)") in
  check_nat "join" (Brute.count_completions q db) (Comp_kernel.count ~query:q db)

(* Empty table: exactly one completion (the empty database), which
   satisfies no positive query. *)
let test_empty_table () =
  let db = Idb.make [] (Idb.Uniform [ "v" ]) in
  check_nat "one empty completion" Nat.one (Comp_kernel.count db);
  let q = Cq.make [ Cq.atom "R" [ "x" ] ] in
  check_nat "empty completion fails R(x)" Nat.zero
    (Comp_kernel.count ~query:(Query.Bcq q) db)

(* ------------------------------------------------------------------ *)
(* Typed limits                                                        *)
(* ------------------------------------------------------------------ *)

let test_limits () =
  let db = shared_pair () in
  (match Comp_kernel.plan ~width_bound:0 db with
  | Error (Comp_kernel.Width_exceeded { bound = 0; _ }) -> ()
  | Error i ->
    Alcotest.failf "expected Width_exceeded, got %s"
      (Comp_kernel.infeasible_to_string i)
  | Ok _ -> Alcotest.fail "expected Width_exceeded, got a plan");
  (match Comp_kernel.plan ~max_branches:1 db with
  | Error (Comp_kernel.Too_many_branches { limit = 1; _ }) -> ()
  | _ -> Alcotest.fail "expected Too_many_branches");
  (match Comp_kernel.plan ~max_universe:1 db with
  | Error (Comp_kernel.Universe_too_large { limit = 1; _ }) -> ()
  | _ -> Alcotest.fail "expected Universe_too_large");
  (match Comp_kernel.count ~max_states:1 db with
  | exception Comp_kernel.Infeasible (Comp_kernel.Too_many_states { limit = 1; _ })
    -> ()
  | _ -> Alcotest.fail "expected Too_many_states");
  (* The same width failure raised through the convenience wrapper. *)
  match Comp_kernel.count ~width_bound:0 db with
  | exception Comp_kernel.Infeasible (Comp_kernel.Width_exceeded _) -> ()
  | _ -> Alcotest.fail "expected Infeasible through count"

(* Dispatcher: --comp-width-bound 0 under Auto must fall back (typed
   failure at plan time), and a mid-run state blowup under Auto must
   fall back to brute force with the same count. *)
let test_dispatcher_fallback () =
  let db = shared_pair () in
  let algo, n = Count_comp.count_all ~comp_width_bound:0 db in
  Alcotest.(check string)
    "width bound 0 falls back to brute force"
    (Count_comp.algorithm_to_string Count_comp.Brute_force)
    (Count_comp.algorithm_to_string algo);
  check_nat "fallback count" Nat.two n;
  let algo, n = Count_comp.count_all ~comp_max_states:1 db in
  Alcotest.(check string)
    "mid-run state blowup falls back to brute force"
    (Count_comp.algorithm_to_string Count_comp.Brute_force)
    (Count_comp.algorithm_to_string algo);
  check_nat "mid-run fallback count" Nat.two n;
  (* Force propagates instead. *)
  (match Count_comp.count_all ~comp_elim:Comp_kernel.Force ~comp_width_bound:0 db with
  | exception Comp_kernel.Infeasible (Comp_kernel.Width_exceeded _) -> ()
  | _ -> Alcotest.fail "Force must raise Infeasible");
  (* Off: closed form, else brute force. *)
  let algo, _ = Count_comp.count_all ~comp_elim:Comp_kernel.Off db in
  Alcotest.(check string) "Off routes non-Codd to brute force"
    (Count_comp.algorithm_to_string Count_comp.Brute_force)
    (Count_comp.algorithm_to_string algo)

(* ------------------------------------------------------------------ *)
(* Spill path                                                          *)
(* ------------------------------------------------------------------ *)

let test_spill_agreement () =
  let db =
    (* Two components (R-bits, S-bits) => at least two bags, and a
       frontier of more than one state at the boundary. *)
    Idb.make
      [
        Idb.fact "R" [ Term.null "n" ];
        Idb.fact "R" [ Term.null "r0" ];
        Idb.fact "S" [ Term.null "n" ];
        Idb.fact "S" [ Term.null "s0" ];
      ]
      (Idb.Nonuniform
         [
           ("n", [ "0"; "1"; "2" ]);
           ("r0", [ "0"; "1"; "2" ]);
           ("s0", [ "0"; "1"; "2" ]);
         ])
  in
  let reference = Comp_kernel.count db in
  let brute = Brute.count_all_completions db in
  check_nat "reference matches brute" brute reference;
  let spilled, deltas =
    with_elim_deltas (fun () -> Comp_kernel.count ~max_cells:1 db)
  in
  check_nat "count unchanged under max_cells 1" reference spilled;
  let spill_delta = List.assoc "comp_kernel.elim_spilled_messages" deltas in
  if spill_delta < 1 then
    Alcotest.failf "expected at least one spilled message, saw %d" spill_delta;
  (* And with the transform cache off. *)
  check_nat "spill x cache-off unchanged" reference
    (Comp_kernel.count ~max_cells:1 ~cache:false db)

(* ------------------------------------------------------------------ *)
(* Agreement properties                                                *)
(* ------------------------------------------------------------------ *)

let force_count ?jobs ?cache q db =
  Count_comp.count ?jobs ~comp_elim:Comp_kernel.Force ?comp_cache:cache q db

(* Random (Codd and non-Codd) tables, no query: kernel vs brute dedup. *)
let prop_kernel_vs_brute_all =
  QCheck.Test.make ~count:120 ~name:"comp_kernel count_all = brute dedup"
    QCheck.(triple small_int bool bool)
    (fun (seed, codd, uniform) ->
      let schema = [ ("R", 1); ("S", 2) ] in
      let db = Gen.random_idb ~seed ~schema ~rows:2 ~codd ~uniform in
      QCheck.assume (Gen.manageable ~limit:50_000 db);
      match Comp_kernel.count db with
      | exception Comp_kernel.Infeasible _ -> QCheck.assume_fail ()
      | n ->
        let brute = Brute.count_all_completions db in
        Nat.equal n brute)

(* Random query + random table: the dispatcher's forced elimination arm
   vs brute force. *)
let prop_kernel_vs_brute_query =
  QCheck.Test.make ~count:120 ~name:"comp_kernel query count = brute dedup"
    QCheck.(triple small_int small_int bool)
    (fun (qseed, dbseed, codd) ->
      let q = Gen.random_sjfbcq ~seed:qseed in
      let db =
        Gen.random_idb ~seed:dbseed ~schema:(Gen.schema_of_query q) ~rows:2
          ~codd ~uniform:false
      in
      QCheck.assume (Gen.manageable ~limit:50_000 db);
      match force_count q db with
      | exception Comp_kernel.Infeasible _ -> QCheck.assume_fail ()
      | _, n ->
        let brute = Brute.count_completions (Query.Bcq q) db in
        Nat.equal n brute)

(* Uniform unary tables (Codd or with shared nulls) over domains of up
   to 12 values, past where brute force stays cheap: the kernel must
   equal the Theorem 4.6 closed form, with and without a join. *)
let prop_kernel_vs_closed_form =
  QCheck.Test.make ~count:60 ~name:"comp_kernel = Thm 4.6 closed form"
    QCheck.(pair small_int bool)
    (fun (seed, codd) ->
      let st = Random.State.make [| seed |] in
      let d = 1 + Random.State.int st 12 in
      let fresh = ref 0 in
      let term () =
        if Random.State.int st 10 < 3 then
          Term.const ("v" ^ string_of_int (Random.State.int st (d + 1)))
        else if codd then begin
          incr fresh;
          Term.null ("n" ^ string_of_int !fresh)
        end
        else Term.null ("p" ^ string_of_int (Random.State.int st 2))
      in
      (* Both relations present, so the join query covers the schema. *)
      let facts =
        List.mapi
          (fun i rel ->
            let rel =
              if i < 2 then rel else if Random.State.bool st then "R" else "S"
            in
            Idb.fact rel [ term () ])
          (List.init (2 + Random.State.int st 4) (fun i ->
               if i = 1 then "S" else "R"))
      in
      let db =
        Idb.make facts (Idb.Uniform (List.init d (fun i -> "v" ^ string_of_int i)))
      in
      let q = Cq.of_string "R(x), S(x)" in
      match
        ( Comp_kernel.count db,
          Comp_kernel.count ~query:(Query.Bcq q) db )
      with
      | exception Comp_kernel.Infeasible _ -> QCheck.assume_fail ()
      | all, sat ->
        Nat.equal all (Count_comp.uniform_unary db)
        && Nat.equal sat (Count_comp.uniform_unary ~query:q db))

(* Counts AND deterministic counter deltas bit-identical across
   jobs {1,2,4} x cache on/off. *)
let prop_config_invariance =
  QCheck.Test.make ~count:40
    ~name:"comp_kernel invariant across jobs x cache"
    QCheck.(triple small_int bool bool)
    (fun (seed, codd, uniform) ->
      let schema = [ ("R", 1); ("S", 2) ] in
      let db = Gen.random_idb ~seed ~schema ~rows:2 ~codd ~uniform in
      QCheck.assume (Gen.manageable ~limit:50_000 db);
      let q = Cq.make [ Cq.atom "R" [ "x" ]; Cq.atom "S" [ "x"; "y" ] ] in
      let run jobs cache =
        with_elim_deltas (fun () -> force_count ~jobs ~cache q db)
      in
      match run 1 true with
      | exception Comp_kernel.Infeasible _ -> QCheck.assume_fail ()
      | (ref_algo, ref_n), ref_deltas ->
        List.for_all
          (fun (jobs, cache) ->
            let (algo, n), deltas = run jobs cache in
            algo = ref_algo && Nat.equal n ref_n && deltas = ref_deltas)
          [ (2, true); (4, true); (1, false); (2, false); (4, false) ])

let () =
  Alcotest.run "comp_kernel"
    [
      ( "hand",
        [
          Alcotest.test_case "codd one unary" `Quick test_codd_one_unary;
          Alcotest.test_case "non-codd shared pair" `Quick
            test_noncodd_shared_pair;
          Alcotest.test_case "non-codd branch overlap" `Quick
            test_noncodd_branch_overlap;
          Alcotest.test_case "non-codd diagonal" `Quick test_noncodd_diagonal;
          Alcotest.test_case "query figure1" `Quick test_query_figure1;
          Alcotest.test_case "interchangeable facts" `Quick
            test_interchangeable_facts;
          Alcotest.test_case "empty table" `Quick test_empty_table;
        ] );
      ( "limits",
        [
          Alcotest.test_case "typed limits" `Quick test_limits;
          Alcotest.test_case "dispatcher fallback" `Quick
            test_dispatcher_fallback;
        ] );
      ("spill", [ Alcotest.test_case "spill agreement" `Quick test_spill_agreement ]);
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_kernel_vs_brute_all;
          QCheck_alcotest.to_alcotest prop_kernel_vs_brute_query;
          QCheck_alcotest.to_alcotest prop_kernel_vs_closed_form;
          QCheck_alcotest.to_alcotest prop_config_invariance;
        ] );
    ]
