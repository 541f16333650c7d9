(* Tests for the bitmask lineage compiler (Lineage.Wide):

   - compiled DNF satisfaction agrees with materialized Query.eval on
     every sub-database of a random universe, for BCQs, negations,
     unions and inequalities;
   - opaque queries do not compile, and clauses are minimal;
   - the Lemma B.2 completion test (Codd.is_completion) accepts exactly
     the candidate subsets some valuation produces, also across the
     machine-word boundaries of the candidate universe;
   - the elimination kernel that reads the lineage agrees with brute
     force under negated queries, declines opaque ones and oversized
     universes with typed errors, gives the same totals at every job
     count, and counts correctly past one machine word of candidate
     facts. *)

open Incdb_bignum
open Incdb_cq
open Incdb_incomplete
open Incdb_relational
open Incdb_core

let check_nat = Gen.check_nat

(* The candidate universe of a random Codd table over [schema] when it
   has at most [limit] facts; [None] when the draw is too big (qcheck
   assumes). *)
let small_universe ~seed ~limit schema =
  let schema =
    (* One arity per relation: duplicate relation names across the atoms
       of random queries would otherwise produce conflicting rows. *)
    List.sort_uniq compare schema
    |> List.fold_left
         (fun acc (r, a) -> if List.mem_assoc r acc then acc else (r, a) :: acc)
         []
  in
  let db =
    Gen.random_idb ~seed ~schema ~rows:2 ~codd:true ~uniform:(seed mod 2 = 0)
  in
  let u = Gen.candidate_facts db in
  if Array.length u <= limit then Some u else None

let mask_of_int ~width k =
  let m = ref (Bitset.zero ~width) in
  for i = 0 to width - 1 do
    if k land (1 lsl i) <> 0 then m := Bitset.set !m i
  done;
  !m

let subset_of universe k =
  Cdb.of_list
    (List.filteri (fun i _ -> k land (1 lsl i) <> 0) (Array.to_list universe))

(* ------------------------------------------------------------------ *)
(* Lineage compilation vs materialized evaluation                      *)
(* ------------------------------------------------------------------ *)

let lineage_agrees q universe =
  match Lineage.Wide.compile q universe with
  | None -> QCheck.assume_fail ()
  | Some l ->
    let m = Array.length universe in
    List.for_all
      (fun k ->
        Lineage.Wide.sat l (mask_of_int ~width:m k)
        = Query.eval q (subset_of universe k))
      (List.init (1 lsl m) Fun.id)

let prop_lineage_eval =
  QCheck.Test.make ~count:80 ~name:"lineage DNF = Query.eval on subsets"
    QCheck.(make (QCheck.Gen.int_range 1 1_000_000))
    (fun seed ->
      let cq = Gen.random_sjfbcq ~seed in
      match small_universe ~seed ~limit:10 (Gen.schema_of_query cq) with
      | None -> QCheck.assume_fail ()
      | Some universe ->
        lineage_agrees (Query.Bcq cq) universe
        && lineage_agrees (Query.Not (Query.Bcq cq)) universe)

let prop_lineage_union =
  QCheck.Test.make ~count:40 ~name:"lineage of unions and inequalities"
    QCheck.(make (QCheck.Gen.int_range 1 1_000_000))
    (fun seed ->
      let cq1 = Gen.random_sjfbcq ~seed in
      let cq2 = Gen.random_sjfbcq ~seed:(seed + 7919) in
      let q = Query.Union [ cq1; cq2 ] in
      match
        small_universe ~seed ~limit:8
          (Gen.schema_of_query cq1 @ Gen.schema_of_query cq2)
      with
      | None -> QCheck.assume_fail ()
      | Some universe ->
        lineage_agrees q universe
        &&
        let vars =
          match Cq.variables cq1 with x :: y :: _ -> [ (x, y) ] | _ -> []
        in
        lineage_agrees (Query.Bcq_neq (cq1, vars)) universe)

let test_lineage_semantic_uncompilable () =
  let q =
    Query.Semantic
      { Query.name = "opaque"; monotone = true; sem_eval = (fun _ -> true) }
  in
  let universe = [| Cdb.fact "R" [ "a" ] |] in
  Alcotest.(check bool)
    "Semantic does not compile" true
    (Lineage.Wide.compile q universe = None);
  Alcotest.(check bool)
    "negated Semantic does not compile" true
    (Lineage.Wide.compile (Query.Not q) universe = None)

let test_lineage_minimality () =
  (* R(x) over {R(a), R(b)}: two singleton clauses, none subsumed; the
     2-atom match footprints R(a),R(b) are subsumed away. *)
  let universe = [| Cdb.fact "R" [ "a" ]; Cdb.fact "R" [ "b" ] |] in
  match Lineage.Wide.compile (Query.Bcq (Cq.of_string "R(x)")) universe with
  | None -> Alcotest.fail "R(x) must compile"
  | Some l ->
    Alcotest.(check int) "two minimal clauses" 2 (Lineage.Wide.clause_count l);
    Alcotest.(check bool) "positive" false (Lineage.Wide.is_negated l);
    Array.iter
      (fun c -> Alcotest.(check int) "singleton clause" 1 (Bitset.popcount c))
      (Lineage.Wide.clauses l)

(* ------------------------------------------------------------------ *)
(* Lemma B.2 completion test on whole candidate universes              *)
(* ------------------------------------------------------------------ *)

(* Every subset of the candidate universe, not only completions and
   their one-fact mutations: stray, missing and doubled-up facts must all
   be rejected exactly when no valuation produces the subset. *)
let prop_is_completion_every_subset =
  QCheck.Test.make ~count:80
    ~name:"Codd.is_completion = valuation search on every candidate subset"
    QCheck.(make (QCheck.Gen.int_range 1 1_000_000))
    (fun seed ->
      let db =
        Gen.random_idb ~seed ~schema:[ ("R", 1); ("S", 2) ] ~rows:2 ~codd:true
          ~uniform:(seed mod 2 = 0)
      in
      let universe = Gen.candidate_facts db in
      QCheck.assume (Array.length universe <= 10);
      List.for_all
        (fun k ->
          let s = subset_of universe k in
          Codd.is_completion db s = Codd.is_completion_brute db s)
        (List.init (1 lsl Array.length universe) Fun.id))

let test_fact_can_produce () =
  let db =
    Idb.make
      [ Idb.fact "R" [ Term.null "n"; Term.const "a"; Term.null "n" ] ]
      (Idb.Nonuniform [ ("n", [ "b"; "c" ]) ])
  in
  let f = List.hd (Idb.facts db) in
  let can args = Codd.fact_can_produce db f (Cdb.fact "R" args) in
  Alcotest.(check bool) "n = b" true (can [ "b"; "a"; "b" ]);
  Alcotest.(check bool) "n = c" true (can [ "c"; "a"; "c" ]);
  Alcotest.(check bool) "repeated null takes one value" false
    (can [ "b"; "a"; "c" ]);
  Alcotest.(check bool) "constant must match" false (can [ "b"; "b"; "b" ]);
  Alcotest.(check bool) "value outside the null's domain" false
    (can [ "a"; "a"; "a" ]);
  Alcotest.(check bool) "other relation" false
    (Codd.fact_can_produce db f (Cdb.fact "S" [ "b"; "a"; "b" ]));
  Alcotest.(check bool) "other arity" false (can [ "b"; "a" ])

(* ------------------------------------------------------------------ *)
(* Elimination kernel on Codd tables                                   *)
(* ------------------------------------------------------------------ *)

let has_r =
  Query.Semantic
    {
      Query.name = "has R";
      monotone = true;
      sem_eval = (fun s -> Cdb.cardinal s > 0);
    }

(* Negation flips the compiled lineage; an opaque query has none, so
   the kernel declines it with a typed reason. *)
let prop_kernel_vs_brute_negated =
  QCheck.Test.make ~count:60
    ~name:"kernel count = brute force, negated and opaque queries"
    QCheck.(make (QCheck.Gen.int_range 1 1_000_000))
    (fun seed ->
      let db =
        Gen.random_idb ~seed ~schema:[ ("R", 1); ("S", 1) ] ~rows:3 ~codd:true
          ~uniform:(seed mod 2 = 0)
      in
      QCheck.assume (Gen.manageable ~limit:50_000 db);
      let q = Query.Bcq (Cq.of_string "R(x), S(x)") in
      let agrees query =
        Nat.equal
          (Comp_kernel.count ~query db)
          (Brute.count_completions query db)
      in
      agrees q && agrees (Query.Not q)
      && Comp_kernel.plan ~query:has_r db
         = Error Comp_kernel.Uncompilable_query)

let prop_kernel_jobs_invariant =
  QCheck.Test.make ~count:40 ~name:"kernel totals bit-identical across jobs"
    QCheck.(make (QCheck.Gen.int_range 1 1_000_000))
    (fun seed ->
      let db =
        Gen.random_idb ~seed ~schema:[ ("R", 2) ] ~rows:3 ~codd:true
          ~uniform:(seed mod 2 = 0)
      in
      QCheck.assume (Gen.manageable ~limit:50_000 db);
      let q = Cq.of_string "R(x,x)" in
      let algo1, n1 = Count_comp.count ~jobs:1 q db in
      List.for_all
        (fun jobs ->
          let algo, n = Count_comp.count ~jobs q db in
          algo = algo1 && Nat.equal n n1)
        [ 2; 4 ])

(* Six unary nulls, each over {v0, v1, v2, w_i}: no two facts are
   interchangeable, so the plan keeps six fact windows open.  Brute
   force's typed limit reports the real valuation count 4^6; below that
   width bound the dispatcher falls to brute force while brute force can
   answer, and re-plans at the kernel's full width once it cannot. *)
let test_brute_limit_typed () =
  let nulls = List.init 6 (Printf.sprintf "n%d") in
  let db =
    Idb.make
      (List.map (fun n -> Idb.fact "R" [ Term.null n ]) nulls)
      (Idb.Nonuniform
         (List.mapi
            (fun i n -> (n, [ "v0"; "v1"; "v2"; Printf.sprintf "w%d" i ]))
            nulls))
  in
  let expected = Brute.count_all_completions db in
  let off = Comp_kernel.Off in
  (match Count_comp.count_all ~comp_elim:off ~brute_limit:1_000 db with
  | _ -> Alcotest.fail "expected Too_many_valuations"
  | exception Idb.Too_many_valuations { total; limit } ->
    check_nat "valuations" (Nat.of_int 4096) total;
    Alcotest.(check int) "limit" 1_000 limit);
  let algo, n = Count_comp.count_all ~comp_elim:off ~brute_limit:4096 db in
  Alcotest.(check string) "a higher brute limit lifts the error"
    (Count_comp.algorithm_to_string Count_comp.Brute_force)
    (Count_comp.algorithm_to_string algo);
  check_nat "brute count" expected n;
  let algo, n = Count_comp.count_all ~comp_width_bound:1 ~brute_limit:4096 db in
  Alcotest.(check string) "past the width bound, brute force answers"
    (Count_comp.algorithm_to_string Count_comp.Brute_force)
    (Count_comp.algorithm_to_string algo);
  check_nat "brute count" expected n;
  let algo, n = Count_comp.count_all ~comp_width_bound:1 ~brute_limit:1_000 db in
  Alcotest.(check string) "past both bounds, the kernel re-plans wide"
    (Count_comp.algorithm_to_string Count_comp.Lineage_elimination)
    (Count_comp.algorithm_to_string algo);
  check_nat "wide kernel count" expected n;
  let algo, n = Count_comp.count_all ~brute_limit:1_000 db in
  Alcotest.(check string) "the default width bound plans it"
    (Count_comp.algorithm_to_string Count_comp.Lineage_elimination)
    (Count_comp.algorithm_to_string algo);
  check_nat "kernel count" expected n

let test_universe_probe () =
  let db =
    Idb.make
      [ Idb.fact "R" [ Term.null "n" ] ]
      (Idb.Uniform (List.init 8 (fun i -> "v" ^ string_of_int i)))
  in
  (match Comp_kernel.plan ~max_universe:8 db with
  | Ok p -> Alcotest.(check int) "full universe" 8 (Comp_kernel.plan_universe p)
  | Error i -> Alcotest.fail (Comp_kernel.infeasible_to_string i));
  match Comp_kernel.plan ~max_universe:7 db with
  | Error (Comp_kernel.Universe_too_large { universe; limit }) ->
    (* Grounding stops at the first candidate past the cap. *)
    Alcotest.(check int) "stops one past the cap" 8 universe;
    Alcotest.(check int) "limit" 7 limit
  | Error i -> Alcotest.fail (Comp_kernel.infeasible_to_string i)
  | Ok _ -> Alcotest.fail "expected Universe_too_large"

(* ------------------------------------------------------------------ *)
(* Past one machine word of candidate facts                            *)
(* ------------------------------------------------------------------ *)

let uniform_unary ~d ~n =
  Idb.make
    (List.init n (fun i -> Idb.fact "R" [ Term.null (Printf.sprintf "n%d" i) ]))
    (Idb.Uniform (List.init d (fun i -> "v" ^ string_of_int i)))

let test_beyond_word_ceiling () =
  (* 65 candidates: the clause and adjacency masks span two words.  The
     forced kernel must agree with brute-force enumeration and the
     closed form C(65,1) + C(65,2), bit-identically at every job
     count. *)
  let db = uniform_unary ~d:65 ~n:2 in
  let expected =
    Nat.add (Combinat.binomial 65 1) (Combinat.binomial 65 2)
  in
  List.iter
    (fun jobs ->
      check_nat
        (Printf.sprintf "kernel total at jobs %d" jobs)
        expected
        (snd (Count_comp.count_all ~comp_elim:Comp_kernel.Force ~jobs db)))
    [ 1; 2; 4 ];
  check_nat "Brute_par agrees" expected
    (Incdb_par.Brute_par.count_all_completions ~jobs:2 db);
  check_nat "Thm 4.6 agrees" expected (Count_comp.uniform_unary db);
  (* A query leg past the ceiling, with its negation. *)
  let q = Cq.of_string "R(x)" in
  check_nat "wide query = brute query"
    (Incdb_par.Brute_par.count_completions ~jobs:2 (Query.Bcq q) db)
    (snd (Count_comp.count ~comp_elim:Comp_kernel.Force q db));
  check_nat "wide negated query"
    (Incdb_par.Brute_par.count_completions ~jobs:2 (Query.Not (Query.Bcq q)) db)
    (Comp_kernel.count ~query:(Query.Not (Query.Bcq q)) db)

(* A Codd table whose candidate universe is exactly [sizes] summed: one
   unary null per domain block, pairwise-disjoint domains. *)
let disjoint_codd sizes =
  let facts =
    List.mapi
      (fun i _ -> Idb.fact "R" [ Term.null (Printf.sprintf "n%d" i) ])
      sizes
  in
  let doms =
    List.mapi
      (fun i d ->
        ( Printf.sprintf "n%d" i,
          List.init d (fun j -> Printf.sprintf "b%d_%d" i j) ))
      sizes
  in
  Idb.make facts (Idb.Nonuniform doms)

let test_word_boundary_counts () =
  (* Universes of exactly 63, 64 and 65 ground facts — one word plus
     one, two and three bits.  Disjoint domains make the completions
     exactly the choice tuples; the dispatcher routes these nonuniform
     Codd tables to the kernel. *)
  List.iter
    (fun sizes ->
      let m = List.fold_left ( + ) 0 sizes in
      let db = disjoint_codd sizes in
      Alcotest.(check int) "universe size" m
        (Array.length (Gen.candidate_facts db));
      let algo, n = Count_comp.count_all ~jobs:2 db in
      Alcotest.(check string) "routed to the kernel"
        (Count_comp.algorithm_to_string Count_comp.Lineage_elimination)
        (Count_comp.algorithm_to_string algo);
      check_nat
        (Printf.sprintf "count at universe %d" m)
        (Nat.of_int (List.fold_left (fun a d -> a * d) 1 sizes))
        n)
    [ [ 21; 21; 21 ]; [ 21; 21; 22 ]; [ 21; 22; 22 ] ]

(* The matching side of the same universes: the bipartite graph of
   Lemma B.2 has 63, 64 or 65 right-hand candidates.  Hand-picked
   subsets cover a valid one-fact-per-null completion (including the
   highest candidate), a same-null double assignment (every fact of the
   table can produce a fact of the subset, but no matching saturates it),
   an oversized subset and the whole universe; the backtracking and
   valuation-search tests must give the same verdicts. *)
let test_codd_matching_boundary () =
  List.iter
    (fun sizes ->
      let m = List.fold_left ( + ) 0 sizes in
      let db = disjoint_codd sizes in
      let universe = Gen.candidate_facts db in
      Alcotest.(check int) "universe size" m (Array.length universe);
      let check name expected subset =
        List.iter
          (fun (test, verdict) ->
            Alcotest.(check bool)
              (Printf.sprintf "%s, %s (m=%d)" name test m)
              expected (verdict db subset))
          [
            ("matching", Codd.is_completion);
            ("backtracking", Codd.is_completion_naive);
            ("valuation search", Codd.is_completion_brute ?limit:None);
          ]
      in
      let facts values =
        Cdb.of_list (List.map (fun v -> Cdb.fact "R" [ v ]) values)
      in
      let last i = Printf.sprintf "b%d_%d" i (List.nth sizes i - 1) in
      check "one per null" true (facts [ "b0_0"; last 1; last 2 ]);
      check "two from one null" false (facts [ "b0_0"; "b0_1"; "b1_0" ]);
      check "four facts, three nulls" false
        (facts [ "b0_0"; "b1_0"; "b2_0"; last 2 ]);
      check "whole universe" false (Cdb.of_list (Array.to_list universe)))
    [ [ 21; 21; 21 ]; [ 21; 21; 22 ]; [ 21; 22; 22 ] ]

(* ------------------------------------------------------------------ *)

let () =
  let to_alcotest = QCheck_alcotest.to_alcotest in
  Alcotest.run "lineage"
    [
      ( "lineage",
        [
          to_alcotest prop_lineage_eval;
          to_alcotest prop_lineage_union;
          Alcotest.test_case "semantic uncompilable" `Quick
            test_lineage_semantic_uncompilable;
          Alcotest.test_case "minimality" `Quick test_lineage_minimality;
        ] );
      ( "codd",
        [
          to_alcotest prop_is_completion_every_subset;
          Alcotest.test_case "fact_can_produce" `Quick test_fact_can_produce;
        ] );
      ( "kernel",
        [
          to_alcotest prop_kernel_vs_brute_negated;
          to_alcotest prop_kernel_jobs_invariant;
          Alcotest.test_case "typed brute limit" `Quick test_brute_limit_typed;
          Alcotest.test_case "universe probe" `Quick test_universe_probe;
        ] );
      ( "wide",
        [
          Alcotest.test_case "beyond word ceiling" `Quick
            test_beyond_word_ceiling;
          Alcotest.test_case "counts at 63/64/65" `Quick
            test_word_boundary_counts;
          Alcotest.test_case "Codd matching at 63/64/65" `Quick
            test_codd_matching_boundary;
        ] );
    ]
