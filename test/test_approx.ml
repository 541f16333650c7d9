(* Validation of the estimators of Section 5: the Karp-Luby event
   construction is exact (inclusion-exclusion over events equals brute
   force), and both estimators converge on seeded instances. *)

open Incdb_bignum
open Incdb_cq
open Incdb_incomplete
open Incdb_approx

let bcq s = Query.Bcq (Cq.of_string s)

let brute = Brute.count_valuations

(* ------------------------------------------------------------------ *)
(* Event construction                                                  *)
(* ------------------------------------------------------------------ *)

let prop_events_exact query schema =
  let q = bcq query in
  QCheck.Test.make ~count:60
    ~name:(Printf.sprintf "events inclusion-exclusion = brute [%s]" query)
    QCheck.(make (QCheck.Gen.int_range 1 1_000_000))
    (fun seed ->
      let db =
        Gen.random_idb ~seed ~schema ~rows:2 ~codd:(seed mod 2 = 0)
          ~uniform:(seed mod 3 = 0)
      in
      QCheck.assume (Gen.manageable db);
      QCheck.assume (List.length (Karp_luby.events q db) <= 18);
      Nat.equal (Karp_luby.exact_unmemoized q db) (brute q db))

let prop_events_rxx = prop_events_exact "R(x,x)" [ ("R", 2) ]
let prop_events_rxsx = prop_events_exact "R(x), S(x)" [ ("R", 1); ("S", 1) ]
let prop_events_path = prop_events_exact "R(x), S(x,y)" [ ("R", 1); ("S", 2) ]

let prop_events_union =
  QCheck.Test.make ~count:40 ~name:"events for a union of BCQs"
    QCheck.(make (QCheck.Gen.int_range 1 1_000_000))
    (fun seed ->
      let q = Query.Union [ Cq.of_string "R(x,x)"; Cq.of_string "S(x)" ] in
      let db =
        Gen.random_idb ~seed ~schema:[ ("R", 2); ("S", 1) ] ~rows:2 ~codd:false
          ~uniform:true
      in
      QCheck.assume (Gen.manageable db);
      QCheck.assume (List.length (Karp_luby.events q db) <= 18);
      Nat.equal (Karp_luby.exact_unmemoized q db) (brute q db))

let test_events_monotone_only () =
  let db = Idb.make [ Idb.fact "R" [ Term.null "n" ] ] (Idb.Uniform [ "0" ]) in
  Alcotest.check_raises "negation rejected"
    (Invalid_argument "Karp_luby.events: only monotone (unions of) BCQs")
    (fun () -> ignore (Karp_luby.events (Query.Not (bcq "R(x)")) db))

let test_events_empty () =
  let db = Idb.make [ Idb.fact "R" [ Term.null "n" ] ] (Idb.Uniform [ "0"; "1" ]) in
  Alcotest.(check int) "no S facts, no events" 0
    (List.length (Karp_luby.events (bcq "S(x)") db))

(* ------------------------------------------------------------------ *)
(* Estimator accuracy (seeded, deterministic)                          *)
(* ------------------------------------------------------------------ *)

let relative_error exact est =
  let e = Nat.to_float exact in
  if e = 0. then abs_float est else abs_float (est -. e) /. e

let accuracy_instance () =
  (* A 3-coloring encoding: nontrivial #Val over ~2000 valuations. *)
  let g = Incdb_graph.Generators.cycle 7 in
  let db = Incdb_reductions.Coloring_red.encode g in
  (db, Query.Bcq Incdb_reductions.Coloring_red.query)

let test_karp_luby_accuracy () =
  let db, q = accuracy_instance () in
  let exact = brute q db in
  let est = Karp_luby.estimate ~seed:42 ~samples:20_000 q db in
  Alcotest.(check bool)
    (Printf.sprintf "KL within 5%% (exact=%s est=%.1f)" (Nat.to_string exact) est)
    true
    (relative_error exact est < 0.05)

let test_montecarlo_accuracy () =
  let db, q = accuracy_instance () in
  let exact = brute q db in
  let est = Montecarlo.estimate ~seed:7 ~samples:20_000 q db in
  Alcotest.(check bool) "MC within 5%" true (relative_error exact est < 0.05)

let test_zero_case () =
  (* Unsatisfiable: both estimators must return exactly 0. *)
  let db = Idb.make [ Idb.fact "R" [ Term.null "n" ] ] (Idb.Uniform [ "0"; "1" ]) in
  let q = bcq "R(x), S(x)" in
  Alcotest.(check (float 0.0)) "KL zero" 0.0
    (Karp_luby.estimate ~seed:1 ~samples:100 q db);
  Alcotest.(check (float 0.0)) "MC zero" 0.0
    (Montecarlo.estimate ~seed:1 ~samples:100 q db)

let test_rejects_zero_samples () =
  (* A sample budget of zero must be rejected up front, not return a
     silent 0 or NaN. *)
  let db =
    Idb.make [ Idb.fact "R" [ Term.null "n" ] ] (Idb.Uniform [ "0"; "1" ])
  in
  let q = bcq "R(x)" in
  let expect_invalid name f =
    match f () with
    | (_ : float) -> Alcotest.failf "%s accepted ~samples:0" name
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "estimate" (fun () ->
      Karp_luby.estimate ~seed:1 ~samples:0 q db);
  expect_invalid "estimate_with_ci" (fun () ->
      fst (Karp_luby.estimate_with_ci ~seed:1 ~samples:0 q db))

let test_full_case () =
  (* Query satisfied by every valuation: estimators return the total. *)
  let db =
    Idb.make
      [ Idb.fact "R" [ Term.null "n"; Term.null "m" ] ]
      (Idb.Uniform [ "0"; "1" ])
  in
  let q = bcq "R(x,y)" in
  Alcotest.(check (float 0.001)) "KL full" 4.0
    (Karp_luby.estimate ~seed:1 ~samples:2000 q db);
  Alcotest.(check (float 0.001)) "MC full" 4.0
    (Montecarlo.estimate ~seed:1 ~samples:2000 q db)

let test_samples_for () =
  Alcotest.(check int) "FPRAS sample budget" 400_000
    (Karp_luby.samples_for ~epsilon:0.01 ~events:10);
  Alcotest.check_raises "bad epsilon"
    (Invalid_argument "Karp_luby.samples_for: epsilon <= 0") (fun () ->
      ignore (Karp_luby.samples_for ~epsilon:0. ~events:1));
  Alcotest.check_raises "negative events"
    (Invalid_argument "Karp_luby.samples_for: negative events") (fun () ->
      ignore (Karp_luby.samples_for ~epsilon:0.5 ~events:(-1)))

let test_samples_for_overflow () =
  (* ceil(4 * events / eps^2) stops fitting a machine int well before
     eps underflows: the budget must fail with the typed error, never
     truncate to a garbage (possibly negative) count. *)
  Alcotest.(check bool) "tiny epsilon overflows" true
    (match Karp_luby.samples_for ~epsilon:1e-10 ~events:1 with
    | (_ : int) -> false
    | exception Karp_luby.Sample_budget_overflow { epsilon; events } ->
      epsilon = 1e-10 && events = 1);
  (* Boundary, with power-of-two epsilons so the float arithmetic is
     exact: eps = 2^-29 gives budget 4 / 2^-58 = 2^60, which fits... *)
  Alcotest.(check int) "2^60 budget fits" (1 lsl 60)
    (Karp_luby.samples_for ~epsilon:(2. ** -29.) ~events:1);
  (* ... and eps = 2^-30 gives 2^62 = float_of_int max_int: one past. *)
  Alcotest.(check bool) "2^62 budget overflows" true
    (match Karp_luby.samples_for ~epsilon:(2. ** -30.) ~events:1 with
    | (_ : int) -> false
    | exception Karp_luby.Sample_budget_overflow _ -> true);
  (* Denormal epsilon: eps^2 underflows to 0 and the float budget is
     infinite; still the typed error, not Invalid_argument. *)
  Alcotest.(check bool) "denormal epsilon overflows" true
    (match Karp_luby.samples_for ~epsilon:1e-320 ~events:1 with
    | (_ : int) -> false
    | exception Karp_luby.Sample_budget_overflow _ -> true)

let test_wilson_ci () =
  (* The normal-approximation stderr sqrt(p(1-p)/n) is exactly 0 at
     p in {0, 1}; the Wilson half-width must stay positive there. *)
  List.iter
    (fun rate ->
      let hw = Karp_luby.wilson_half_width ~samples:1000 rate in
      Alcotest.(check bool)
        (Printf.sprintf "positive half-width at rate %g" rate)
        true
        (hw > 0. && Float.is_finite hw))
    [ 0.; 1.; 0.5; 0.01 ];
  (* More samples, tighter interval. *)
  Alcotest.(check bool) "width shrinks with samples" true
    (Karp_luby.wilson_half_width ~samples:100_000 0.3
    < Karp_luby.wilson_half_width ~samples:100 0.3);
  (* An all-miss estimator run reports estimate 0 with a CI that still
     admits a small positive count. *)
  let db =
    Idb.make
      [ Idb.fact "R" [ Term.null "n"; Term.null "m" ] ]
      (Idb.Uniform [ "0"; "1" ])
  in
  (* R(x,x) missed when n <> m; a seed/sample pair with zero hits would
     need luck — instead pin the degenerate all-hit side, which every
     seed produces on a query satisfied by all valuations. *)
  let est, hw = Karp_luby.estimate_with_ci ~seed:3 ~samples:500 (bcq "R(x,y)") db in
  Alcotest.(check (float 0.001)) "all-hit estimate is the total" 4.0 est;
  Alcotest.(check bool) "all-hit half-width positive" true (hw > 0.)

(* KL stays accurate on instances far beyond brute force: 20 nulls over a
   10-value domain is 10^20 valuations, yet the exact Codd-table count is
   available for comparison. *)
let test_rare_event () =
  let n = 20 in
  let facts =
    List.init n (fun i ->
        Idb.fact "R"
          [ Term.null (Printf.sprintf "a%d" i); Term.null (Printf.sprintf "b%d" i) ])
  in
  (* R(x,x) satisfied only when some pair collides; with domain {0..9}
     collisions are rare-ish per tuple. *)
  let db = Idb.make facts (Idb.Uniform (List.init 10 string_of_int)) in
  let q = Query.Bcq (Cq.of_string "R(x,x)") in
  (* Exact via the Codd algorithm (tuples are variable-disjoint pairs). *)
  let exact =
    Incdb_core.Count_val.codd_nonuniform (Cq.of_string "R(x,x)") db
  in
  let est = Karp_luby.estimate ~seed:11 ~samples:30_000 q db in
  Alcotest.(check bool)
    (Printf.sprintf "KL close on big instance (exact=%s est=%.3e)"
       (Nat.to_string exact) est)
    true
    (relative_error exact est < 0.1)

(* The inclusion-exclusion oracle with more nulls than fit one machine
   word: event sizes are products over the free nulls' domains, exact
   past 2^62. *)
let test_exact_unmemoized_wide_nulls () =
  (* [pad] extra nulls in a relation the query never mentions inflate the
     null count without touching the two events. *)
  let wide_db pad =
    let free =
      List.init pad (fun i -> Idb.fact "T" [ Term.null (Printf.sprintf "f%d" i) ])
    in
    let facts =
      Idb.fact "R" [ Term.const "u" ]
      :: Idb.fact "S" [ Term.null "a" ]
      :: Idb.fact "S" [ Term.null "b" ]
      :: free
    in
    Idb.make facts
      (Idb.Nonuniform
         (("a", [ "u"; "v" ]) :: ("b", [ "u"; "v" ])
         :: List.init pad (fun i -> (Printf.sprintf "f%d" i, [ "0"; "1" ]))))
  in
  let q = bcq "R(x), S(x)" in
  (* 64 nulls: count = 3 * 2^62 (a or b drawn "u", 62 free binary
     nulls). *)
  Gen.check_nat "wide-null count"
    (Nat.mul (Nat.of_int 3) (Nat.pow Nat.two 62))
    (Karp_luby.exact_unmemoized q (wide_db 62));
  Gen.check_nat "boundary count"
    (Nat.mul (Nat.of_int 3) (Nat.pow Nat.two 60))
    (Karp_luby.exact_unmemoized q (wide_db 60))

let test_unbiasedness () =
  (* Averaging small-sample estimates over many seeds must approach the
     exact value much more tightly than any single run: the estimator is
     unbiased. *)
  let db, q = accuracy_instance () in
  let exact = Nat.to_float (brute q db) in
  let runs = 60 in
  let mean =
    List.fold_left
      (fun acc seed -> acc +. Karp_luby.estimate ~seed ~samples:300 q db)
      0.
      (List.init runs (fun i -> i + 1))
    /. float_of_int runs
  in
  Alcotest.(check bool)
    (Printf.sprintf "mean of 60 runs within 2%% (mean %.1f, exact %.1f)" mean exact)
    true
    (abs_float (mean -. exact) /. exact < 0.02)

(* ------------------------------------------------------------------ *)
(* Enumeration and uniform sampling                                    *)
(* ------------------------------------------------------------------ *)

let prop_enumeration_exact =
  QCheck.Test.make ~count:50
    ~name:"enumerator yields each satisfying valuation exactly once"
    QCheck.(make (QCheck.Gen.int_range 1 1_000_000))
    (fun seed ->
      let q = bcq "R(x,x)" in
      let db =
        Gen.random_idb ~seed ~schema:[ ("R", 2) ] ~rows:2 ~codd:(seed mod 2 = 0)
          ~uniform:(seed mod 3 = 0)
      in
      QCheck.assume (Gen.manageable db);
      let from_enum = List.of_seq (Enumerate.satisfying q db) in
      (* each output satisfies, no duplicates, and the count matches *)
      List.for_all (fun v -> Query.eval q (Idb.apply db v)) from_enum
      && List.length (List.sort_uniq Stdlib.compare from_enum)
         = List.length from_enum
      && Nat.equal (Nat.of_int (List.length from_enum)) (brute q db))

let test_enumeration_beyond_brute () =
  (* 20 independent binary tuples over 4 values: 4^40 valuations; the
     satisfying count fits the cap only for a sparse query, so instead
     check the enumerator's laziness: taking 5 outputs must be fast. *)
  let facts =
    List.init 20 (fun i ->
        Idb.fact "R"
          [ Term.null (Printf.sprintf "a%d" i);
            Term.null (Printf.sprintf "b%d" i) ])
  in
  let db = Idb.make facts (Idb.Uniform [ "0"; "1"; "2"; "3" ]) in
  let q = bcq "R(x,x)" in
  let first5 = List.of_seq (Seq.take 5 (Enumerate.satisfying q db)) in
  Alcotest.(check int) "got five" 5 (List.length first5);
  Alcotest.(check bool) "all satisfy" true
    (List.for_all (fun v -> Query.eval q (Idb.apply db v)) first5)

let test_count_by_enumeration () =
  let db =
    Idb.make
      [ Idb.fact "R" [ Term.null "a"; Term.null "b" ] ]
      (Idb.Uniform [ "0"; "1"; "2" ])
  in
  let q = bcq "R(x,x)" in
  (match Enumerate.count_by_enumeration q db with
  | Some n -> Gen.check_nat "three diagonal valuations" (Nat.of_int 3) n
  | None -> Alcotest.fail "unexpected cap");
  match Enumerate.count_by_enumeration ~cap:1 q db with
  | None -> ()
  | Some _ -> Alcotest.fail "cap should trigger"

let test_uniform_sampling () =
  (* All satisfying valuations of R(x,x) on one tuple over {0,1,2}: the
     three diagonals; sampling must hit each roughly uniformly. *)
  let db =
    Idb.make
      [ Idb.fact "R" [ Term.null "a"; Term.null "b" ] ]
      (Idb.Uniform [ "0"; "1"; "2" ])
  in
  let q = bcq "R(x,x)" in
  let counts = Hashtbl.create 3 in
  for seed = 1 to 600 do
    match Enumerate.sample_uniform ~seed q db with
    | Some v ->
      let key = List.assoc "a" v in
      Hashtbl.replace counts key
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts key));
      Alcotest.(check bool) "sample satisfies" true
        (Query.eval q (Idb.apply db v))
    | None -> Alcotest.fail "sampler gave up"
  done;
  Hashtbl.iter
    (fun _ c ->
      Alcotest.(check bool) "roughly uniform (120..280 of 600)" true
        (c > 120 && c < 280))
    counts;
  (* Unsatisfiable: sampler returns None. *)
  let empty_q = bcq "S(x)" in
  Alcotest.(check bool) "unsat gives None" true
    (Enumerate.sample_uniform ~seed:1 empty_q db = None)

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_events_rxx;
        prop_events_rxsx;
        prop_events_path;
        prop_events_union;
        prop_enumeration_exact;
      ]
  in
  Alcotest.run "approx"
    [
      ( "events",
        [
          Alcotest.test_case "monotone only" `Quick test_events_monotone_only;
          Alcotest.test_case "empty" `Quick test_events_empty;
        ] );
      ( "estimators",
        [
          Alcotest.test_case "karp-luby accuracy" `Quick test_karp_luby_accuracy;
          Alcotest.test_case "monte-carlo accuracy" `Quick test_montecarlo_accuracy;
          Alcotest.test_case "zero" `Quick test_zero_case;
          Alcotest.test_case "zero samples rejected" `Quick
            test_rejects_zero_samples;
          Alcotest.test_case "full" `Quick test_full_case;
          Alcotest.test_case "sample budget" `Quick test_samples_for;
          Alcotest.test_case "sample budget overflow" `Quick
            test_samples_for_overflow;
          Alcotest.test_case "wilson confidence interval" `Quick
            test_wilson_ci;
          Alcotest.test_case "rare events" `Quick test_rare_event;
          Alcotest.test_case "wide-null inclusion-exclusion" `Quick
            test_exact_unmemoized_wide_nulls;
          Alcotest.test_case "unbiasedness" `Quick test_unbiasedness;
        ] );
      ( "enumeration",
        [
          Alcotest.test_case "laziness" `Quick test_enumeration_beyond_brute;
          Alcotest.test_case "count by enumeration" `Quick test_count_by_enumeration;
          Alcotest.test_case "uniform sampling" `Quick test_uniform_sampling;
        ] );
      ("properties", props);
    ]
