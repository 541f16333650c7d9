(* Bechamel micro-benchmarks: one probe per regenerated table/figure
   (and per algorithmic component), all run in this single executable.
   Each probe is a named [unit -> unit] thunk, so the same list feeds
   both the bechamel timing run and the one-shot @bench-smoke pass. *)

open Bechamel
open Toolkit
open Incdb_cq
open Incdb_incomplete
open Incdb_core
open Incdb_graph
open Incdb_reductions

let figure1_probe =
  let db = Instances.figure1 () in
  let q = Cq.of_string "S(x,x)" in
  ( "figure1:count-val-and-comp",
    fun () ->
      let _, a = Count_val.count q db in
      let _, b = Count_comp.count q db in
      ignore (a, b) )

let table1_probe =
  let queries =
    List.map Cq.of_string
      [
        "R(x)"; "R(x,y)"; "R(x,x)"; "R(x), S(x)";
        "R(x), S(x,y), T(y)"; "R(x,y), S(x,y)";
      ]
  in
  ( "table1:classify-corpus",
    fun () ->
      ignore
        (List.concat_map
           (fun q -> List.map (fun s -> Classify.exact s q) Setting.all)
           queries) )

let pattern_probe =
  let q = Cq.of_string "A(u,x,u), B(y,y), C(x,s,z,s), D(w,z)" in
  ( "pattern:definition-3.1-decision",
    fun () ->
      ignore
        ( Pattern.has_rxx q,
          Pattern.has_rx_sx q,
          Pattern.has_rx_sxy_ty q,
          Pattern.has_rxy_sxy q ) )

let val_codd_probe =
  let db = Instances.diagonal_codd 60 8 in
  let q = Cq.of_string "R(x,x)" in
  ( "thm3.7:val-codd-120-nulls",
    fun () -> ignore (Count_val.codd_nonuniform q db) )

let val_uniform_probe =
  let db = Instances.two_unary ~d:8 ~nr:8 ~cr:1 ~ns:8 ~cs:1 in
  let q = Cq.of_string "R(x), S(x)" in
  ( "thm3.9:val-uniform-block-dp",
    fun () -> ignore (Count_val.uniform_naive q db) )

let comp_uniform_probe =
  let db = Instances.one_unary ~d:16 ~n:20 ~c:4 in
  ( "thm4.6:comp-uniform-unary",
    fun () -> ignore (Count_comp.uniform_unary db) )

let brute_val_probe =
  let db = Instances.diagonal_codd 4 4 in
  let q = Query.Bcq (Cq.of_string "R(x,x)") in
  ("brute:val-8-nulls-dom-4", fun () -> ignore (Brute.count_valuations q db))

let karp_luby_probe =
  let db = Instances.diagonal_codd 20 10 in
  let q = Query.Bcq (Cq.of_string "R(x,x)") in
  ( "cor5.3:karp-luby-1000-samples",
    fun () ->
      ignore (Incdb_approx.Karp_luby.estimate ~seed:3 ~samples:1000 q db) )

let val_kernel_probe =
  let db = Instances.path_chain ~k:6 ~d:4 ~edges:[ ("v0", "v1") ] in
  let q = Query.Bcq (Cq.of_string "R(x), S(x,y), T(y)") in
  ( "val-kernel:path-k6-d4",
    fun () -> ignore (Val_kernel.count q db) )

let coloring_reduction_probe =
  let g = Generators.cycle 7 in
  ( "prop3.4:coloring-via-val-c7",
    fun () -> ignore (Coloring_red.colorings_via_val g) )

let gadget_probe =
  let g = Generators.cycle 4 in
  ("prop5.6:gadget-c4", fun () -> ignore (Threecol_gadget.completion_count g))

let is_completion_probe =
  let db = Instances.one_unary ~d:10 ~n:10 ~c:2 in
  let completion =
    Idb.apply db (List.map (fun n -> (n, "v5")) (Idb.nulls db))
  in
  ( "lemmaB.2:is-completion-matching",
    fun () ->
      ignore (Incdb_incomplete.Codd.is_completion db completion) )

let symbolic_probe =
  let facts =
    List.init 3 (fun i ->
        Incdb_incomplete.Idb.fact "R"
          [ Incdb_incomplete.Term.null (Printf.sprintf "r%d" i) ])
    @ List.init 3 (fun i ->
          Incdb_incomplete.Idb.fact "S"
            [ Incdb_incomplete.Term.null (Printf.sprintf "s%d" i) ])
  in
  let q = Cq.of_string "R(x), S(x)" in
  ( "thm3.9:symbolic-domain-1e9",
    fun () ->
      ignore (Count_val.uniform_symbolic q facts ~domain_size:1_000_000_000) )

(* 18 unary nulls, each over its own copy of a 3-value domain: Codd and
   nonuniform, so the #Comp dispatcher routes it to the elimination
   kernel (3^18 valuations, 3 candidate facts). *)
let comp_codd_probe =
  let dom = [ "v0"; "v1"; "v2" ] in
  let nulls = List.init 18 (Printf.sprintf "n%d") in
  let db =
    Idb.make
      (List.map (fun n -> Idb.fact "R" [ Term.null n ]) nulls)
      (Idb.Nonuniform (List.map (fun n -> (n, dom)) nulls))
  in
  ("comp:codd-dispatch-18-nulls", fun () -> ignore (Count_comp.count_all db))

let hopcroft_karp_probe =
  let b = Generators.random_bipartite ~seed:5 40 40 1 3 in
  ( "matching:hopcroft-karp-40x40",
    fun () -> ignore (Incdb_graph.Matching.maximum_matching b) )

let all_probes =
  [
    figure1_probe;
    table1_probe;
    pattern_probe;
    val_codd_probe;
    val_uniform_probe;
    comp_uniform_probe;
    brute_val_probe;
    karp_luby_probe;
    val_kernel_probe;
    coloring_reduction_probe;
    gadget_probe;
    is_completion_probe;
    symbolic_probe;
    comp_codd_probe;
    hopcroft_karp_probe;
  ]

let all_tests =
  List.map
    (fun (name, fn) -> Test.make ~name (Staged.stage fn))
    all_probes

let run () =
  Printf.printf "\n=== Bechamel micro-benchmarks (ns/run, OLS on monotonic clock) ===\n%!";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let grouped = Test.make_grouped ~name:"incdb" all_tests in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let results = Analyze.all ols instance raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
  List.iter
    (fun (name, r) ->
      match Analyze.OLS.estimates r with
      | Some [ ns ] ->
        let r2 =
          match Analyze.OLS.r_square r with Some v -> v | None -> nan
        in
        Printf.printf "  %-42s %14.1f ns/run   (r² = %.4f)\n" name ns r2
      | _ -> Printf.printf "  %-42s (no estimate)\n" name)
    rows

(* One pass over every probe, no timing harness: catches a probe that
   raises (stale instance sizes, API drift) without bechamel's quota. *)
let smoke () =
  Printf.printf "\n=== Micro-benchmark probes (smoke, one run each) ===\n%!";
  List.iter
    (fun (name, fn) ->
      fn ();
      Printf.printf "  %-42s ok\n%!" name)
    all_probes
