(* Shared random-instance generators for the test suites. *)

open Incdb_bignum
open Incdb_incomplete

let nat = Alcotest.testable Nat.pp Nat.equal

let check_nat = Alcotest.check nat

(* A small universe of constants. *)
let consts = [| "a"; "b"; "c"; "d"; "e" |]

(* Guard for properties that compare against brute-force enumeration. *)
let manageable ?(limit = 300_000) db =
  match Nat.to_int_opt (Idb.total_valuations db) with
  | Some t -> t <= limit
  | None -> false

(* Random self-join-free BCQ: 1-3 atoms over distinct relation names
   Q0..Q2, arities 1-3, variables from a 4-name pool (repetitions within
   and across atoms allowed). *)
let random_sjfbcq ~seed =
  let st = Random.State.make [| seed |] in
  let natoms = 1 + Random.State.int st 3 in
  let vars = [| "x"; "y"; "z"; "w" |] in
  let atom i =
    let arity = 1 + Random.State.int st 3 in
    Incdb_cq.Cq.atom
      (Printf.sprintf "Q%d" i)
      (List.init arity (fun _ -> vars.(Random.State.int st (Array.length vars))))
  in
  Incdb_cq.Cq.make (List.init natoms atom)

(* Schema (relation, arity) induced by a query. *)
let schema_of_query q =
  List.map
    (fun (a : Incdb_cq.Cq.atom) ->
      (a.Incdb_cq.Cq.rel, Array.length a.Incdb_cq.Cq.vars))
    q

(* Random incomplete database over the given schema.

   [schema] maps relation names to arities; [rows] facts per relation are
   drawn, each cell independently a constant or a null.  With
   [codd = true] every null is fresh; otherwise nulls are drawn from a
   small shared pool so that repetitions occur.  With [uniform = true] the
   domain spec is one random domain; otherwise each null gets its own
   random domain. *)
let random_idb ~seed ~schema ~rows ~codd ~uniform =
  let st = Random.State.make [| seed |] in
  let next_null = ref 0 in
  let null_pool = Array.init 4 (fun i -> Printf.sprintf "p%d" i) in
  let fresh_null () =
    incr next_null;
    Printf.sprintf "n%d" !next_null
  in
  let random_subset_nonempty arr =
    let chosen =
      Array.to_list arr |> List.filter (fun _ -> Random.State.bool st)
    in
    match chosen with [] -> [ arr.(Random.State.int st (Array.length arr)) ] | l -> l
  in
  let cell () =
    if Random.State.int st 10 < 4 then
      Term.const consts.(Random.State.int st (Array.length consts))
    else if codd then Term.null (fresh_null ())
    else Term.null null_pool.(Random.State.int st (Array.length null_pool))
  in
  let facts =
    List.concat_map
      (fun (rel, arity) ->
        List.init rows (fun _ ->
            Idb.fact rel (List.init arity (fun _ -> cell ()))))
      schema
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
  let spec =
    if uniform then Idb.Uniform (random_subset_nonempty consts)
    else
      Idb.Nonuniform
        (List.map (fun n -> (n, random_subset_nonempty consts)) null_names)
  in
  Idb.make facts spec

(* The candidate ground-fact universe of a table, sorted: every grounding
   of every fact, each null ranging over its own domain (for a Codd table,
   exactly the facts some completion can contain). *)
let candidate_facts db =
  let ground (f : Idb.fact) =
    Array.fold_right
      (fun t rests ->
        let choices =
          match t with
          | Term.Const c -> [ c ]
          | Term.Null n -> Idb.domain_of db n
        in
        List.concat_map (fun c -> List.map (fun rest -> c :: rest) rests) choices)
      f.Idb.args [ [] ]
    |> List.map (Incdb_relational.Cdb.fact f.Idb.rel)
  in
  List.concat_map ground (Idb.facts db)
  |> List.sort_uniq Incdb_relational.Cdb.compare_fact
  |> Array.of_list
