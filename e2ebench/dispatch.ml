(* val-elim and comp-route: every answer goes through the dispatchers
   ([Count_val.count] / [count_query], [Count_comp.count] / [count_all])
   with their default options, so each instance takes the route today's
   dispatcher picks for it. *)

open Incdb_bignum
open Incdb_cq
open Incdb_incomplete
open Incdb_core
open Harness
module Obs_trace = Incdb_obs.Trace
module Obs_metrics = Incdb_obs.Metrics

type query = Whole of Cq.t | General of Query.t | All_completions

type op = {
  id : string;
  family : string;
  file : string;
  problem : string;  (* "val" | "comp" *)
  query_text : string;
  expected : string;
  db : Idb.t;
  query : query;
}

(* The program's parsers: [Idb_parser] for the tables, [Cq.of_string]
   for each conjunct; unions and negations are assembled here. *)
let parse_query text =
  if text = "*" then All_completions
  else
    match Inst.query_of_text text with
    | Inst.Bcq _ -> Whole (Cq.of_string text)
    | Inst.Union qs ->
      General (Query.Union (List.map (fun q -> Cq.of_string (Inst.cq_text q)) qs))
    | Inst.Not q -> General (Query.Not (Query.Bcq (Cq.of_string (Inst.cq_text q))))

(* Read and parse a workload's operations.  [parse_db] and
   [parse_query] report each call's time for the per-layer figures. *)
let load ~traced ?(on_db = fun _ -> ()) ?(on_query = fun _ -> ()) dir =
  let dbs = Hashtbl.create 64 in
  List.map
    (function
      | [ id; family; file; problem; query_text; expected; _how ] ->
        let db =
          match Hashtbl.find_opt dbs file with
          | Some db -> db
          | None ->
            let db, dt =
              timed ~traced "parse.db" (fun () ->
                  Idb_parser.of_file (Filename.concat dir file))
            in
            on_db dt;
            Hashtbl.replace dbs file db;
            db
        in
        let query, dt = timed ~traced "parse.query" (fun () -> parse_query query_text) in
        on_query dt;
        { id; family; file; problem; query_text; expected; db; query }
      | row -> failwith ("malformed ops row: " ^ String.concat "|" row))
    (tsv (Filename.concat dir "ops.tsv"))

let answer op =
  match (op.problem, op.query) with
  | "val", Whole q ->
    let a, n = Count_val.count q op.db in
    (Count_val.algorithm_to_string a, n)
  | "val", General q ->
    let a, n = Count_val.count_query q op.db in
    (Count_val.algorithm_to_string a, n)
  | "comp", Whole q ->
    let a, n = Count_comp.count q op.db in
    (Count_comp.algorithm_to_string a, n)
  | "comp", All_completions ->
    let a, n = Count_comp.count_all op.db in
    (Count_comp.algorithm_to_string a, n)
  | _ -> failwith ("unsupported operation " ^ op.id)

(* Checks across answers of one pass, for the properties every method
   must have: #Val(q) + #Val(not q) = the product of the domain sizes
   (both answered through the dispatcher), and #Comp(q) <= #Comp(all).
   Returns the ids of the operations that break one. *)
let property_failures ops (answers : (string, Nat.t) Hashtbl.t) =
  let by_file = Hashtbl.create 32 in
  List.iter (fun o -> Hashtbl.add by_file o.file o) ops;
  List.concat_map
    (fun o ->
      let mine = Hashtbl.find answers o.id in
      let partners = List.filter (fun p -> p.id <> o.id) (Hashtbl.find_all by_file o.file) in
      List.filter_map
        (fun p ->
          let theirs = Hashtbl.find answers p.id in
          let broken =
            if o.problem = "val" && p.query_text = "not " ^ o.query_text then
              not (Nat.equal (Nat.add mine theirs) (Idb.total_valuations o.db))
            else if o.problem = "comp" && p.query = All_completions then
              Nat.compare mine theirs > 0
            else false
          in
          if broken then Some o.id else None)
        partners)
    ops

(* ------------------------------------------------------------------ *)
(* Timed passes                                                        *)
(* ------------------------------------------------------------------ *)

type pass_result = {
  answers : int;
  failed : int;  (* raised an exception, or gave a wrong answer *)
  wrong : int;  (* gave a wrong answer *)
  seconds : float;
  lat : samples;  (* seconds per answer *)
  words : float;  (* allocated during the timed passes *)
  routes : (string, int) Hashtbl.t;  (* answers per route, one pass *)
  op_routes : (string, string) Hashtbl.t;  (* route of each operation *)
}

(* Whole passes over [ops] until [seconds] have elapsed (at least one).
   Every answer is checked against the expected count; a wrong answer
   or a raised exception counts as a failed operation.  [observe], given
   only in the traced run, sees each answer's operation, route, duration
   and allocated words. *)
let run_passes ?observe ~seconds ops =
  let traced = observe <> None in
  let lat = samples () in
  let failed = ref 0 and wrong = ref 0 and answers = ref 0 and passes = ref 0 in
  let routes = Hashtbl.create 8 and op_routes = Hashtbl.create 64 in
  let results = Hashtbl.create 64 in
  let w0 = allocated_words () in
  let t0 = now_ns () in
  while !passes = 0 || secs_since t0 < seconds do
    Hashtbl.reset results;
    let bad = ref [] and raised = ref [] in
    List.iter
      (fun op ->
        if traced then new_answer ();
        if traced then begin
          Obs_trace.reset ();
          Obs_metrics.reset ()
        end;
        let wa = if traced then allocated_words () else 0. in
        let outcome, dt =
          timed ~traced ("answer " ^ op.id) (fun () ->
              timed ~traced (op.problem ^ ".dispatch") (fun () ->
                  try Ok (answer op) with e -> Error e))
        in
        let outcome = fst outcome in
        push lat dt;
        incr answers;
        match outcome with
        | Ok (route, n) ->
          if !passes = 0 then begin
            Hashtbl.replace routes route (1 + Option.value ~default:0 (Hashtbl.find_opt routes route));
            Hashtbl.replace op_routes op.id route
          end;
          Hashtbl.replace results op.id n;
          if Nat.to_string n <> op.expected then bad := op.id :: !bad;
          Option.iter (fun f -> f op route dt (allocated_words () -. wa)) observe
        | Error e ->
          prerr_endline (op.id ^ ": " ^ Printexc.to_string e);
          raised := op.id :: !raised)
      ops;
    if !bad = [] && !raised = [] then bad := property_failures ops results;
    let bad = List.sort_uniq compare !bad in
    List.iter (fun id -> prerr_endline ("wrong answer: " ^ id)) bad;
    wrong := !wrong + List.length bad;
    failed := !failed + List.length bad + List.length !raised;
    incr passes
  done;
  let seconds = secs_since t0 in
  { answers = !answers; failed = !failed; wrong = !wrong; seconds; lat;
    words = allocated_words () -. w0; routes; op_routes }

(* Set-up: read and parse the corpus, then one unchecked warm-up pass. *)
let setup ?on_db ?on_query ~traced dir =
  let t0 = now_ns () in
  let ops = load ~traced ?on_db ?on_query dir in
  List.iter (fun op -> ignore (try Some (answer op) with _ -> None)) ops;
  (ops, secs_since t0)
