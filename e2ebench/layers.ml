(* Per-layer figures of the traced run.  Timings of each layer's public
   calls are taken around those calls from this file; the breakdown
   inside a dispatcher call is read from the program's existing
   [Incdb_obs] span registry and counters, reset before each answer. *)

open Incdb_core
module Obs_trace = Incdb_obs.Trace
module Obs_metrics = Incdb_obs.Metrics

(* Running sums and sample counts, per metric name. *)
type acc = (string, float * int) Hashtbl.t

let acc () : acc = Hashtbl.create 64

let add (a : acc) k v =
  let s, n = Option.value ~default:(0., 0) (Hashtbl.find_opt a k) in
  Hashtbl.replace a k (s +. v, n + 1)

let mean (a : acc) k =
  match Hashtbl.find_opt a k with Some (s, n) when n > 0 -> s /. float_of_int n | _ -> 0.

let total (a : acc) k = match Hashtbl.find_opt a k with Some (s, _) -> s | None -> 0.

let ratio num den = if num +. den > 0. then num /. (num +. den) else 0.

(* ------------------------------------------------------------------ *)
(* The program's span registry and counters after one answer           *)
(* ------------------------------------------------------------------ *)

let last_component path =
  match String.rindex_opt path '/' with
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)
  | None -> path

let parent_path path =
  match String.rindex_opt path '/' with Some i -> String.sub path 0 i | None -> ""

let registry () =
  List.map (fun s -> (s.Obs_trace.span_path, s.Obs_trace.span_wall_ns)) (Obs_trace.spans ())

let ms ns = float_of_int ns /. 1e6

(* Total wall time of the spans named [name], wherever they sit. *)
let wall reg name =
  List.fold_left (fun t (p, w) -> if last_component p = name then t + w else t) 0 reg

(* Self time of the spans named [name]: their wall time minus the part
   their direct child spans cover. *)
let self reg name =
  List.fold_left
    (fun t (p, w) ->
      if last_component p <> name then t
      else
        t + w
        - List.fold_left (fun c (q, v) -> if parent_path q = p then c + v else c) 0 reg)
    0 reg

let counter name =
  float_of_int
    (Option.value ~default:0 (List.assoc_opt name (Obs_metrics.counters_snapshot ())))

(* ------------------------------------------------------------------ *)
(* Routes                                                              *)
(* ------------------------------------------------------------------ *)

let val_routes =
  Count_val.
    [
      (Product_of_domains, "product_of_domains", "count_val.product_of_domains");
      (Codd_per_atom, "codd_per_atom", "count_val.codd_per_atom");
      (Uniform_block_dp, "uniform_block_dp", "count_val.uniform_block_dp");
      (Lineage_elimination, "lineage_elimination", "count_val.lineage_elimination");
      (Brute_force, "brute_force", "count_val.brute_force");
    ]

let comp_routes =
  Count_comp.
    [
      (Uniform_unary, "uniform_unary", "count_comp.uniform_unary");
      (Candidate_enumeration, "candidate_enumeration", "count_comp.candidate_enumeration");
      (Lineage_elimination, "lineage_elimination", "count_comp.lineage_elimination");
      (Brute_force, "brute_force", "count_comp.completion_dedup");
    ]

let val_route_name s =
  List.find_map
    (fun (a, short, _) -> if Count_val.algorithm_to_string a = s then Some ("val." ^ short) else None)
    val_routes

let comp_route_name s =
  List.find_map
    (fun (a, short, _) ->
      if Count_comp.algorithm_to_string a = s then Some ("comp." ^ short) else None)
    comp_routes

(* ------------------------------------------------------------------ *)
(* Observers of the dispatcher workloads                               *)
(* ------------------------------------------------------------------ *)

let val_kernel_counters =
  [ "events_compiled"; "bags"; "width"; "conditioning_splits"; "cache_hits"; "cache_misses";
    "spilled_factors"; "spill_bytes" ]

let observe_val (a : acc) (_ : Dispatch.op) route dt words =
  let reg = registry () in
  add a "count_val.count_ms" (dt *. 1000.);
  let engine =
    List.fold_left
      (fun t (_, _, span) -> t + wall reg span)
      0 val_routes
  in
  add a "count_val.dispatch_ms" ((dt *. 1000.) -. ms engine);
  if val_route_name route = Some "val.lineage_elimination" then begin
    add a "val_kernel.count_ms" (ms (wall reg "val_kernel.count"));
    add a "val_kernel.alloc_words" words;
    List.iter
      (fun n -> add a ("val_kernel." ^ n ^ "_self_ms") (ms (self reg ("val_kernel." ^ n))))
      [ "compile_events"; "treedec"; "eliminate" ];
    List.iter
      (fun c -> add a ("val_kernel." ^ c) (counter ("val_kernel." ^ c)))
      val_kernel_counters
  end

let comp_kernel_counters =
  [ "elim_states"; "cond_branches"; "elim_cache_hits"; "elim_cache_misses" ]

(* Plan shape of kernel-routed instances, from the same [Comp_kernel.plan]
   call the dispatcher makes (taken outside the timed call). *)
let plans : (string, Incdb_core.Comp_kernel.plan option) Hashtbl.t = Hashtbl.create 16

let observe_comp (a : acc) (op : Dispatch.op) route dt _words =
  let reg = registry () in
  add a "count_comp.count_ms" (dt *. 1000.);
  add a "count_comp.probe_ms" (ms (wall reg "count_comp.pattern_match"));
  if wall reg "comp_kernel.plan" > 0 then
    add a "comp_kernel.plan_ms" (ms (wall reg "comp_kernel.plan"));
  match comp_route_name route with
  | Some "comp.candidate_enumeration" ->
    add a "comp_candidates.count_ms" (ms (wall reg "count_comp.candidate_enumeration"));
    add a "comp_kernel.subsets_checked" (counter "comp_kernel.subsets_checked");
    add a "comp_kernel.masks_pruned" (counter "comp_kernel.masks_pruned")
  | Some "comp.lineage_elimination" ->
    add a "comp_kernel.run_ms" (ms (wall reg "count_comp.lineage_elimination"));
    List.iter
      (fun c -> add a ("comp_kernel." ^ c) (counter ("comp_kernel." ^ c)))
      comp_kernel_counters;
    let plan =
      match Hashtbl.find_opt plans op.id with
      | Some p -> p
      | None ->
        let query =
          match op.query with
          | Dispatch.Whole q -> Some (Incdb_cq.Query.Bcq q)
          | _ -> None
        in
        let p = Result.to_option (Comp_kernel.plan ?query op.db) in
        Hashtbl.replace plans op.id p;
        p
    in
    Option.iter
      (fun p ->
        add a "comp_kernel.plan_width" (float_of_int (Comp_kernel.plan_width p));
        add a "comp_kernel.plan_branches" (float_of_int (Comp_kernel.plan_branches p));
        add a "comp_kernel.plan_bags" (float_of_int (Comp_kernel.plan_bags p)))
      plan
  | Some "comp.brute_force" ->
    add a "brute.count_ms" (ms (wall reg "count_comp.completion_dedup"));
    add a "valuations_visited" (counter "valuations_visited");
    add a "completions_checked" (counter "completions_checked")
  | _ -> ()
