(* Wire protocol of incdbd: one JSON object per line in, one per line
   out.  The request vocabulary mirrors the idbcount flags one-to-one
   (same names minus the leading dashes, same defaults), so a request is
   a CLI invocation in object form and the answers are comparable
   field-for-field with the one-shot tool. *)

open Incdb_core
module Json = Incdb_obs.Json

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

type problem = Val | Comp
type meth = Karp_luby | Monte_carlo
type source = Path of string | Inline of string

type t = {
  id : Json.t;  (* echoed verbatim; [Null] when the client sent none *)
  op : string;
  source : source option;
  query : string option;
  fresh : bool;  (* bypass (and overwrite) the server's result cache *)
  problem : problem;
  jobs : int;
  brute_limit : int;
  val_width_bound : int;
  val_max_events : int;
  val_max_cells : int;
  val_order : Val_kernel.order;
  val_cache_entries : int;
  val_spill : Val_kernel.spill;
  comp_elim : Comp_kernel.choice;
  comp_width_bound : int;
  comp_max_cells : int;
  samples : int option;  (* op-dependent default: approx 50000, bounds 5000 *)
  seed : int;
  meth : meth;
  exact_check : bool;
  caches : bool;  (* reset: also drop warm caches, not just metrics *)
  subs : Json.t list;  (* batch: raw sub-request objects *)
}

let ops =
  [
    "count"; "approx"; "classify"; "bounds"; "batch"; "metrics"; "reset";
    "ping"; "shutdown";
  ]

(* ------------------------------------------------------------------ *)
(* Field extraction                                                    *)
(* ------------------------------------------------------------------ *)

let str_opt j name =
  match Json.member name j with
  | None | Some Json.Null -> None
  | Some (Json.String s) -> Some s
  | Some _ -> bad "field %S must be a string" name

let int_def j name default =
  match Json.member name j with
  | None | Some Json.Null -> default
  | Some (Json.Int i) -> i
  | Some _ -> bad "field %S must be an integer" name

let int_opt j name =
  match Json.member name j with
  | None | Some Json.Null -> None
  | Some (Json.Int i) -> Some i
  | Some _ -> bad "field %S must be an integer" name

let bool_def j name default =
  match Json.member name j with
  | None | Some Json.Null -> default
  | Some (Json.Bool b) -> b
  | Some _ -> bad "field %S must be a boolean" name

let enum_def j name table default =
  match str_opt j name with
  | None -> default
  | Some s -> (
    match List.assoc_opt s table with
    | Some v -> v
    | None ->
      bad "field %S must be one of %s" name
        (String.concat ", " (List.map fst table)))

(* ------------------------------------------------------------------ *)
(* Request parsing                                                     *)
(* ------------------------------------------------------------------ *)

let of_json j =
  match j with
  | Json.Assoc _ ->
    let op =
      match str_opt j "op" with
      | Some op when List.mem op ops -> op
      | Some op -> bad "unknown op %S" op
      | None -> bad "missing field \"op\""
    in
    let source =
      match (str_opt j "db", str_opt j "db_text") with
      | Some _, Some _ -> bad "give either \"db\" or \"db_text\", not both"
      | Some p, None -> Some (Path p)
      | None, Some s -> Some (Inline s)
      | None, None -> None
    in
    let subs =
      match Json.member "requests" j with
      | None | Some Json.Null -> []
      | Some (Json.List l) -> l
      | Some _ -> bad "field \"requests\" must be an array"
    in
    {
      id = Option.value ~default:Json.Null (Json.member "id" j);
      op;
      source;
      query = str_opt j "query";
      fresh = bool_def j "fresh" false;
      problem =
        enum_def j "problem"
          [ ("val", Val); ("valuations", Val); ("comp", Comp);
            ("completions", Comp) ]
          Val;
      jobs = int_def j "jobs" 1;
      brute_limit = int_def j "brute_limit" 4_000_000;
      val_width_bound =
        int_def j "val_width_bound" Val_kernel.default_width_bound;
      val_max_events = int_def j "val_max_events" Val_kernel.default_max_events;
      val_max_cells = int_def j "val_max_cells" Val_kernel.default_max_cells;
      val_order =
        enum_def j "val_order"
          [ ("min-degree", Val_kernel.Min_degree);
            ("min-fill", Val_kernel.Min_fill) ]
          Val_kernel.Min_degree;
      val_cache_entries =
        int_def j "val_cache_entries" Val_kernel.default_cache_entries;
      val_spill =
        enum_def j "val_spill"
          [ ("auto", Val_kernel.Auto); ("off", Val_kernel.Off);
            ("force", Val_kernel.Force) ]
          Val_kernel.Auto;
      comp_elim =
        enum_def j "comp_elim"
          [ ("auto", Comp_kernel.Auto); ("off", Comp_kernel.Off);
            ("force", Comp_kernel.Force) ]
          Comp_kernel.Auto;
      comp_width_bound =
        int_def j "comp_width_bound" Comp_kernel.default_width_bound;
      comp_max_cells = int_def j "comp_max_cells" Comp_kernel.default_max_cells;
      samples = int_opt j "samples";
      seed = int_def j "seed" 42;
      meth =
        enum_def j "method"
          [ ("karp-luby", Karp_luby); ("monte-carlo", Monte_carlo) ]
          Karp_luby;
      exact_check = bool_def j "exact_check" false;
      caches = bool_def j "caches" false;
      subs;
    }
  | _ -> bad "request must be a JSON object"

let of_line line =
  match Json.of_string line with
  | Error msg -> Error ("request is not valid JSON: " ^ msg)
  | Ok j -> ( match of_json j with r -> Ok r | exception Bad msg -> Error msg)

(* ------------------------------------------------------------------ *)
(* Result-cache key                                                    *)
(* ------------------------------------------------------------------ *)

(* Canonical parameter string of a request, given the content key of its
   database.  [id], [fresh] and [jobs] are excluded: the first two are
   delivery concerns, and every engine is bit-identical across job
   counts, so a warm result is valid at any [jobs]. *)
let cache_key r ~db_key =
  let b = Buffer.create 128 in
  let add k v =
    Buffer.add_string b k;
    Buffer.add_char b '=';
    Buffer.add_string b v;
    Buffer.add_char b ';'
  in
  add "op" r.op;
  add "db" db_key;
  add "query" (Option.value ~default:"" r.query);
  (match r.op with
  | "count" ->
    add "problem" (match r.problem with Val -> "val" | Comp -> "comp");
    add "brute_limit" (string_of_int r.brute_limit);
    add "val_width_bound" (string_of_int r.val_width_bound);
    add "val_max_events" (string_of_int r.val_max_events);
    add "val_max_cells" (string_of_int r.val_max_cells);
    add "val_order" (Val_kernel.order_to_string r.val_order);
    add "val_cache_entries" (string_of_int r.val_cache_entries);
    add "val_spill" (Val_kernel.spill_to_string r.val_spill);
    add "comp_elim"
      (match r.comp_elim with
      | Comp_kernel.Auto -> "auto"
      | Comp_kernel.Off -> "off"
      | Comp_kernel.Force -> "force");
    add "comp_width_bound" (string_of_int r.comp_width_bound);
    add "comp_max_cells" (string_of_int r.comp_max_cells)
  | "approx" ->
    add "samples" (string_of_int (Option.value ~default:50_000 r.samples));
    add "seed" (string_of_int r.seed);
    add "method"
      (match r.meth with Karp_luby -> "karp-luby" | Monte_carlo -> "monte-carlo");
    add "exact_check" (string_of_bool r.exact_check);
    add "val_width_bound" (string_of_int r.val_width_bound);
    add "val_max_cells" (string_of_int r.val_max_cells);
    add "val_order" (Val_kernel.order_to_string r.val_order);
    add "val_cache_entries" (string_of_int r.val_cache_entries);
    add "val_spill" (Val_kernel.spill_to_string r.val_spill)
  | "bounds" ->
    add "samples" (string_of_int (Option.value ~default:5_000 r.samples));
    add "seed" (string_of_int r.seed)
  | _ -> ());
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

let ok ~id ?(cached = false) result =
  Json.Assoc
    (("id", id) :: ("ok", Json.Bool true)
    :: (if cached then [ ("cached", Json.Bool true) ] else [])
    @ [ ("result", result) ])

let err ~id ~kind ?(data = []) msg =
  Json.Assoc
    [
      ("id", id);
      ("ok", Json.Bool false);
      ( "error",
        Json.Assoc
          (("kind", Json.String kind) :: ("message", Json.String msg) :: data)
      );
    ]

let to_line j = Json.to_string j
