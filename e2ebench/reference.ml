(* The reference counter: the definition of #Val and #Comp executed
   literally, independent of the program's libraries.  It enumerates
   every valuation, applies it, evaluates the query on the resulting
   ground facts by naive homomorphism search, and for #Comp
   de-duplicates the completions as sets of facts. *)

open Inst

let total_valuations db =
  Big.product
    (List.map (fun n -> Big.of_int (List.length (domain db n))) (nulls db))

(* [Some t] when the valuation space has at most [limit] points. *)
let small_total ~limit db =
  let t = total_valuations db in
  if Big.compare t (Big.of_int limit) <= 0 then
    Some (int_of_string (Big.to_string t))
  else None

let index_of facts =
  let idx = Hashtbl.create 16 in
  List.iter
    (fun (rel, args) ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt idx rel) in
      Hashtbl.replace idx rel (args :: cur))
    facts;
  idx

(* Extend [env] so that [vars] maps onto [args] position by position. *)
let bind env vars args =
  let rec go env i =
    if i = Array.length vars then Some env
    else
      match List.assoc_opt vars.(i) env with
      | Some v when v <> args.(i) -> None
      | Some _ -> go env (i + 1)
      | None -> go ((vars.(i), args.(i)) :: env) (i + 1)
  in
  go env 0

let eval_cq idx q =
  let rec go atoms env =
    match atoms with
    | [] -> true
    | a :: rest ->
      List.exists
        (fun args ->
          Array.length args = Array.length a.vars
          &&
          match bind env a.vars args with
          | Some env' -> go rest env'
          | None -> false)
        (Option.value ~default:[] (Hashtbl.find_opt idx a.arel))
  in
  go q []

let eval idx = function
  | Bcq q -> eval_cq idx q
  | Union qs -> List.exists (eval_cq idx) qs
  | Not q -> not (eval_cq idx q)

(* Call [f] on the ground facts of every valuation of [db]. *)
let iter_completions db f =
  let ns = Array.of_list (nulls db) in
  let doms = Array.map (fun n -> Array.of_list (domain db n)) ns in
  let pos = Hashtbl.create 16 in
  Array.iteri (fun i n -> Hashtbl.replace pos n i) ns;
  let choice = Array.make (Array.length ns) 0 in
  let ground () =
    List.map
      (fun fa ->
        ( fa.rel,
          Array.map
            (function
              | C c -> c
              | N n ->
                let i = Hashtbl.find pos n in
                doms.(i).(choice.(i)))
            fa.args ))
      db.facts
  in
  let rec odometer i =
    if i = Array.length ns then f (ground ())
    else
      for v = 0 to Array.length doms.(i) - 1 do
        choice.(i) <- v;
        odometer (i + 1)
      done
  in
  if Array.exists (fun d -> Array.length d = 0) doms then () else odometer 0

(* #Val(q), or [None] past [limit] valuations. *)
let count_val ?(limit = 300_000) db q =
  match small_total ~limit db with
  | None -> None
  | Some _ ->
    let n = ref 0 in
    iter_completions db (fun facts -> if eval (index_of facts) q then incr n);
    Some !n

let completion_key facts =
  List.map (fun (rel, args) -> rel ^ "(" ^ String.concat "," (Array.to_list args) ^ ")") facts
  |> List.sort_uniq String.compare
  |> String.concat ";"

(* Relations linked by a shared null must be enumerated together;
   otherwise their parts of a completion are independent.  Groups of
   relation names, each closed under sharing a null. *)
let relation_groups db =
  let rels = List.sort_uniq compare (List.map (fun f -> f.rel) db.facts) in
  let parent = Hashtbl.create 8 in
  List.iter (fun r -> Hashtbl.replace parent r r) rels;
  let rec find r = let p = Hashtbl.find parent r in if p = r then r else find p in
  let owner = Hashtbl.create 16 in
  List.iter
    (fun f ->
      Array.iter
        (function
          | C _ -> ()
          | N n -> (
            match Hashtbl.find_opt owner n with
            | None -> Hashtbl.replace owner n f.rel
            | Some r -> Hashtbl.replace parent (find r) (find f.rel)))
        f.args)
    db.facts;
  let roots = List.sort_uniq compare (List.map find rels) in
  List.map (fun root -> List.filter (fun r -> find r = root) rels) roots

let restrict db rels =
  let facts = List.filter (fun f -> List.mem f.rel rels) db.facts in
  let sub = { facts; doms = db.doms } in
  match db.doms with
  | Uniform _ -> sub
  | Per_null l ->
    let ns = nulls sub in
    { sub with doms = Per_null (List.filter (fun (n, _) -> List.mem n ns) l) }

(* The distinct parts (sets of ground facts) one group's valuations
   produce, or [None] past [limit] valuations. *)
let distinct_parts ~limit db =
  match small_total ~limit db with
  | None -> None
  | Some _ ->
    let seen = Hashtbl.create 1024 in
    iter_completions db (fun facts ->
        let facts = List.sort_uniq compare facts in
        let key = completion_key facts in
        if not (Hashtbl.mem seen key) then Hashtbl.add seen key facts);
    Some (Hashtbl.fold (fun _ facts acc -> facts :: acc) seen [])

let query_relations = function
  | Bcq q | Not q -> List.map (fun a -> a.arel) q
  | Union qs -> List.concat_map (List.map (fun a -> a.arel)) qs

(* #Comp(q) (all completions when [q] is [None]), or [None] when some
   relation group has more than [limit] valuations or the groups the
   query reads have more than [5 * limit] joint parts.  A completion is the
   union of one part per group and distinct choices give distinct
   completions, so the count is the product over the groups the query
   does not read of their part counts, times the number of joint parts
   of the groups it reads on which the query holds. *)
let count_comp ?(limit = 200_000) db q =
  let groups = relation_groups db in
  let parts =
    List.map (fun g -> (g, distinct_parts ~limit (restrict db g))) groups
  in
  if List.exists (fun (_, p) -> p = None) parts then None
  else begin
    let parts = List.map (fun (g, p) -> (g, Option.get p)) parts in
    let read =
      match q with None -> [] | Some q -> query_relations q
    in
    let touched, untouched =
      List.partition (fun (g, _) -> List.exists (fun r -> List.mem r read) g) parts
    in
    let rest = Big.product (List.map (fun (_, p) -> Big.of_int (List.length p)) untouched) in
    let joint =
      List.fold_left (fun n (_, p) -> n * List.length p) 1 touched
    in
    if joint > 5 * limit then None
    else
      match q with
      | None -> Some rest
      | Some q ->
        let hits = ref 0 in
        let rec go acc = function
          | [] -> if eval (index_of acc) q then incr hits
          | (_, p) :: more -> List.iter (fun part -> go (part @ acc) more) p
        in
        go [] touched;
        Some (Big.mul (Big.of_int !hits) rest)
  end
