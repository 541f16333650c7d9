open Incdb_relational
open Incdb_graph

let fact_can_produce db (f : Idb.fact) (g : Cdb.fact) =
  f.Idb.rel = g.Cdb.rel
  && Array.length f.Idb.args = Array.length g.Cdb.args
  && begin
       (* A null repeated inside one fact must take one consistent value;
          in a Codd table repetition cannot happen, but handling it keeps
          the check sound on arbitrary single facts. *)
       let binding = Hashtbl.create 4 in
       let ok = ref true in
       Array.iteri
         (fun i t ->
           if !ok then
             match t with
             | Term.Const c -> if c <> g.Cdb.args.(i) then ok := false
             | Term.Null n ->
               let c = g.Cdb.args.(i) in
               (match Hashtbl.find_opt binding n with
               | Some c' -> if c <> c' then ok := false
               | None ->
                 if List.mem c (Idb.domain_of db n) then
                   Hashtbl.replace binding n c
                 else ok := false))
         f.Idb.args;
       !ok
     end

let is_completion db s =
  if not (Idb.is_codd db) then
    invalid_arg "Codd.is_completion: requires a Codd table";
  let dfacts = Array.of_list (Idb.facts db) in
  let sfacts = Array.of_list (Cdb.to_list s) in
  let nd = Array.length dfacts and ns = Array.length sfacts in
  (* Star check: every fact of D must be able to produce some fact of S,
     otherwise no valuation lands inside S at all. *)
  let producible i =
    Array.exists (fun g -> fact_can_produce db dfacts.(i) g) sfacts
  in
  let star_ok = Array.for_all producible (Array.init nd Fun.id) in
  star_ok
  &&
  (* Every fact of S must be matched by a distinct fact of D: maximum
     matching of the producibility graph must saturate S. *)
  let edges = ref [] in
  for i = 0 to nd - 1 do
    for j = 0 to ns - 1 do
      if fact_can_produce db dfacts.(i) sfacts.(j) then edges := (i, j) :: !edges
    done
  done;
  let b = Bipartite.make ~left:nd ~right:ns !edges in
  let size, _ = Matching.maximum_matching b in
  size = ns

let is_completion_naive db s =
  let sfacts = Array.of_list (Cdb.to_list s) in
  let nulls = Array.of_list (Idb.nulls db) in
  let k = Array.length nulls in
  let index = Hashtbl.create 8 in
  Array.iteri (fun i n -> Hashtbl.replace index n i) nulls;
  let assignment = Array.make k None in
  (* A fact can still land in [s] under the partial assignment when some
     s-fact agrees with every already-fixed position. *)
  let fact_alive (f : Idb.fact) =
    Array.exists
      (fun (g : Cdb.fact) ->
        f.Idb.rel = g.Cdb.rel
        && Array.length f.Idb.args = Array.length g.Cdb.args
        && begin
             let ok = ref true in
             Array.iteri
               (fun i t ->
                 if !ok then
                   match t with
                   | Term.Const c -> if c <> g.Cdb.args.(i) then ok := false
                   | Term.Null n -> (
                     match assignment.(Hashtbl.find index n) with
                     | Some c -> if c <> g.Cdb.args.(i) then ok := false
                     | None ->
                       if not (List.mem g.Cdb.args.(i) (Idb.domain_of db n))
                       then ok := false))
               f.Idb.args;
             !ok
           end)
      sfacts
  in
  let all_alive () = List.for_all fact_alive (Idb.facts db) in
  (* Every s-fact must be produced by some table fact under the final
     assignment; check at the leaves (coverage pruning mid-way would need
     per-fact bookkeeping that rarely pays off at these sizes). *)
  let covered () =
    let v =
      List.init k (fun i ->
          (nulls.(i), match assignment.(i) with Some c -> c | None -> assert false))
    in
    Cdb.equal (Idb.apply db v) s
  in
  let rec go i =
    if i = k then covered ()
    else
      List.exists
        (fun c ->
          assignment.(i) <- Some c;
          let feasible = all_alive () in
          let result = feasible && go (i + 1) in
          assignment.(i) <- None;
          result)
        (Idb.domain_of db nulls.(i))
  in
  if k = 0 then Cdb.equal (Idb.apply db []) s else all_alive () && go 0

let is_completion_brute ?limit db s =
  let found = ref false in
  Idb.iter_valuations ?limit db (fun v ->
      if (not !found) && Cdb.equal (Idb.apply db v) s then found := true);
  !found
