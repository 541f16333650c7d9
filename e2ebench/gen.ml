(* Corpus generator.  Every input the program sees is written here, as
   [.idb] files plus one operation list per workload, from the workload
   seed alone.  Each operation carries its expected answer, computed by
   [Reference] (literal enumeration) where that finishes and by a
   hand-derived closed formula for the structured families where it does
   not; when both apply they must agree, so the formulas are themselves
   checked on every small instance. *)

open Inst

type problem = Val | Comp

type op = {
  id : string;
  family : string;
  file : string;  (* database file, relative to the workload directory *)
  problem : problem;
  query : query option;  (* [None]: all completions *)
  expected : Big.t;
  how : string;  (* "enumeration" or the closed formula's name *)
}

type size = Full | Smoke

let vals prefix n = List.init n (fun i -> Printf.sprintf "%s%d" prefix i)

(* [k] distinct elements of [l], in random order. *)
let sample rng k l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list (Array.sub a 0 k)

let unary rel n = { rel; args = [| N n |] }
let binary rel a b = { rel; args = [| a; b |] }
let atom arel vars = { arel; vars = Array.of_list vars }
let q_path = [ atom "R" [ "x" ]; atom "S" [ "x"; "y" ]; atom "T" [ "y" ] ]
let q_rxx rel = [ atom rel [ "x"; "x" ] ]
let q_rxy_sxy = [ atom "R" [ "x"; "y" ]; atom "S" [ "x"; "y" ] ]

let dom_size db n = List.length (domain db n)

let total db =
  Big.product (List.map (fun n -> Big.of_int (dom_size db n)) (nulls db))

let big_of_bool b = if b then Big.one else Big.zero

(* ------------------------------------------------------------------ *)
(* #Val families.  Each returns the database and the number of         *)
(* valuations on which its query FAILS, from a closed formula.         *)
(* ------------------------------------------------------------------ *)

(* Path query R(x), S(x,y), T(y) with [k] R-nulls and [k] T-nulls over
   per-null random domains (R-side values x0, x1, ..., T-side values
   y0, y1, ...) and [m] random S edges.  The query fails iff no edge joins an R-value to a
   T-value, so enumerating the R side and multiplying, per T-null, the
   values outside the R side's neighbourhood gives the failing count. *)
let path rng ~k ~nx ~dr ~m =
  let xs = vals "x" nx and ys = vals "y" nx in
  let all_edges = List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs in
  let edges = sample rng m all_edges in
  let rn = vals "r" k and tn = vals "t" k in
  let doms =
    List.map (fun n -> (n, List.sort compare (sample rng dr xs))) rn
    @ List.map (fun n -> (n, List.sort compare (sample rng dr ys))) tn
  in
  let db =
    {
      facts =
        List.map (unary "R") rn
        @ List.map (fun (x, y) -> binary "S" (C x) (C y)) edges
        @ List.map (unary "T") tn;
      doms = Per_null doms;
    }
  in
  let fail = ref Big.zero in
  let rdoms = Array.of_list (List.map (fun n -> Array.of_list (domain db n)) rn) in
  let tdoms = List.map (domain db) tn in
  let chosen = Array.make k "" in
  let rec enum i =
    if i = k then begin
      let nbr =
        List.filter_map
          (fun (x, y) -> if Array.mem x chosen then Some y else None)
          edges
      in
      fail :=
        Big.add !fail
          (Big.product
             (List.map
                (fun d ->
                  Big.of_int (List.length (List.filter (fun y -> not (List.mem y nbr)) d)))
                tdoms))
    end
    else Array.iter (fun v -> chosen.(i) <- v; enum (i + 1)) rdoms.(i)
  in
  enum 0;
  (db, !fail)

let choose n r =
  let c = ref 1 in
  for i = 1 to r do c := !c * (n - r + i) / i done;
  Big.of_int !c

(* Dense K_{k,k}: the path query over one shared [d]-value domain with
   [e] S edges (v(2i), v(2i+1)) on pairwise distinct values.  With H the
   set of left endpoints the R side hits (|H| = h), the T side must avoid
   the h partners:
     fail = sum_h C(e,h) * g(h) * (d-h)^k,
     g(h) = sum_i (-1)^i C(h,i) (d-e+h-i)^k   (R-valuations hitting
                                               exactly H among the left
                                               endpoints). *)
let biclique ~uniform ~k ~d ~e =
  assert (2 * e <= d);
  let dom = vals "v" d in
  let rn = vals "r" k and tn = vals "t" k in
  let db =
    {
      facts =
        List.map (unary "R") rn
        @ List.init e (fun i ->
              binary "S" (C (Printf.sprintf "v%d" (2 * i))) (C (Printf.sprintf "v%d" ((2 * i) + 1))))
        @ List.map (unary "T") tn;
      doms =
        (if uniform then Uniform dom
         else Per_null (List.map (fun n -> (n, dom)) (rn @ tn)));
    }
  in
  let pos = ref Big.zero and neg = ref Big.zero in
  for h = 0 to e do
    for i = 0 to h do
      let term =
        Big.product
          [ choose e h; choose h i; Big.pow (Big.of_int (d - e + h - i)) k;
            Big.pow (Big.of_int (d - h)) k ]
      in
      if i land 1 = 0 then pos := Big.add !pos term else neg := Big.add !neg term
    done
  done;
  (db, Big.sub !pos !neg)

(* R(x,x) over a path of binary facts E(n0,n1), E(n1,n2), ... on [m+1]
   nulls with random per-null domains drawn from [pool] values, plus
   [c] facts E(const, n) that forbid one value each.  The query fails iff
   consecutive nulls differ and no forbidden value is taken: a
   transfer-matrix sum along the path. *)
let rxx_chain rng ~rel ~m ~pool ~ds ~c =
  let ps = vals "p" pool in
  let ns = vals "n" (m + 1) in
  let doms = List.map (fun n -> (n, List.sort compare (sample rng ds ps))) ns in
  let forbid =
    List.init c (fun _ ->
        let n = List.nth ns (Random.State.int rng (m + 1)) in
        (n, List.nth ps (Random.State.int rng pool)))
  in
  let db =
    {
      facts =
        List.init m (fun i -> binary rel (N (List.nth ns i)) (N (List.nth ns (i + 1))))
        @ List.map (fun (n, v) -> binary rel (C v) (N n)) forbid;
      doms = Per_null doms;
    }
  in
  let allowed n v = not (List.mem (n, v) forbid) in
  let step prev n =
    List.map
      (fun v ->
        ( v,
          if not (allowed n v) then Big.zero
          else
            Big.sum
              (List.filter_map (fun (u, w) -> if u <> v then Some w else None) prev) ))
      (domain db n)
  in
  let first = List.hd ns in
  let init = List.map (fun v -> (v, big_of_bool (allowed first v))) (domain db first) in
  let last = List.fold_left step init (List.tl ns) in
  (db, Big.sum (List.map snd last))

(* R(x,x) on a Codd table: facts R(a,b) over distinct nulls or a
   constant and a null; a fact fails iff its two sides differ, and facts
   are independent. *)
let rxx_codd rng ~rel ~facts ~pool ~ds =
  let ps = vals "p" pool in
  let cnt = ref 0 in
  let fresh () = incr cnt; Printf.sprintf "c%d" !cnt in
  let shapes =
    List.init facts (fun i ->
        let a = fresh () and b = fresh () in
        if i mod 3 = 2 then (C (List.nth ps (Random.State.int rng pool)), N b, [ b ])
        else (N a, N b, [ a; b ]))
  in
  let doms =
    List.concat_map
      (fun (_, _, ns) -> List.map (fun n -> (n, List.sort compare (sample rng ds ps))) ns)
      shapes
  in
  let db =
    { facts = List.map (fun (a, b, _) -> binary rel a b) shapes; doms = Per_null doms }
  in
  let fail_of (a, b, _) =
    let dset = function C c -> [ c ] | N n -> domain db n in
    let da = dset a and db' = dset b in
    let same = List.length (List.filter (fun v -> List.mem v db') da) in
    Big.of_int ((List.length da * List.length db') - same)
  in
  (db, Big.product (List.map fail_of shapes))

(* R(x,y), S(x,y) in [g] groups: group j holds R(kj, ?r) and S(kj, ?s)
   facts on its own constant kj, so the query fails iff in every group
   the R-values and S-values are disjoint. *)
let rxy_sxy rng ~g ~p ~pool ~ds =
  let group j =
    let ps = vals (Printf.sprintf "g%dv" j) pool in
    let key = Printf.sprintf "k%d" j in
    let rn = vals (Printf.sprintf "g%dr" j) p and sn = vals (Printf.sprintf "g%ds" j) p in
    let doms = List.map (fun n -> (n, List.sort compare (sample rng ds ps))) (rn @ sn) in
    let facts =
      List.map (fun n -> binary "R" (C key) (N n)) rn
      @ List.map (fun n -> binary "S" (C key) (N n)) sn
    in
    let dom n = List.assoc n doms in
    let fail = ref Big.zero in
    let chosen = Array.make p "" in
    let rec enum i = function
      | [] ->
        fail :=
          Big.add !fail
            (Big.product
               (List.map
                  (fun s ->
                    Big.of_int
                      (List.length (List.filter (fun v -> not (Array.mem v chosen)) (dom s))))
                  sn))
      | r :: rest -> List.iter (fun v -> chosen.(i) <- v; enum (i + 1) rest) (dom r)
    in
    enum 0 rn;
    (facts, doms, !fail)
  in
  let groups = List.init g group in
  ( {
      facts = List.concat_map (fun (f, _, _) -> f) groups;
      doms = Per_null (List.concat_map (fun (_, d, _) -> d) groups);
    },
    Big.product (List.map (fun (_, _, f) -> f) groups) )

(* Disjoint union of two instances (their nulls and relations must not
   overlap): a union query over both fails iff both parts fail. *)
let disjoint (a, fa) (b, fb) =
  let doms =
    match (a.doms, b.doms) with
    | Per_null x, Per_null y -> Per_null (x @ y)
    | _ -> invalid_arg "Gen.disjoint: per-null domains only"
  in
  ({ facts = a.facts @ b.facts; doms }, Big.mul fa fb)

(* ------------------------------------------------------------------ *)
(* #Comp families.  Expected counts come from [Reference]; sizes stay  *)
(* within its enumeration limit.                                       *)
(* ------------------------------------------------------------------ *)

(* Uniform unary table: [nr] R-nulls, [ns] S-nulls and a few constants
   over one [d]-value domain (the Theorem 4.6 closed form's input). *)
let uniform_unary rng ~d ~nr ~ns ~consts =
  let dom = vals "u" d in
  let c () = C (List.nth dom (Random.State.int rng d)) in
  {
    facts =
      List.map (unary "R") (vals "a" nr)
      @ List.init consts (fun _ -> { rel = "R"; args = [| c () |] })
      @ List.map (unary "S") (vals "b" ns)
      @ List.init consts (fun _ -> { rel = "S"; args = [| c () |] });
    doms = Uniform dom;
  }

(* Codd table with binary and unary facts over per-null random domains:
   [nb] facts B(?, const) / B(const, ?) and [nu] facts U(?). *)
let codd_join rng ~nb ~nu ~pool ~ds =
  let ps = vals "w" pool in
  let cnt = ref 0 in
  let fresh () = incr cnt; Printf.sprintf "z%d" !cnt in
  let pick () = List.nth ps (Random.State.int rng pool) in
  let bfacts =
    List.init nb (fun i ->
        let n = fresh () in
        if i land 1 = 0 then (binary "B" (N n) (C (pick ())), n)
        else (binary "B" (C (pick ())) (N n), n))
  in
  let ufacts = List.init nu (fun _ -> let n = fresh () in (unary "U" n, n)) in
  {
    facts = List.map fst (bfacts @ ufacts);
    doms =
      Per_null
        (List.map (fun (_, n) -> (n, List.sort compare (sample rng ds ps))) (bfacts @ ufacts));
  }

(* The shape the candidate enumerator handles worst for its size:
   Q0(?) unary facts and Q1(?, ?, ?) ternary facts, Codd. *)
let codd_ternary rng ~n0 ~n1 ~pool ~ds =
  let ps = vals "h" pool in
  let cnt = ref 0 in
  let fresh () = incr cnt; Printf.sprintf "y%d" !cnt in
  let f0 = List.init n0 (fun _ -> let n = fresh () in ({ rel = "Q0"; args = [| N n |] }, [ n ])) in
  let f1 =
    List.init n1 (fun _ ->
        let a = fresh () and b = fresh () and c = fresh () in
        ({ rel = "Q1"; args = [| N a; N b; N c |] }, [ a; b; c ]))
  in
  {
    facts = List.map fst (f0 @ f1);
    doms =
      Per_null
        (List.concat_map
           (fun (_, ns) -> List.map (fun n -> (n, List.sort compare (sample rng ds ps))) ns)
           (f0 @ f1));
  }

(* Non-Codd: [shared] nulls each occur in an R-fact and an S-fact, plus
   [free] single-occurrence nulls per relation, per-null domains. *)
let shared_unary rng ~shared ~free ~pool ~ds =
  let ps = vals "s" pool in
  let sh = vals "p" shared and fr = vals "f" free and fs = vals "g" free in
  {
    facts =
      List.map (unary "R") (sh @ fr) @ List.map (unary "S") (sh @ fs);
    doms =
      Per_null
        (List.map (fun n -> (n, List.sort compare (sample rng ds ps))) (sh @ fr @ fs));
  }

(* Non-Codd binary table: a null shared between an E-fact's two ends and
   a unary fact, over per-null domains. *)
let shared_binary rng ~nulls ~edges ~pool ~ds =
  let ps = vals "e" pool in
  let ns = vals "m" nulls in
  let pick () = List.nth ns (Random.State.int rng nulls) in
  let efacts =
    List.init edges (fun i ->
        if i = 0 then binary "E" (N (List.hd ns)) (N (List.nth ns 1))
        else binary "E" (N (pick ())) (C (List.nth ps (Random.State.int rng pool))))
  in
  {
    facts = efacts @ List.map (unary "V") ns;
    doms = Per_null (List.map (fun n -> (n, List.sort compare (sample rng ds ps))) ns);
  }

(* Codd table past the enumerator's candidate cap: facts B(?a0, k0) and
   B(?a1, k1) over random [ds]-value domains of a [pool]-value set, and
   facts U(?b0), U(?b1) over two disjoint [ds]-value domains, so the
   ground universe has exactly 4 * ds distinct facts. *)
let codd_wide rng ~pool ~ds =
  let ps = vals "o" pool in
  let u = sample rng (2 * ds) ps in
  let doms =
    [ ("a0", sample rng ds ps); ("a1", sample rng ds ps);
      ("b0", List.filteri (fun i _ -> i < ds) u); ("b1", List.filteri (fun i _ -> i >= ds) u) ]
  in
  {
    facts =
      [ binary "B" (N "a0") (C "k0"); binary "B" (N "a1") (C "k1"); unary "U" "b0"; unary "U" "b1" ];
    doms = Per_null (List.map (fun (n, d) -> (n, List.sort compare d)) doms);
  }

(* ------------------------------------------------------------------ *)
(* Workload corpora                                                    *)
(* ------------------------------------------------------------------ *)

type corpus = {
  dbs : (string * db * string) list;  (* file, database, description *)
  ops : op list;
}

let check_agrees ~what expected = function
  | None -> ()
  | Some n ->
    if not (Big.equal (Big.of_int n) expected) then
      failwith
        (Printf.sprintf "generator: %s: closed formula %s, enumeration %d" what
           (Big.to_string expected) n)

(* Accumulates databases and operations with sequential ids. *)
type builder = {
  prefix : string;
  mutable dbs_acc : (string * db * string) list;
  mutable ops_acc : op list;
}

let builder prefix = { prefix; dbs_acc = []; ops_acc = [] }

let add_db b family db note =
  let file = Printf.sprintf "%s%03d-%s.idb" b.prefix (List.length b.dbs_acc) family in
  b.dbs_acc <- (file, db, note) :: b.dbs_acc;
  file

let add_op b ~family ~file ~problem ~query ~expected ~how =
  let id = Printf.sprintf "%s%03d" b.prefix (List.length b.ops_acc) in
  b.ops_acc <- { id; family; file; problem; query; expected; how } :: b.ops_acc

let finish b = { dbs = List.rev b.dbs_acc; ops = List.rev b.ops_acc }

(* Valuation spaces up to this size are also enumerated when a corpus is
   written; larger ones rest on their closed formula. *)
let enumeration_limit = 20_000

(* A #Val instance with its failing count: the query's count (and with
   [negate] also its negation's) is checked against the formula and,
   when small, against enumeration. *)
let add_val b ~family ~note ?(negate = false) ~how (db, fail) query =
  let file = add_db b family db note in
  let t = total db in
  let expected = Big.sub t fail in
  check_agrees ~what:(family ^ " " ^ file) expected
    (Reference.count_val ~limit:enumeration_limit db query);
  add_op b ~family ~file ~problem:Val ~query:(Some query) ~expected ~how;
  if negate then begin
    let nq = match query with Bcq q -> Not q | _ -> invalid_arg "Gen.add_val" in
    check_agrees ~what:(family ^ " not " ^ file) fail
      (Reference.count_val ~limit:enumeration_limit db nq);
    add_op b ~family ~file ~problem:Val ~query:(Some nq) ~expected:fail ~how
  end

(* The [i]-th of a parameter list, cyclically: which sizes a corpus
   holds is fixed, and only the instances drawn at those sizes depend on
   the seed, so no seed gets a heavier mix than another. *)
let cycle i l = List.nth l (i mod List.length l)

(* val-elim: the #Val hard patterns, in two tiers.  The light tier
   (four in five operations, each well under 10 ms) is drawn from the
   seed.  The heavy tier (dense bicliques and larger path instances, up
   to 0.2 s each) is drawn from a fixed stream, so the slowest fifth of
   a pass, which holds the 90th and 99th percentiles and most of the
   pass time, is the same work on every seed.  Counts run from below 2^10 to past 2^130. *)
let val_elim ~rng ~fixed size =
  let b = builder "v" in
  let full = size = Full in
  let times n f = for i = 0 to (if full then n else 1) - 1 do f i done in
  let sz full_v smoke_v = if full then full_v else smoke_v in
  let add_path ~negate rng (k, nx, dr, m) =
    add_val b ~family:"path" ~negate ~how:"side-enumeration"
      ~note:(Printf.sprintf "path query, %d nulls per side, %d-value domains, %d edges" k dr m)
      (path rng ~k ~nx ~dr ~m) (Bcq q_path)
  in
  times 32 (fun i ->
      add_path ~negate:(i mod 4 = 0) rng
        (sz 4 3, sz 8 5, cycle i (sz [ 3; 4 ] [ 2 ]), cycle (i / 2) (sz [ 8; 10 ] [ 4 ])));
  times 20 (fun i ->
      let m = cycle i (sz [ 10; 20; 30; 45 ] [ 4 ]) in
      add_val b ~family:"rxx-chain" ~negate:(i mod 3 = 0) ~how:"transfer-matrix"
        ~note:(Printf.sprintf "R(x,x) over a %d-fact chain of shared nulls" m)
        (rxx_chain rng ~rel:"E" ~m ~pool:(sz 6 4) ~ds:(sz 4 3) ~c:(1 + (i mod 3)))
        (Bcq (q_rxx "E")));
  times 8 (fun i ->
      let facts = cycle i (sz [ 4; 20; 40 ] [ 3 ]) in
      add_val b ~family:"rxx-codd" ~how:"per-fact-product"
        ~note:(Printf.sprintf "R(x,x) over %d Codd facts" facts)
        (rxx_codd rng ~rel:"E" ~facts ~pool:(sz 6 4) ~ds:(sz 4 3)) (Bcq (q_rxx "E")));
  times 20 (fun i ->
      let g = cycle i (sz [ 2; 4; 6; 8 ] [ 2 ]) and p = sz 3 2 in
      add_val b ~family:"rxy-sxy" ~negate:(i mod 3 = 1) ~how:"group-product"
        ~note:(Printf.sprintf "R(x,y), S(x,y) in %d groups of %d+%d nulls" g p p)
        (rxy_sxy rng ~g ~p ~pool:(sz 6 4) ~ds:(sz 4 3)) (Bcq q_rxy_sxy));
  times 16 (fun i ->
      let len = cycle i (sz [ 10; 20; 30; 40 ] [ 3 ]) in
      add_val b ~family:"union" ~how:"disjoint-product"
        ~note:(Printf.sprintf "path query and an R(x,x) chain of %d facts side by side" len)
        (disjoint
           (path rng ~k:(sz 4 2) ~nx:6 ~dr:3 ~m:(sz 8 3))
           (rxx_chain rng ~rel:"E" ~m:len ~pool:5 ~ds:3 ~c:2))
        (Union [ q_path; q_rxx "E" ]));
  (* Heavy tier. *)
  List.iteri
    (fun i (uniform, k, d, e) ->
      add_val b ~family:"biclique" ~negate:(i = 0) ~how:"biclique-formula"
        ~note:(Printf.sprintf "dense K_{%d,%d}, %d-value %s domain, %d edges" k k d
                 (if uniform then "uniform" else "per-null") e)
        (biclique ~uniform ~k ~d ~e) (Bcq q_path))
    (sz
       [ (true, 6, 40, 3); (false, 6, 40, 3); (false, 5, 60, 4); (true, 5, 60, 4);
         (true, 7, 24, 3); (false, 5, 40, 5) ]
       [ (true, 2, 4, 2) ]);
  times 24 (fun i -> add_path ~negate:(i = 0) fixed (sz 5 3, sz 10 5, sz 4 2, sz 12 4));
  finish b

let q_ru_su = [ atom "R" [ "x" ]; atom "S" [ "x" ] ]
let q_bu = [ atom "B" [ "x"; "y" ]; atom "U" [ "x" ] ]
let q_ternary = [ atom "Q0" [ "x" ]; atom "Q1" [ "w"; "z"; "w" ] ]
let q_ev = [ atom "E" [ "x"; "y" ]; atom "V" [ "y" ] ]

let comp_expected ~what db q =
  match Reference.count_comp db q with
  | Some n -> n
  | None -> failwith ("generator: reference cannot finish " ^ what)

(* #Comp operations on [db]: the query's count and, with [all], the
   count of all completions. *)
let add_comp b ~family ~note ?(all = true) db q =
  let file = add_db b family db note in
  add_op b ~family ~file ~problem:Comp ~query:(Some (Bcq q))
    ~expected:(comp_expected ~what:file db (Some (Bcq q)))
    ~how:"enumeration";
  if all then
    add_op b ~family ~file ~problem:Comp ~query:None
      ~expected:(comp_expected ~what:file db None)
      ~how:"enumeration"

(* comp-route: #Comp instances that today's dispatcher sends to each of
   its four arms (closed form, candidate enumerator, elimination kernel,
   brute force), including enumerator- and kernel-routed shapes that
   brute force answers faster.  As in val-elim, a light tier is drawn
   from the seed and a heavy tier (10-30 ms per answer, a fifth of the
   operations) from a fixed stream.  Every instance stays within the
   reference counter's reach. *)
let comp_route ~rng ~fixed size =
  let b = builder "c" in
  let full = size = Full in
  let times n f = for i = 0 to (if full then n else 1) - 1 do f i done in
  let sz full_v smoke_v = if full then full_v else smoke_v in
  let codd_join_op ?all rng (nb, nu, pool, ds) =
    add_comp b ~family:"codd-join" ?all
      ~note:(Printf.sprintf "Codd, %d binary + %d unary facts, %d-value domains" nb nu ds)
      (codd_join rng ~nb ~nu ~pool ~ds) q_bu
  in
  let ternary_op rng (n0, n1, pool, ds) =
    add_comp b ~family:"codd-ternary" ~all:false
      ~note:(Printf.sprintf "Codd, %d unary + %d ternary facts (enumerator-routed)" n0 n1)
      (codd_ternary rng ~n0 ~n1 ~pool ~ds) q_ternary
  in
  let shared_unary_op ?all rng (shared, free, pool, ds) =
    add_comp b ~family:"shared-unary" ?all
      ~note:(Printf.sprintf "non-Codd, %d shared + 2x%d free nulls, %d-value domains" shared free ds)
      (shared_unary rng ~shared ~free ~pool ~ds) q_ru_su
  in
  let shared_binary_op rng (nulls, edges, pool, ds) =
    add_comp b ~family:"shared-binary" ~all:false
      ~note:(Printf.sprintf "non-Codd binary, %d nulls, %d edges" nulls edges)
      (shared_binary rng ~nulls ~edges ~pool ~ds) q_ev
  in
  times 18 (fun i ->
      let d = cycle i (sz [ 4; 5 ] [ 3 ]) in
      add_comp b ~family:"uniform-unary"
        ~note:(Printf.sprintf "uniform %d-value domain, 3+3 unary nulls" d)
        (uniform_unary rng ~d ~nr:(sz 3 2) ~ns:(sz 3 2) ~consts:(1 + (i / 2 mod 2)))
        q_ru_su);
  times 18 (fun i ->
      codd_join_op rng (cycle i (sz [ (3, 2, 5, 3); (4, 3, 6, 3); (3, 3, 6, 3) ] [ (2, 2, 4, 2) ])));
  times 12 (fun i -> ternary_op rng (cycle i (sz [ (2, 1, 4, 2); (2, 2, 4, 2) ] [ (1, 1, 4, 2) ])));
  times 18 (fun i ->
      shared_unary_op rng
        (cycle i (sz [ (1, 2, 6, 4); (1, 3, 8, 4); (2, 2, 8, 4); (2, 3, 8, 3) ] [ (1, 1, 4, 3) ])));
  times 12 (fun i ->
      shared_binary_op rng (cycle i (sz [ (3, 3, 5, 3); (4, 4, 6, 3); (4, 5, 6, 4) ] [ (3, 3, 5, 3) ])));
  times 6 (fun i ->
      let ds = cycle i (sz [ 21; 22 ] [ 21 ]) in
      add_comp b ~family:"codd-wide"
        ~note:(Printf.sprintf "Codd past the candidate cap, %d ground facts" (4 * ds))
        (codd_wide rng ~pool:60 ~ds) q_bu);
  (* Heavy tier. *)
  times 8 (fun _ -> codd_join_op fixed (sz (4, 4, 6, 4) (2, 2, 4, 2)));
  times 8 (fun _ -> ternary_op fixed (sz (1, 2, 4, 3) (1, 1, 4, 2)));
  times 4 (fun _ -> shared_unary_op fixed (sz (3, 1, 8, 5) (3, 0, 6, 5)));
  times 8 (fun _ -> shared_binary_op fixed (sz (5, 5, 6, 4) (3, 3, 5, 3)));
  finish b

(* ------------------------------------------------------------------ *)
(* serve-mixed                                                         *)
(* ------------------------------------------------------------------ *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ v) fields) ^ "}"

(* One serve-mixed request: its NDJSON line, what kind of answer it
   gets, and the expected answer ("-" where the check is not a count). *)
type request = { line : string; kind : string; expect : string }

(* serve-mixed: small instances answered mostly by closed forms and
   small kernels, so that the service layers dominate.  A round holds
   the twenty cacheable requests 24 times each (result-cache hits after
   the first), every count again with [fresh] (warm kernel caches only),
   ten fresh approx requests, a fresh [jobs: 2] count and a batch of
   three counts.  The fresh approx requests, about 2% of the round, are
   its slowest requests and all cost the same, so the 99th percentile
   falls among like requests.
   The batch runs at the default [jobs: 1]: with [jobs: 2] every batch
   spawns a domain, each spawned domain leaves a flight-recorder ring of
   half a megabyte behind in the server, and the growing heap slows the
   server down over the run, so the figures would depend on how long it
   had been running. *)
let serve_mixed ~rng ~fixed size =
  let b = builder "s" in
  let full = size = Full in
  let insts =
    [
      (* Drawn from the fixed stream: the fresh approx requests run on
         it, and their cost grows with its number of Karp-Luby events. *)
      ("path", fst (path fixed ~k:3 ~nx:5 ~dr:2 ~m:4), q_path);
      ("rxx-codd", fst (rxx_codd rng ~rel:"E" ~facts:3 ~pool:4 ~ds:3), q_rxx "E");
      ("uniform-unary", uniform_unary rng ~d:4 ~nr:2 ~ns:2 ~consts:1, q_ru_su);
      ("codd-join", codd_join rng ~nb:3 ~nu:2 ~pool:5 ~ds:3, q_bu);
      ("shared-unary", shared_unary rng ~shared:1 ~free:2 ~pool:6 ~ds:3, q_ru_su);
      ("shared-binary", shared_binary rng ~nulls:3 ~edges:3 ~pool:5 ~ds:3, q_ev);
    ]
  in
  let insts = if full then insts else List.filteri (fun i _ -> i < 3) insts in
  (* Every other instance travels inline as db_text, the rest by path. *)
  let sources =
    List.mapi
      (fun i (family, db, q) ->
        let file = add_db b family db "serve-mixed instance" in
        let src =
          if i land 1 = 1 then ("db_text", json_string (to_idb_text db))
          else ("db", json_string file)
        in
        (family, db, q, src))
      insts
  in
  let val_of db q =
    match Reference.count_val db (Bcq q) with
    | Some n -> string_of_int n
    | None -> failwith "generator: serve instance too large"
  in
  let comp_of db q = Big.to_string (comp_expected ~what:"serve" db (Some (Bcq q))) in
  let count ?(extra = []) src problem q =
    json_obj
      ([ ("op", json_string "count"); src; ("query", json_string (cq_text q));
         ("problem", json_string problem) ]
      @ extra)
  in
  let cached =
    List.concat_map
      (fun (_, db, q, src) ->
        [
          { line = count src "val" q; kind = "count"; expect = val_of db q };
          { line = count src "comp" q; kind = "count"; expect = comp_of db q };
        ])
      sources
    @ List.map
        (fun q ->
          { line = json_obj [ ("op", json_string "classify"); ("query", json_string (cq_text q)) ];
            kind = "classify"; expect = "-" })
        [ q_path; q_rxx "R"; q_rxy_sxy; q_ru_su ]
    @ List.concat_map
        (fun (_, db, q, src) ->
          [
            { line =
                json_obj
                  [ ("op", json_string "bounds"); src; ("query", json_string (cq_text q));
                    ("samples", "500"); ("seed", "7") ];
              kind = "bounds"; expect = comp_of db q };
            { line =
                json_obj
                  [ ("op", json_string "approx"); src; ("query", json_string (cq_text q));
                    ("samples", "2000"); ("seed", "11") ];
              kind = "approx"; expect = val_of db q };
          ])
        (List.filteri (fun i _ -> i < 2) sources)
  in
  let fresh = [ ("fresh", "true") ] in
  let fresh_counts =
    List.concat_map
      (fun (_, db, q, src) ->
        [
          { line = count ~extra:fresh src "val" q; kind = "count"; expect = val_of db q };
          { line = count ~extra:fresh src "comp" q; kind = "count"; expect = comp_of db q };
        ])
      sources
  in
  let heavy =
    let _, db0, q0, src0 = List.hd sources in
    let _, dbl, ql, srcl = List.nth sources (List.length sources - 1) in
    let sub (_, db, q, src) = (count src "val" q, val_of db q) in
    let batch subs =
      { line =
          json_obj
            [ ("op", json_string "batch");
              ("requests", "[" ^ String.concat "," (List.map fst subs) ^ "]") ];
        kind = "batch"; expect = String.concat "," (List.map snd subs) }
    in
    List.init (if full then 10 else 1) (fun i ->
        { line =
            json_obj
              [ ("op", json_string "approx"); src0; ("query", json_string (cq_text q0));
                ("samples", "2000"); ("seed", string_of_int (13 + i)); ("fresh", "true") ];
          kind = "approx"; expect = val_of db0 q0 })
    @ [
      { line = count ~extra:(("jobs", "2") :: fresh) srcl "comp" ql;
        kind = "count"; expect = comp_of dbl ql };
      batch (List.map sub (List.filteri (fun i _ -> i < 3) sources));
    ]
  in
  (* The uncached requests are spread evenly through the round, so that
     every stretch of it has the same mix. *)
  let cached = List.concat (List.init (if full then 24 else 1) (fun _ -> cached)) in
  let rec interleave a b =
    match (a, b) with x :: xs, _ -> x :: interleave b xs | [], rest -> rest
  in
  let spread = interleave fresh_counts heavy in
  let every = max 1 (List.length cached / List.length spread) in
  let rec merge i cached spread =
    match (cached, spread) with
    | c :: cs, s :: ss when i mod every = every - 1 -> c :: s :: merge (i + 1) cs ss
    | c :: cs, _ -> c :: merge (i + 1) cs spread
    | [], rest -> rest
  in
  (finish b, merge 0 cached spread)

(* ------------------------------------------------------------------ *)
(* Writing a corpus                                                    *)
(* ------------------------------------------------------------------ *)

let workloads = [ "val-elim"; "comp-route"; "serve-mixed" ]

(* Each workload draws from its own stream, so generating one workload
   alone gives the same files as generating all three.  The heavy tiers
   draw from a stream that does not depend on the seed. *)
let rng_for seed workload = Random.State.make [| seed; Hashtbl.hash workload |]
let fixed_for workload = Random.State.make [| 0x5eed; Hashtbl.hash workload |]

let problem_text = function Val -> "val" | Comp -> "comp"

let write_ops path ops =
  let line o =
    String.concat "\t"
      [ o.id; o.family; o.file; problem_text o.problem;
        (match o.query with None -> "*" | Some q -> query_text q);
        Big.to_string o.expected; o.how ]
  in
  write_file path (String.concat "\n" (List.map line ops) ^ "\n")

let write_requests path reqs =
  write_file path
    (String.concat "\n"
       (List.map (fun r -> String.concat "\t" [ r.kind; r.expect; r.line ]) reqs)
    ^ "\n")

(* Write [workload]'s corpus for [seed] under [dir]/[workload]. *)
let write ~size ~seed ~dir workload =
  let rng = rng_for seed workload in
  let wdir = Filename.concat dir workload in
  mkdir_p wdir;
  let corpus, reqs =
    match workload with
    | "val-elim" -> (val_elim ~rng ~fixed:(fixed_for workload) size, [])
    | "comp-route" -> (comp_route ~rng ~fixed:(fixed_for workload) size, [])
    | "serve-mixed" -> serve_mixed ~rng ~fixed:(fixed_for workload) size
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  List.iter
    (fun (file, db, note) ->
      write_file (Filename.concat wdir file)
        (to_idb_text ~comment:[ note; Printf.sprintf "seed %d" seed ] db))
    corpus.dbs;
  if corpus.ops <> [] then write_ops (Filename.concat wdir "ops.tsv") corpus.ops;
  if reqs <> [] then write_requests (Filename.concat wdir "requests.tsv") reqs
