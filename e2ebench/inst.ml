(* The benchmark's own picture of an instance: the generator builds it,
   writes it out in the program's [.idb] text format, and the reference
   counter reads it back with the parser below.  Nothing here uses the
   program's libraries. *)

type term = C of string | N of string
type fact = { rel : string; args : term array }
type doms = Uniform of string list | Per_null of (string * string list) list
type db = { facts : fact list; doms : doms }

(* Query atoms carry variables only, as in the paper. *)
type atom = { arel : string; vars : string array }
type cq = atom list

type query =
  | Bcq of cq
  | Union of cq list
  | Not of cq

(* ------------------------------------------------------------------ *)
(* Databases                                                           *)
(* ------------------------------------------------------------------ *)

let nulls db =
  let seen = Hashtbl.create 16 in
  List.concat_map
    (fun f ->
      Array.to_list f.args
      |> List.filter_map (function
           | N n when not (Hashtbl.mem seen n) ->
             Hashtbl.add seen n ();
             Some n
           | _ -> None))
    db.facts

let domain db n =
  match db.doms with
  | Uniform d -> d
  | Per_null l -> (
    match List.assoc_opt n l with
    | Some d -> d
    | None -> failwith ("Inst.domain: no domain for ?" ^ n))

let term_text = function C c -> c | N n -> "?" ^ n

let fact_text f =
  f.rel ^ "(" ^ String.concat ", " (Array.to_list (Array.map term_text f.args)) ^ ")"

let to_idb_text ?(comment = []) db =
  let b = Buffer.create 512 in
  List.iter (fun c -> Buffer.add_string b ("# " ^ c ^ "\n")) comment;
  (match db.doms with
  | Uniform d -> Buffer.add_string b ("dom " ^ String.concat " " d ^ "\n")
  | Per_null _ ->
    List.iter
      (fun n ->
        Buffer.add_string b
          ("dom ?" ^ n ^ " " ^ String.concat " " (domain db n) ^ "\n"))
      (nulls db));
  List.iter (fun f -> Buffer.add_string b (fact_text f ^ "\n")) db.facts;
  Buffer.contents b

let words s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (( <> ) "")

let parse_args rel inner =
  let args =
    String.split_on_char ',' inner |> List.map String.trim |> Array.of_list
  in
  if Array.exists (( = ) "") args then failwith ("Inst: empty argument in " ^ rel);
  args

(* "R(a, ?n)" -> relation and raw argument strings. *)
let split_atom s =
  let s = String.trim s in
  match (String.index_opt s '(', String.rindex_opt s ')') with
  | Some o, Some c when o < c && c = String.length s - 1 ->
    let rel = String.trim (String.sub s 0 o) in
    if rel = "" then failwith ("Inst: missing relation name in " ^ s);
    (rel, parse_args rel (String.sub s (o + 1) (c - o - 1)))
  | _ -> failwith ("Inst: not an atom: " ^ s)

let of_idb_text text =
  let uniform = ref None and per_null = ref [] and facts = ref [] in
  List.iter
    (fun raw ->
      let line =
        String.trim
          (match String.index_opt raw '#' with
          | Some i -> String.sub raw 0 i
          | None -> raw)
      in
      if line = "" then ()
      else if String.length line > 4 && String.sub line 0 4 = "dom " then
        match words (String.sub line 4 (String.length line - 4)) with
        | n :: vs when n.[0] = '?' ->
          per_null := (String.sub n 1 (String.length n - 1), vs) :: !per_null
        | vs -> uniform := Some vs
      else begin
        let rel, args = split_atom line in
        let term a =
          if a.[0] = '?' then N (String.sub a 1 (String.length a - 1)) else C a
        in
        facts := { rel; args = Array.map term args } :: !facts
      end)
    (String.split_on_char '\n' text);
  let doms =
    match !uniform with
    | Some d -> Uniform d
    | None -> Per_null (List.rev !per_null)
  in
  { facts = List.rev !facts; doms }

(* ------------------------------------------------------------------ *)
(* Queries: "R(x), S(x,y)", "A | B" for a union, "not A" for ¬A.       *)
(* ------------------------------------------------------------------ *)

let cq_text q =
  String.concat ", "
    (List.map
       (fun a -> a.arel ^ "(" ^ String.concat "," (Array.to_list a.vars) ^ ")")
       q)

let query_text = function
  | Bcq q -> cq_text q
  | Union qs -> String.concat " | " (List.map cq_text qs)
  | Not q -> "not " ^ cq_text q

(* Split a conjunction at the commas between atoms, not inside them. *)
let cq_of_text s =
  let atoms = ref [] and depth = ref 0 and start = ref 0 in
  String.iteri
    (fun i ch ->
      match ch with
      | '(' -> incr depth
      | ')' -> decr depth
      | ',' when !depth = 0 ->
        atoms := String.sub s !start (i - !start) :: !atoms;
        start := i + 1
      | _ -> ())
    s;
  atoms := String.sub s !start (String.length s - !start) :: !atoms;
  List.rev_map
    (fun a ->
      let arel, vars = split_atom a in
      { arel; vars })
    !atoms

let split_union s =
  let parts = ref [] and start = ref 0 in
  String.iteri
    (fun i ch ->
      if ch = '|' then begin
        parts := String.sub s !start (i - !start) :: !parts;
        start := i + 1
      end)
    s;
  List.rev (String.sub s !start (String.length s - !start) :: !parts)

let query_of_text s =
  let s = String.trim s in
  if String.length s > 4 && String.sub s 0 4 = "not " then
    Not (cq_of_text (String.sub s 4 (String.length s - 4)))
  else
    match split_union s with
    | [ one ] -> Bcq (cq_of_text one)
    | parts -> Union (List.map cq_of_text parts)

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc contents)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end
