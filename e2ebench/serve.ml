(* serve-mixed: a closed loop of NDJSON requests to a real [incdbd
   --socket] process from two client threads, each waiting for its reply
   before sending the next request, as a batch caller does. *)

open Incdb_bignum
open Incdb_cq
open Incdb_core
open Harness
module Json = Incdb_obs.Json

type req = {
  kind : string;  (* count | classify | bounds | approx | batch *)
  expect : string;
  line : string;
  verdicts : (string * string) list;  (* classify: setting -> exact verdict *)
}

let field name j = match Json.member name j with Some v -> v | None -> Json.Null

let json s = match Json.of_string s with Ok j -> j | Error e -> failwith ("bad JSON: " ^ e)
let str = function Json.String s -> s | _ -> ""

(* Expected classify verdicts come from the program's own [Classify] run
   in this process: the check is that the service returns the library's
   verdict through its caches and transport. *)
let load dir =
  List.map
    (function
      | [ kind; expect; line ] ->
        let verdicts =
          if kind <> "classify" then []
          else
            let q = Cq.of_string (str (field "query" (json line))) in
            List.map
              (fun s ->
                (Setting.to_string s, Classify.verdict_to_string (Classify.exact s q)))
              Setting.all
        in
        { kind; expect; line; verdicts }
      | row -> failwith ("malformed request row: " ^ String.concat "|" row))
    (tsv (Filename.concat dir "requests.tsv"))

let count_is expect result = str (field "count" result) = expect

type outcome = Right | Wrong | Refused

(* A response that is not [ok] is a failed operation; an [ok] response
   whose answer differs from the expected one is a wrong answer. *)
let check req resp =
  match Json.of_string resp with
  | Error _ -> Refused
  | Ok j when field "ok" j <> Json.Bool true -> Refused
  | Ok j -> (
    if
    let result = field "result" j in
    match req.kind with
    | "count" -> count_is req.expect result
    | "classify" -> (
      match field "settings" result with
      | Json.List ss ->
        List.map (fun s -> (str (field "setting" s), str (field "exact" s))) ss
        = req.verdicts
      | _ -> false)
    | "bounds" ->
      let e = Nat.of_string req.expect in
      let nat name = Nat.of_string (str (field name result)) in
      Nat.compare (nat "lower") e <= 0
      && Nat.compare e (nat "upper") <= 0
      && (match field "exact" result with
         | Json.String s -> s = req.expect
         | _ -> true)
    | "approx" -> (
      let e = float_of_string req.expect in
      match field "estimate" result with
      | Json.Float est -> Float.abs (est -. e) <= 0.25 *. e
      | Json.Int est -> Float.abs (float_of_int est -. e) <= 0.25 *. e
      | _ -> false)
    | "batch" -> (
      match field "results" result with
      | Json.List rs ->
        List.length rs = List.length (String.split_on_char ',' req.expect)
        && List.for_all2
             (fun r e -> field "ok" r = Json.Bool true && count_is e (field "result" r))
             rs
             (String.split_on_char ',' req.expect)
      | _ -> false)
    | _ -> false
    then Right
    else Wrong)

(* ------------------------------------------------------------------ *)
(* The incdbd process                                                  *)
(* ------------------------------------------------------------------ *)

type server = { pid : int; err_path : string; sock : string }

let socket_name = "incdbd.sock"

(* Servers not yet stopped; killed and waited for on any exit, so a
   failed run leaves no process behind. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

(* Start [incdbd] in [dir] (so that request [db] paths resolve there),
   with the OCaml runtime asked to print its allocation totals on
   exit. *)
let spawn ~incdbd ~dir tag =
  let err_path = Filename.concat dir (Printf.sprintf "incdbd-%s.err" tag) in
  let sock = Filename.concat dir socket_name in
  (try Sys.remove sock with Sys_error _ -> ());
  let err = Unix.openfile err_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let env =
    Array.append [| "OCAMLRUNPARAM=v=0x400" |]
      (Array.of_list
         (List.filter
            (fun v -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" v))
            (Array.to_list (Unix.environment ()))))
  in
  let cwd = Sys.getcwd () in
  let exe = if Filename.is_relative incdbd then Filename.concat cwd incdbd else incdbd in
  Sys.chdir dir;
  let pid =
    Fun.protect ~finally:(fun () -> Sys.chdir cwd) (fun () ->
        Unix.create_process_env exe [| exe; "--socket"; socket_name |] env null null err)
  in
  Unix.close err;
  Unix.close null;
  live := pid :: !live;
  { pid; err_path; sock }

type conn = { ic : in_channel; oc : out_channel }

let connect s =
  let t0 = now_ns () in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX s.sock) with
    | () -> { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close fd;
      (match Unix.waitpid [ Unix.WNOHANG ] s.pid with
      | 0, _ -> ()
      | _ -> failwith "incdbd exited before accepting connections");
      if secs_since t0 > 30. then failwith "incdbd did not start within 30 s";
      Unix.sleepf 0.0002;
      go ()
  in
  go ()

let roundtrip c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  input_line c.ic

let close c = close_out_noerr c.oc

(* Ask the server to stop, wait for it, and return the words its runtime
   allocated over its whole life. *)
let stop s =
  let c = connect s in
  ignore (roundtrip c "{\"op\":\"shutdown\"}");
  close c;
  ignore (Unix.waitpid [] s.pid);
  live := List.filter (( <> ) s.pid) !live;
  let words =
    List.fold_left
      (fun acc l ->
        match Scanf.sscanf l "allocated_words: %f" Fun.id with
        | w -> w
        | exception _ -> acc)
      nan
      (String.split_on_char '\n' (Inst.read_file s.err_path))
  in
  words

(* Start the server, wait until it answers, and send one warm-up round
   (which fills its result and parse caches).  Returns the live server,
   its warm-up connection and the set-up time in seconds. *)
let setup ~incdbd ~dir ~tag reqs =
  let t0 = now_ns () in
  let s = spawn ~incdbd ~dir tag in
  let c = connect s in
  ignore (roundtrip c "{\"op\":\"ping\"}");
  Array.iter (fun r -> ignore (roundtrip c r.line)) reqs;
  let dt = secs_since t0 in
  close c;
  (s, dt)

let server_counters s =
  let c = connect s in
  let resp = roundtrip c "{\"op\":\"metrics\"}" in
  close c;
  match field "counters" (field "result" (json resp)) with
  | Json.Assoc kv -> List.map (fun (k, v) -> (k, match v with Json.Int i -> i | _ -> 0)) kv
  | _ -> []

(* ------------------------------------------------------------------ *)
(* The closed loop                                                     *)
(* ------------------------------------------------------------------ *)

type loop_result = {
  answers : int;
  failed : int;
  wrong : int;
  seconds : float;
  lat : samples;  (* client round trips, seconds *)
  ends : samples;  (* when each round trip ended, seconds into the run *)
}

(* Two client threads, each on its own connection, each sending the
   whole round in whole rounds until [seconds] have elapsed; the second
   client starts half a round in, so the two are at different points of
   the mix. *)
let closed_loop ?(on_response = fun _ _ -> ()) ~traced s reqs ~seconds =
  let t_start = now_ns () in
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let client k () =
    let c = connect s in
    let n = Array.length reqs in
    let mine = List.init n (fun i -> reqs.((i + (k * n / 2)) mod n)) in
    let lat = samples () and ends = samples () and failed = ref 0 and wrong = ref 0 and rounds = ref 0 in
    while !rounds = 0 || now_ns () < deadline do
      List.iter
        (fun r ->
          if traced then new_answer ();
          let resp, dt =
            timed ~traced ("request " ^ r.kind) (fun () -> roundtrip c r.line)
          in
          push lat dt;
          push ends (float_of_int (now_ns () - t_start) /. 1e9);
          on_response r resp;
          match check r resp with
          | Right -> ()
          | outcome ->
            incr failed;
            if outcome = Wrong then incr wrong;
            prerr_endline ("failed: " ^ r.line ^ " -> " ^ resp))
        mine;
      incr rounds
    done;
    close c;
    (lat, ends, !failed, !wrong)
  in
  let t0 = now_ns () in
  let results = Array.make 2 (samples (), samples (), 0, 0) in
  let threads =
    List.init 2 (fun k -> Thread.create (fun () -> results.(k) <- client k ()) ())
  in
  List.iter Thread.join threads;
  let seconds = secs_since t0 in
  let lat = samples () and ends = samples () in
  Array.iter
    (fun (l, e, _, _) ->
      for i = 0 to l.len - 1 do
        push lat l.data.(i);
        push ends e.data.(i)
      done)
    results;
  { answers = lat.len;
    failed = Array.fold_left (fun a (_, _, f, _) -> a + f) 0 results;
    wrong = Array.fold_left (fun a (_, _, _, w) -> a + w) 0 results;
    seconds; lat; ends }
