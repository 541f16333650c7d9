(* Shared machinery of the runner: clock, sample statistics, the
   benchmark's own span recorder, metric output and corpus reading. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* Linear interpolation between closest ranks. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else begin
    let r = p *. float_of_int (n - 1) in
    let lo = truncate r in
    let hi = min (n - 1) (lo + 1) in
    sorted.(lo) +. ((r -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))
  end

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  percentile a 0.5

(* A growable float buffer for latency samples. *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 1024 0.; len = 0 }

let push s x =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0. in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let sorted s =
  let a = Array.sub s.data 0 s.len in
  Array.sort compare a;
  a

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* High-water resident set of a process, from /proc/<pid>/status. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        let rec go () =
          match input_line ic with
          | exception End_of_file -> nan
          | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.)
          | _ -> go ()
        in
        go ())

(* ------------------------------------------------------------------ *)
(* Spans recorded around the calls into each layer (traced runs only). *)
(* ------------------------------------------------------------------ *)

type span = {
  sid : int;
  parent : int;  (* 0: none *)
  answer : int;  (* spans of one answer share this id; 0: set-up *)
  name : string;
  start_ns : int;
  end_ns : int;
}

let spans : span list ref = ref []
let span_seq = ref 0
let span_lock = Mutex.create ()

(* Innermost open span and current answer, per client thread. *)
let open_span : (int, int * int) Hashtbl.t = Hashtbl.create 4

let context () =
  Option.value ~default:(0, 0) (Hashtbl.find_opt open_span (Thread.id (Thread.self ())))

(* Start a new answer on the calling thread: the spans it records next
   share one fresh answer id. *)
let new_answer () =
  Mutex.protect span_lock (fun () ->
      incr span_seq;
      Hashtbl.replace open_span (Thread.id (Thread.self ())) (0, !span_seq))

(* Time [f] under a span named [name]; returns the result and the
   duration in seconds.  The span is recorded only when [traced]. *)
let timed ~traced name f =
  if not traced then begin
    let t0 = now_ns () in
    let r = f () in
    (r, float_of_int (now_ns () - t0) /. 1e9)
  end
  else begin
    let me = Thread.id (Thread.self ()) in
    let sid, (parent, answer) =
      Mutex.protect span_lock (fun () ->
          incr span_seq;
          let ctx = context () in
          Hashtbl.replace open_span me (!span_seq, snd ctx);
          (!span_seq, ctx))
    in
    let t0 = now_ns () in
    let finish () =
      let t1 = now_ns () in
      Mutex.protect span_lock (fun () ->
          Hashtbl.replace open_span me (parent, answer);
          spans := { sid; parent; answer; name; start_ns = t0; end_ns = t1 } :: !spans);
      float_of_int (t1 - t0) /. 1e9
    in
    match f () with
    | r -> (r, finish ())
    | exception e ->
      ignore (finish ());
      raise e
  end

let write_spans path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"answer\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d}\n"
            s.sid s.parent s.answer s.name s.start_ns s.end_ns)
        (List.rev !spans))

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { mname : string; value : float; unit_ : string }

let metric mname unit_ value = { mname; value; unit_ }

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.10g" v
  else "0"

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.mname (number m.value)
              m.unit_)
          metrics))

(* ------------------------------------------------------------------ *)
(* Reading the generated corpus                                        *)
(* ------------------------------------------------------------------ *)

let tsv path =
  Inst.read_file path
  |> String.split_on_char '\n'
  |> List.filter (( <> ) "")
  |> List.map (String.split_on_char '\t')
