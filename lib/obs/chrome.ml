(* Chrome trace_event exporter for the {!Events} flight recorder.

   Emits the JSON object form of the trace-event format — the subset
   understood by both Perfetto (ui.perfetto.dev) and chrome://tracing:

     { "traceEvents": [
         { "name": "process_name", "ph": "M", "pid": 1, "args": {...} },
         { "name": "thread_name",  "ph": "M", "pid": 1, "tid": 0, ... },
         { "name": "pool.chunk", "cat": "incdb", "ph": "B", "ts": 12.3,
           "pid": 1, "tid": 4, "args": { "lo": 0, "hi": 16 } },
         { ... "ph": "E" ... },
         { ... "ph": "i", "s": "t" ... } ],
       "displayTimeUnit": "ms" }

   One lane (tid) per OCaml domain, named "domain N"; timestamps are
   microseconds relative to the earliest recorded event, so traces from
   different runs line up at zero. *)

let phase_string = function
  | Events.Begin -> "B"
  | Events.End -> "E"
  | Events.Instant -> "i"

let arg_to_json = function
  | Events.Int i -> Json.Int i
  | Events.Str s -> Json.String s

let event_to_json ~base ~tid (e : Events.event) =
  let fields =
    [
      ("name", Json.String e.Events.name);
      ("cat", Json.String "incdb");
      ("ph", Json.String (phase_string e.Events.phase));
      ("ts", Json.Float (float_of_int (e.Events.ts - base) /. 1e3));
      ("pid", Json.Int 1);
      ("tid", Json.Int tid);
    ]
  in
  let fields =
    match e.Events.phase with
    | Events.Instant -> fields @ [ ("s", Json.String "t") ] (* thread scope *)
    | Events.Begin | Events.End -> fields
  in
  let fields =
    match e.Events.args () with
    | [] -> fields
    | args ->
      fields
      @ [ ("args", Json.Assoc (List.map (fun (k, v) -> (k, arg_to_json v)) args)) ]
  in
  Json.Assoc fields

let metadata ~tid name value =
  Json.Assoc
    ([
       ("name", Json.String name);
       ("ph", Json.String "M");
       ("pid", Json.Int 1);
     ]
    @ (match tid with None -> [] | Some t -> [ ("tid", Json.Int t) ])
    @ [ ("args", Json.Assoc [ ("name", Json.String value) ]) ])

let to_json () =
  let lanes = Events.snapshot () in
  let base =
    List.fold_left
      (fun acc (_, evs) ->
        List.fold_left (fun a (e : Events.event) -> min a e.Events.ts) acc evs)
      max_int lanes
  in
  let base = if base = max_int then 0 else base in
  let meta =
    metadata ~tid:None "process_name" "idbcount"
    :: List.map
         (fun (dom, _) ->
           metadata ~tid:(Some dom) "thread_name"
             (Printf.sprintf "domain %d" dom))
         lanes
  in
  let events =
    List.concat_map
      (fun (dom, evs) -> List.map (event_to_json ~base ~tid:dom) evs)
      lanes
  in
  Json.Assoc
    [
      ("traceEvents", Json.List (meta @ events));
      ("displayTimeUnit", Json.String "ms");
    ]

let write_file path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string ~indent:2 (to_json ()));
      output_char oc '\n')
