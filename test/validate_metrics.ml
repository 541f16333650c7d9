(* Schema check for the observability artifacts written by `idbcount`
   (and bench/main.exe).  Used by the smoke aliases: parses the file
   with Incdb_obs.Json and fails loudly if the schema drifted.

   Metrics mode (schema_version 2):

     validate_metrics.exe FILE [required_counter ...]

   Chrome-trace mode (flight-recorder export from --trace-out):

     validate_metrics.exe --chrome FILE [--min-lanes N] [required_event ...]

   checks the trace_event JSON shape, that at least N distinct domain
   lanes carry real (non-metadata) events, that every lane's B/E spans
   nest with matching names, and that each required event name occurs.
*)

open Incdb_obs

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("validate_metrics: " ^ m); exit 1) fmt

let get what = function Some v -> v | None -> fail "missing %s" what

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let parse path =
  match Json.of_string (read_file path) with
  | Ok j -> j
  | Error msg -> fail "%s does not parse: %s" path msg

(* ------------------------------------------------------------------ *)
(* Metrics export (schema_version 2)                                   *)
(* ------------------------------------------------------------------ *)

let rec check_span names span =
  let name =
    match Json.member "name" span with
    | Some (Json.String s) -> s
    | _ -> fail "span without a name"
  in
  let path =
    match Json.member "path" span with
    | Some (Json.String s) -> s
    | _ -> fail "span %s without a path" name
  in
  let calls = get "calls" (Option.bind (Json.member "calls" span) Json.to_int) in
  let wall = get "wall_ns" (Option.bind (Json.member "wall_ns" span) Json.to_int) in
  if calls < 1 then fail "span %s has calls=%d" path calls;
  if wall < 0 then fail "span %s has negative wall_ns" path;
  let children =
    get "children" (Option.bind (Json.member "children" span) Json.to_list)
  in
  List.fold_left check_span (name :: names) children

(* Every histogram carries count/sum/p50/p90/p99; when the histogram is
   non-empty the percentiles must be finite, non-negative and
   monotone — the schema-v2 guarantee downstream dashboards rely on. *)
let check_histogram name h =
  let count = get "count" (Option.bind (Json.member "count" h) Json.to_int) in
  let pct q =
    get
      (Printf.sprintf "%s.%s" name q)
      (Option.bind (Json.member q h) Json.to_float)
  in
  let p50 = pct "p50" and p90 = pct "p90" and p99 = pct "p99" in
  if count > 0 then begin
    if not (Float.is_finite p50 && Float.is_finite p90 && Float.is_finite p99)
    then fail "histogram %s has non-finite percentiles" name;
    if p50 < 0. then fail "histogram %s has negative p50 %g" name p50;
    if p50 > p90 || p90 > p99 then
      fail "histogram %s percentiles not monotone (p50 %g, p90 %g, p99 %g)"
        name p50 p90 p99
  end

let check_metrics path required_counters =
  let j = parse path in
  let version =
    get "schema_version"
      (Option.bind (Json.member "schema_version" j) Json.to_int)
  in
  if version <> 2 then fail "unexpected schema_version %d" version;
  let spans = get "spans" (Option.bind (Json.member "spans" j) Json.to_list) in
  let names =
    List.sort_uniq String.compare (List.fold_left check_span [] spans)
  in
  if List.length names < 4 then
    fail "only %d distinct span names, expected at least 4 (%s)"
      (List.length names)
      (String.concat ", " names);
  let counters = get "counters" (Json.member "counters" j) in
  let gauges = get "gauges" (Json.member "gauges" j) in
  (* A required name may be either a counter or a gauge (e.g. the
     kernel's comp_kernel.elim_width); both must be non-negative.  A
     "name>=N" requirement additionally demands the value reach N —
     used by smoke rules to assert a code path actually ran rather than
     merely registered its metric — and "name=N" demands exact equality,
     used to assert a path did NOT run (e.g. zero brute-force fallbacks
     in the elimination smoke); for "=0" a metric missing from the
     export also passes, since an untouched counter may simply never
     have been registered in this process. *)
  List.iter
    (fun spec ->
      let c, check =
        match String.index_opt spec '>' with
        | Some i
          when i + 1 < String.length spec && spec.[i + 1] = '=' ->
          let n = String.sub spec (i + 2) (String.length spec - i - 2) in
          (match float_of_string_opt n with
          | Some f -> (String.sub spec 0 i, `At_least f)
          | None -> fail "bad threshold in requirement %S" spec)
        | _ -> (
          match String.index_opt spec '=' with
          | Some i ->
            let n = String.sub spec (i + 1) (String.length spec - i - 1) in
            (match float_of_string_opt n with
            | Some f -> (String.sub spec 0 i, `Exactly f)
            | None -> fail "bad threshold in requirement %S" spec)
          | None -> (spec, `At_least 0.))
      in
      let value =
        match Option.bind (Json.member c counters) Json.to_int with
        | Some n -> Some (float_of_int n)
        | None -> Option.bind (Json.member c gauges) Json.to_float
      in
      match (value, check) with
      | Some v, `At_least floor when v >= floor && Float.is_finite v -> ()
      | Some v, `At_least floor ->
        fail "metric %s is %g, expected at least %g" c v floor
      | Some v, `Exactly want when v = want -> ()
      | Some v, `Exactly want -> fail "metric %s is %g, expected %g" c v want
      | None, `Exactly 0. -> ()
      | None, _ -> fail "metric %s missing from export" c)
    required_counters;
  (match Json.member "histograms" j with
  | Some (Json.Assoc hs) -> List.iter (fun (n, h) -> check_histogram n h) hs
  | Some _ -> fail "histograms is not an object"
  | None -> fail "missing histograms");
  Printf.printf "validate_metrics: %s ok (%d distinct spans)\n" path
    (List.length names)

(* ------------------------------------------------------------------ *)
(* Chrome trace export                                                 *)
(* ------------------------------------------------------------------ *)

let check_chrome path ~min_lanes required_events =
  let j = parse path in
  let events =
    get "traceEvents" (Option.bind (Json.member "traceEvents" j) Json.to_list)
  in
  let str what e =
    match Json.member what e with
    | Some (Json.String s) -> s
    | _ -> fail "event without %s: %s" what (Json.to_string e)
  in
  (* Per-lane stack of open B spans; E must match the innermost name. *)
  let stacks : (int, string list) Hashtbl.t = Hashtbl.create 8 in
  let lanes : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun e ->
      let ph = str "ph" e in
      if ph <> "M" then begin
        let name = str "name" e in
        let tid = get "tid" (Option.bind (Json.member "tid" e) Json.to_int) in
        let ts = get "ts" (Option.bind (Json.member "ts" e) Json.to_float) in
        if ts < 0. then fail "event %s has negative ts %g" name ts;
        Hashtbl.replace lanes tid ();
        Hashtbl.replace seen name ();
        let stack = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
        match ph with
        | "B" -> Hashtbl.replace stacks tid (name :: stack)
        | "E" -> (
          match stack with
          | top :: rest when top = name -> Hashtbl.replace stacks tid rest
          | top :: _ ->
            fail "lane %d: end of %s while %s is open" tid name top
          | [] -> fail "lane %d: end of %s with no open span" tid name)
        | "i" -> ()
        | ph -> fail "unexpected phase %S on %s" ph name
      end)
    events;
  Hashtbl.iter
    (fun tid stack ->
      if stack <> [] then
        fail "lane %d: %d span(s) never ended (%s)" tid (List.length stack)
          (String.concat ", " stack))
    stacks;
  let nlanes = Hashtbl.length lanes in
  if nlanes < min_lanes then
    fail "only %d domain lane(s), expected at least %d" nlanes min_lanes;
  List.iter
    (fun name ->
      if not (Hashtbl.mem seen name) then
        fail "required event %s missing from trace" name)
    required_events;
  Printf.printf "validate_metrics: %s ok (%d lanes, %d events)\n" path nlanes
    (List.length events)

(* ------------------------------------------------------------------ *)
(* incdbd transcript (--serve)                                         *)
(* ------------------------------------------------------------------ *)

(* Validates the NDJSON response stream of an `incdbd --stdio` run:
   every line must be a response object with a boolean ["ok"], and the
   given specs must hold.

     ok=N / ok>=N         successful responses
     err=N / err>=N       error responses
     cached>=N            responses replayed from the warm result cache
     kind:KIND=N / >=N    error responses of the given [error.kind]
     delta:NAME>=N        rise of counter NAME between the first and the
                          last [metrics] responses in the transcript
*)
let check_serve path specs =
  let responses =
    String.split_on_char '\n' (read_file path)
    |> List.filter (fun l -> String.trim l <> "")
    |> List.map (fun line ->
           match Json.of_string line with
           | Ok (Json.Assoc _ as j) -> j
           | Ok _ -> fail "%s: response line is not an object: %s" path line
           | Error msg ->
             fail "%s: response does not parse (%s): %s" path msg line)
  in
  if responses = [] then fail "%s: empty transcript" path;
  let is_ok r =
    match Json.member "ok" r with
    | Some (Json.Bool b) -> b
    | _ -> fail "%s: response without a boolean \"ok\": %s" path (Json.to_string r)
  in
  let oks, errs = List.partition is_ok responses in
  let cached =
    List.filter (fun r -> Json.member "cached" r = Some (Json.Bool true)) oks
  in
  let kind_count k =
    List.length
      (List.filter
         (fun r ->
           Option.bind (Json.member "error" r) (Json.member "kind")
           = Some (Json.String k))
         errs)
  in
  (* Counter snapshots of the [metrics] responses, in transcript order. *)
  let metric_snaps =
    List.filter_map
      (fun r ->
        match Option.bind (Json.member "result" r) (Json.member "counters") with
        | Some (Json.Assoc fields) ->
          Some
            (List.filter_map
               (fun (k, v) ->
                 match v with Json.Int i -> Some (k, i) | _ -> None)
               fields)
        | _ -> None)
      oks
  in
  let delta name =
    match metric_snaps with
    | first :: (_ :: _ as rest) ->
      let last = List.nth rest (List.length rest - 1) in
      let v snap = Option.value ~default:0 (List.assoc_opt name snap) in
      v last - v first
    | _ ->
      fail "%s: delta:%s needs at least two [metrics] responses" path name
  in
  let check_spec spec =
    match String.index_opt spec '=' with
    | None -> fail "bad serve spec %S (no = or >=)" spec
    | Some i ->
      let at_least = i > 0 && spec.[i - 1] = '>' in
      let name = String.sub spec 0 (if at_least then i - 1 else i) in
      let want =
        match int_of_string_opt (String.sub spec (i + 1) (String.length spec - i - 1)) with
        | Some n -> n
        | None -> fail "bad serve spec %S (threshold not an integer)" spec
      in
      let prefixed p =
        if String.starts_with ~prefix:p name then
          Some (String.sub name (String.length p) (String.length name - String.length p))
        else None
      in
      let actual =
        match name with
        | "ok" -> List.length oks
        | "err" -> List.length errs
        | "cached" -> List.length cached
        | _ -> (
          match (prefixed "kind:", prefixed "delta:") with
          | Some k, _ -> kind_count k
          | _, Some c -> delta c
          | None, None -> fail "unknown serve spec %S" spec)
      in
      if at_least then begin
        if actual < want then
          fail "%s: %s is %d, expected at least %d" path name actual want
      end
      else if actual <> want then
        fail "%s: %s is %d, expected exactly %d" path name actual want
  in
  List.iter check_spec specs;
  Printf.printf
    "validate_metrics: %s ok (%d responses: %d ok, %d err, %d cached)\n" path
    (List.length responses) (List.length oks) (List.length errs)
    (List.length cached)

(* ------------------------------------------------------------------ *)
(* Argument handling                                                   *)
(* ------------------------------------------------------------------ *)

let () =
  let argv = Array.to_list Sys.argv in
  match argv with
  | _ :: "--chrome" :: path :: rest ->
    let min_lanes, rest =
      match rest with
      | "--min-lanes" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n -> (n, rest)
        | None -> fail "--min-lanes needs an integer, got %S" n)
      | rest -> (1, rest)
    in
    check_chrome path ~min_lanes rest
  | _ :: "--serve" :: path :: specs -> check_serve path specs
  | _ :: path :: rest ->
    let required_counters =
      if rest <> [] then rest
      else [ "valuations_visited"; "completions_checked" ]
    in
    check_metrics path required_counters
  | _ ->
    fail
      "usage: validate_metrics FILE [counter ...] | validate_metrics --chrome \
       FILE [--min-lanes N] [event ...] | validate_metrics --serve FILE \
       [spec ...]"
