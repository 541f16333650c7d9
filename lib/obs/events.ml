(* Flight recorder: per-domain timelines of individual events.

   Where {!Trace} aggregates span totals into a call tree, this module
   records *each* span begin/end and instant event with its timestamp
   (the same monotonic clock) and small key/value args, so a run can be
   replayed as a timeline — one lane per domain — in Perfetto or
   chrome://tracing via {!Chrome}.

   Each domain writes into its own fixed-capacity ring buffer, taken
   lazily into domain-local storage on the first event, so recording is
   lock-free: no atomics beyond the {!Runtime.enabled} gate, no
   contention between pool workers.  The global registry of rings (read
   by [snapshot], written when a domain takes or returns a ring) is the
   only mutex, and it is never taken on the recording path after a
   domain's first event.  A spawned domain that exits returns its ring
   to a free list and the next spawned domain to record takes it over,
   events and all: the registry holds one ring per domain live at once,
   not one per domain ever spawned, and a lane of the timeline is a
   ring, which short-lived pool workers share one after another.  The
   main domain never takes a recycled ring, so its events keep a lane of
   their own.  On overflow the ring overwrites its oldest entry — newest
   events are kept, because the end of a run is where a post-mortem
   looks first — and every overwrite increments the exact
   [obs.events_dropped] counter (also available, reset-proof within a
   generation, as [dropped ()]).

   An event's args are a thunk the exporters call: a probe passes a
   closure over the values it reports, which a full ring retains at a
   few words per event, where a list of boxed key/value pairs costs
   eight words per arg.  The closure must capture values, not mutable
   state or large structures.

   When observability is disabled every probe is one atomic load and a
   branch, like the rest of Incdb_obs. *)

type arg = Int of int | Str of string
type phase = Begin | End | Instant

type event = {
  ts : int; (* monotonic nanoseconds, Runtime.now_ns *)
  name : string;
  phase : phase;
  args : unit -> (string * arg) list;
}

let no_args () = []
let dummy = { ts = 0; name = ""; phase = Instant; args = no_args }

type ring = {
  rdom : int; (* owning domain id: the timeline lane *)
  rgen : int; (* generation at creation; stale rings are dead *)
  buf : event array;
  mutable wrote : int; (* total events ever written to this ring *)
}

let dropped_counter = Metrics.counter "obs.events_dropped"

(* Bumped by [reset]: domain-local rings from before a reset identify
   themselves as stale and are re-created on the next event, so a reset
   never needs to reach into other domains' storage. *)
let generation = Atomic.make 0

let registry_lock = Mutex.create ()
let rings : ring list ref = ref []

(* Rings of the current generation whose domain has exited: still in
   [rings] (their events stay exportable), waiting for a new owner. *)
let free : ring list ref = ref []

let default_capacity = 65_536
let capacity = ref default_capacity

(* Applies to rings created afterwards; call [reset] to retire the
   current ones.  Tiny capacities are allowed (tests exercise the
   overflow policy with single-digit rings). *)
let set_capacity n =
  if n < 1 then invalid_arg "Events.set_capacity: capacity must be positive";
  capacity := n

let () =
  match Sys.getenv_opt "INCDB_EVENTS_CAP" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> capacity := n
    | _ -> ())
  | None -> ()

let ring_key : ring option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(* Runs when the owning domain exits.  A ring from before a reset is
   simply dropped. *)
let release cell =
  match !cell with
  | None -> ()
  | Some r ->
    cell := None;
    Mutex.protect registry_lock (fun () ->
        if r.rgen = Atomic.get generation then free := r :: !free)

let my_ring () =
  let cell = Domain.DLS.get ring_key in
  let gen = Atomic.get generation in
  match !cell with
  | Some r when r.rgen = gen -> r
  | prev ->
    (* The main domain always opens a ring of its own, so its events never
       land in the lane of a worker whose ring it took over; spawned
       domains reuse the rings of exited ones. *)
    let main = Domain.is_main_domain () in
    let r =
      Mutex.protect registry_lock (fun () ->
          match !free with
          | r :: rest when (not main) && r.rgen = gen ->
            free := rest;
            r
          | _ ->
            let r =
              {
                rdom = (Domain.self () :> int);
                rgen = gen;
                buf = Array.make !capacity dummy;
                wrote = 0;
              }
            in
            rings := r :: !rings;
            r)
    in
    if Option.is_none prev && not main then
      Domain.at_exit (fun () -> release cell);
    cell := Some r;
    r

let emit phase ?(args = no_args) name =
  if Runtime.enabled () then begin
    let r = my_ring () in
    let cap = Array.length r.buf in
    if r.wrote >= cap then Metrics.incr dropped_counter;
    r.buf.(r.wrote mod cap) <- { ts = Runtime.now_ns (); name; phase; args };
    r.wrote <- r.wrote + 1
  end

let instant ?args name = emit Instant ?args name

let with_span ?args name f =
  if not (Runtime.enabled ()) then f ()
  else begin
    emit Begin ?args name;
    Fun.protect ~finally:(fun () -> emit End name) f
  end

(* ------------------------------------------------------------------ *)
(* Reading the recorder                                                *)
(* ------------------------------------------------------------------ *)

let live_rings () =
  let gen = Atomic.get generation in
  Mutex.protect registry_lock (fun () ->
      List.filter (fun r -> r.rgen = gen) !rings)

(* Exact number of events lost to ring overflow since the last reset:
   each overwrite dropped exactly one event, so per ring it is
   [wrote - capacity] clamped at zero. *)
let dropped () =
  List.fold_left
    (fun acc r -> acc + max 0 (r.wrote - Array.length r.buf))
    0 (live_rings ())

(* One (domain id, events oldest-kept-first) lane per ring, labelled
   with the id of the domain that first took the ring, sorted by that
   id.  Reading a ring another domain is still writing is a
   benign race (slots are whole records, replaced atomically by the
   write barrier-free store); in practice exports run after the pool
   has joined its workers. *)
let snapshot () =
  live_rings ()
  |> List.map (fun r ->
         let cap = Array.length r.buf in
         let n = min r.wrote cap in
         let start = r.wrote - n in
         (r.rdom, List.init n (fun i -> r.buf.((start + i) mod cap))))
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Retire every ring.  Safe while spans are open on any domain: open
   [with_span]s still emit their End into a *fresh* ring of the new
   generation, which at worst leaves one unmatched End at the head of a
   lane — the registry itself never corrupts. *)
let reset () =
  Atomic.incr generation;
  Mutex.protect registry_lock (fun () ->
      rings := [];
      free := [])
