(** The incdbd wire protocol: newline-delimited JSON, one request object
    per line in, one response object per line out.

    A request is an idbcount invocation in object form — the field
    vocabulary is the CLI flag set without the leading dashes and with
    the same defaults ([brute_limit], [val_width_bound],
    [val_max_events], [val_order], [comp_elim], [samples], [seed], …) —
    plus the server-side fields [id] (echoed verbatim in the response),
    [fresh] (bypass the result cache), [caches] (for [reset]) and
    [requests] (the sub-requests of a [batch]).  The database is named
    by [db] (a file path, cached by content stamp) or [db_text] (the
    Idb_parser source inline).

    Responses are [{"id": …, "ok": true, "result": {…}}] or
    [{"id": …, "ok": false, "error": {"kind": …, "message": …}}];
    the [kind] vocabulary is fixed by {!Engine}. *)

open Incdb_core
module Json = Incdb_obs.Json

(** Raised by {!of_json} on a malformed request. *)
exception Bad of string

type problem = Val | Comp
type meth = Karp_luby | Monte_carlo
type source = Path of string | Inline of string

type t = {
  id : Json.t;
  op : string;
  source : source option;
  query : string option;
  fresh : bool;
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
  samples : int option;
  seed : int;
  meth : meth;
  exact_check : bool;
  caches : bool;
  subs : Json.t list;
}

(** The accepted values of the [op] field. *)
val ops : string list

(** @raise Bad on a non-object, an unknown [op], or an ill-typed field. *)
val of_json : Json.t -> t

(** Parse one request line; never raises. *)
val of_line : string -> (t, string) result

(** Canonical parameter string of a request given its database's content
    key — the server's result-cache key.  [id], [fresh] and [jobs] are
    excluded (results are bit-identical at every job count). *)
val cache_key : t -> db_key:string -> string

(** [ok ~id result] / [err ~id ~kind msg] build response objects;
    [cached] marks a result served from the warm result cache (the
    [result] payload itself is byte-identical either way). *)
val ok : id:Json.t -> ?cached:bool -> Json.t -> Json.t

val err :
  id:Json.t -> kind:string -> ?data:(string * Json.t) list -> string -> Json.t

(** One-line serialization (no embedded newlines). *)
val to_line : Json.t -> string
