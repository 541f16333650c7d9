(** Sharded brute-force counting: the [Brute] oracles with the valuation
    space partitioned across domains.

    The shards are the values of the {e first} null in [Idb.nulls] order,
    each iterated with {!Idb.iter_valuations_prefix}; together the shards
    visit exactly the sequential enumeration stream, partitioned, so

    - [#Val] is the sum of per-shard counts,
    - [#Comp] merges per-shard completion sets with set union (the same
      completion can arise in several shards),

    and every result is bit-identical to the corresponding [Brute]
    function.  [jobs] defaults to [1], which delegates to [Brute]
    directly — the exact sequential code path; [jobs = 0] means
    [Pool.recommended ()].

    The enumeration limit is enforced on the {e whole} valuation space
    before any shard runs, exactly like the sequential oracles:
    @raise Idb.Too_many_valuations if the total exceeds [limit]. *)

open Incdb_bignum
open Incdb_relational
open Incdb_cq
open Incdb_incomplete

(** The [limit] every engine uses when none is given: [4_000_000]. *)
val default_limit : int

(** [#Val(q)(db)], sharded. *)
val count_valuations : ?limit:int -> ?jobs:int -> Query.t -> Idb.t -> Nat.t

(** [#Comp(q)(db)], sharded with set-union merge. *)
val count_completions : ?limit:int -> ?jobs:int -> Query.t -> Idb.t -> Nat.t

(** All distinct completions (sorted, as [Brute.completions]). *)
val completions : ?limit:int -> ?jobs:int -> Idb.t -> Cdb.t list

(** Number of distinct completions, satisfying a query or not. *)
val count_all_completions : ?limit:int -> ?jobs:int -> Idb.t -> Nat.t
