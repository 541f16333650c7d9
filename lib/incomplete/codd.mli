(** Completion membership for Codd tables (Lemma B.2).

    Given a Codd table [D] and a set [S] of ground facts, decide in
    polynomial time whether some valuation [v] of [D] has [v(D) = S].
    The test combines a per-fact realizability check with a maximum
    bipartite matching between the facts of [D] and the facts of [S];
    this is the engine behind membership of [#Comp_Cd(q)] in #P
    (Proposition B.1). *)

open Incdb_relational

(** [fact_can_produce db f g] decides whether the incomplete fact [f] has a
    valuation (within the null domains of [db]) yielding exactly the ground
    fact [g]. *)
val fact_can_produce : Idb.t -> Idb.fact -> Cdb.fact -> bool

(** [is_completion db s] decides whether [s] is a completion of [db].
    @raise Invalid_argument when [db] is not a Codd table (the matching
    argument is only sound for Codd tables; see the remark after
    Proposition 5.2 for why naïve tables resist this approach). *)
val is_completion : Idb.t -> Cdb.t -> bool

(** [is_completion_naive db s] decides completion membership for
    arbitrary (naïve) tables by backtracking over nulls with forward
    pruning: a partial assignment is abandoned as soon as some table fact
    can no longer land inside [s].  Exponential in the worst case — the
    remark after Proposition 5.2 explains why no matching-style
    polynomial test is known here — but far faster than full valuation
    enumeration in practice, and exact. *)
val is_completion_naive : Idb.t -> Cdb.t -> bool

(** [is_completion_brute db s] decides the same by enumerating valuations;
    works for naïve tables too but is exponential.  Test oracle. *)
val is_completion_brute : ?limit:int -> Idb.t -> Cdb.t -> bool
