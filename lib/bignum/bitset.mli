(** Fixed-width bitsets over any number of machine words.

    The masks of [Lineage.Wide]'s clause DNF and [Comp_kernel]'s
    interaction graph: immutable [int array] bitsets whose width is fixed
    at construction, lowest bits in word 0.  Every word holds
    [Sys.int_size - 1] payload bits, so a word is always a nonnegative
    int.  All binary operations require both operands built for the same
    width; bits at or above the width are never set (operations preserve
    this invariant, so structural equality is set equality).  Values are
    immutable except through the explicitly unsafe in-place operations
    at the end, which exist for private scratch (one array mutated along
    a loop instead of one allocation per step). *)

type t

(** The empty set over [width] bits. *)
val zero : width:int -> t

(** All [width] bits set. *)
val full : width:int -> t

(** [set m i] is [m] with bit [i] set (functional). *)
val set : t -> int -> t

(** [test m i] is whether bit [i] is set. *)
val test : t -> int -> bool

val union : t -> t -> t
val inter : t -> t -> t

(** [subset a b]: every bit of [a] is in [b]. *)
val subset : t -> t -> bool

val popcount : t -> int

(** [popcount_inter a b] = [popcount (inter a b)], allocation-free. *)
val popcount_inter : t -> t -> int

(** [iter f m] applies [f] to each set bit in ascending order. *)
val iter : (int -> unit) -> t -> unit

(** A total order: same-width masks compare as the numbers they spell
    (word 0 least significant). *)
val compare : t -> t -> int

(** Number of set bits of one word ([0] for [0]). *)
val popword : int -> int

(** [set_inplace m i] / [clear_inplace m i] mutate [m].  Unsafe in the
    sharing sense: apply only to a mask fresh from {!zero}, {!full},
    {!union} or {!inter} that no reader has seen yet. *)
val set_inplace : t -> int -> unit

val clear_inplace : t -> int -> unit
