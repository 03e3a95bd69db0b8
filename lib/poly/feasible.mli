(** Integer feasibility and point enumeration for basic sets.

    Emptiness is decided by equality elimination with a GCD divisibility
    test, Fourier–Motzkin elimination for the remaining inequalities, and —
    when an elimination step was not integer-exact (where FM's rational
    shadow might overapproximate the integer points) — a bounded exact
    search over the set's constant bounding box.  Dimensions whose
    elimination is exact (a unit equality, or a unit coefficient in every
    lower/upper bound pair) are eliminated first, so tiled loop-nest domains
    and their dependence polyhedra stay in the exact fragment. *)

(** [is_empty s] holds iff [s] contains no integer point. *)
val is_empty : Basic_set.t -> bool

(** How the emptiness tests since process start were decided:
    [fm_decided] by Fourier–Motzkin alone, [enumerated] by falling back to
    the bounded point search.  Counted from every domain. *)
type stats = { fm_decided : int; enumerated : int }

val stats : unit -> stats

(** [sample s] is some integer point of [s] (as an assignment in dimension
    order) or [None] when empty.  The set must be bounded in every
    dimension; unbounded dimensions are searched within a fixed window. *)
val sample : Basic_set.t -> int list option

(** [enumerate ?limit s] lists all integer points of [s] in lexicographic
    order, up to [limit] (default 100_000; raises [Invalid_argument] when
    the limit is exceeded).  Dimensions must be bounded. *)
val enumerate : ?limit:int -> Basic_set.t -> int list list

(** Number of integer points (via {!enumerate}'s strategy but without
    materializing the list). *)
val count : ?limit:int -> Basic_set.t -> int

(** [min_of e s] / [max_of e s] optimize an affine expression over the
    integer points of [s]; [None] when [s] is empty or the expression is
    unbounded in the requested direction. *)
val min_of : Linexpr.t -> Basic_set.t -> int option

val max_of : Linexpr.t -> Basic_set.t -> int option

(** [range_nonempty e s] is [(min_of e s, max_of e s)] for a set the caller
    has already shown non-empty: one projection, no emptiness test. *)
val range_nonempty : Linexpr.t -> Basic_set.t -> int option * int option
