(** Partitions (equivalence relations) on the finite set [{0..n-1}].

    The paper manipulates equivalence relations as subsets of [S x S]
    ordered by inclusion; this module represents them as canonical class
    maps.  Inclusion of relations corresponds to refinement of partitions:
    [subseteq p q] holds when every block of [p] lies inside a block of
    [q], i.e. [p] (as a relation) is a subset of [q].  Intersection of
    relations is {!meet}; the transitive closure of a union is {!join}.

    Values are canonical (classes numbered 0,1,... by first occurrence),
    so structural equality coincides with semantic equality and values can
    be used as keys.

    Values are additionally {e hash-consed}: every constructor interns its
    result in a domain-local weak table, so within a domain semantically
    equal partitions are physically equal ([==]), {!equal} is a pointer
    check in the common case, and {!hash} returns a cached integer.  This
    makes partitions O(1) keys for the solver's memo tables.  Values built
    in different domains may be physically distinct; {!equal} and
    {!compare} fall back to a (hash-guarded) structural check, so all
    observable semantics are domain-independent. *)

type t

(** [size p] is [n], the number of underlying elements. *)
val size : t -> int

(** [num_classes p] is the number of blocks. *)
val num_classes : t -> int

(** [class_of p s] is the dense class index of element [s]. *)
val class_of : t -> int -> int

(** [same p s t] tests whether [s] and [t] lie in the same block. *)
val same : t -> int -> int -> bool

(** [identity n] is the finest partition (all singletons) - the relation
    written [=] in the paper. *)
val identity : int -> t

(** [universal n] is the coarsest partition (one block). *)
val universal : int -> t

(** [is_identity p], [is_universal p]. *)
val is_identity : t -> bool

val is_universal : t -> bool

(** [of_class_map cls] builds a partition from an arbitrary class map
    (values need not be dense; they are canonicalized). *)
val of_class_map : int array -> t

(** [class_map p] returns a copy of the canonical class map. *)
val class_map : t -> int array

(** [of_blocks ~n blocks] builds a partition from explicit blocks;
    elements not mentioned become singletons.
    @raise Invalid_argument if blocks overlap or indices are out of
    range. *)
val of_blocks : n:int -> int list list -> t

(** [blocks p] lists the blocks, each sorted, ordered by smallest
    element. *)
val blocks : t -> int list list

(** [pair_relation ~n s t] is the basis relation [p_{s,t}] of the paper:
    identity except that [s] and [t] are identified. *)
val pair_relation : n:int -> int -> int -> t

(** [merge_classes p c d] coarsens [p] by one step: blocks [c] and [d]
    (class ids in [\[0, num_classes p)]) become one block.  Equivalent to
    [join p (pair_relation s t)] for representatives [s], [t] of the two
    blocks, but via direct class-map surgery — the move kernel of the
    stochastic search.  [merge_classes p c c = p]. *)
val merge_classes : t -> int -> int -> t

(** [split_singleton p s] refines [p] by one step: element [s] leaves its
    block and becomes a singleton.  Returns [p] itself when [s] already is
    one.  The downward move kernel of the stochastic search. *)
val split_singleton : t -> int -> t

(** [class_size p c] is the number of members of block [c], counted in
    one pass over the class map. *)
val class_size : t -> int -> int

(** [coarsen_with p f] merges the blocks of [p] along the idempotent class
    map [f] ([f (f c) = f c], all values in [\[0, num_classes p)]): blocks
    [c] and [d] end up together iff [f c = f d].  This is the
    materialization step of the incremental closure engine
    ({!Pair.close_merge}): one pass numbers the groups, one pass renames
    the elements, and [coarsen_with p Fun.id == p].
    Equivalent to (but much cheaper than) joining [p] with the
    corresponding representative pair relations. *)
val coarsen_with : t -> (int -> int) -> t

(** [meet p q] is the coarsest common refinement - the intersection of the
    relations. *)
val meet : t -> t -> t

(** [join p q] is the finest common coarsening - the transitive closure of
    the union of the relations. *)
val join : t -> t -> t

(** [join_all ~n ps] folds {!join} over a list, starting from
    [identity n]. *)
val join_all : n:int -> t list -> t

(** [subseteq p q] is relation inclusion ([p] refines [q]).  Decided in
    one pass over the class maps that checks every element against the
    first member of its [p]-block, stopping at the first witness. *)
val subseteq : t -> t -> bool

(** [meet_subseteq p q r] is [subseteq (meet p q) r] without
    materializing (or interning) the meet - the solver's admissibility
    and Lemma-1 viability tests in one O(n) pass. *)
val meet_subseteq : t -> t -> t -> bool

(** [meet_subseteq_maps a ~na b ~nb r] is {!meet_subseteq} for two raw
    id maps instead of partitions: elements [s] and [t] of the meet lie
    together iff [a.(s) = a.(t)] and [b.(s) = b.(t)].  The maps need not
    be canonical or dense, but must cover [0 .. size r - 1] with ids in
    [\[0, na)] and [\[0, nb)].  A key space [na * nb] of at most
    [max 1024 (4 n)] is checked through one epoch of a stamped table
    indexed by the id pair; beyond it, elements are counting-sorted by
    [a] and each bucket is checked against one epoch of a stamped table
    indexed by [b]: O(n + na) time, no hashing, no allocation in the
    steady state.  This is the kernel behind {!meet_subseteq},
    {!join_meet_subseteq} and the final check of {!Pair.close_merge} on
    its union-find roots. *)
val meet_subseteq_maps : int array -> na:int -> int array -> nb:int -> t -> bool

(** [join_meet_subseteq a b p r] is [subseteq (meet (join a b) p) r]
    with neither the join nor the meet materialized (or interned): a
    union-find over [a]'s class ids along [b]'s non-singleton blocks
    gives each element its [join a b] block, and that root map goes to
    {!meet_subseteq_maps}.  The exact solver's Lemma-1 test on a child
    [pi \/ b_j], whose m-image is [m pi \/ m b_j]. *)
val join_meet_subseteq : t -> t -> t -> t -> bool

(** [equal p q] is semantic (= structural) equality; thanks to interning
    it is usually decided by a pointer comparison. *)
val equal : t -> t -> bool

(** [compare] is a total order compatible with [equal] (for use in
    sets/maps). *)
val compare : t -> t -> int

(** [hash p] is compatible with [equal].  The hash is computed once at
    interning time over the full class map and cached, so this is O(1). *)
val hash : t -> int

(** [representatives p] maps each class to its smallest member, in one
    O(n) pass over the class map. *)
val representatives : t -> int array

(** [members p c] lists the elements of class [c], sorted. *)
val members : t -> int -> int list

(** [iter_coarse_members p f] calls [f rep s] for every element [s] that
    is not the smallest member [rep] of its block, in ascending order of
    [s] (not block by block), in one pass over the class map.  The
    workhorse of the [m]-operator, [join] and the partition-pair checks,
    which only look at non-representatives.  [f] may call any function
    of this module, [iter_coarse_members] included. *)
val iter_coarse_members : t -> (int -> int -> unit) -> unit

(** [pp] prints blocks as [{0,3}{1,2}]. *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string
