(** Element-wise reference kernels over raw class maps, retained as the
    executable specification for equivalence property tests and the old
    side of [bench core].

    All functions take class maps as plain [int array]s (ids need not be
    dense) and return canonical class maps (dense ids by first
    occurrence), so results compare with
    [Partition.class_map (Partition.op ...)] by structural equality. *)

(** [canonicalize cls] renumbers ids densely by first occurrence. *)
val canonicalize : int array -> int array

(** [num_classes cls] is the number of distinct ids. *)
val num_classes : int array -> int

(** [meet a b] is the coarsest common refinement, canonical. *)
val meet : int array -> int array -> int array

(** [join a b] is the finest common coarsening (union-find based),
    canonical. *)
val join : int array -> int array -> int array

(** [subseteq a b] is refinement: every [a]-class inside one
    [b]-class. *)
val subseteq : int array -> int array -> bool

(** [hash_class_map n cls] is a plain full-width FNV mix over the class
    map ({!Partition.hash} adds an avalanche finish). *)
val hash_class_map : int -> int array -> int
