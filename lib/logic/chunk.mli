(** Truth tables of point sets in 32-point chunks: the layout shared by
    the minimizer's per-cube queries ({!Cover.covers_cube},
    {!Cover.sharp_supercube}) and EXPAND's off-set bitmaps
    ({!Minimize}).

    A table ranges over [n] variables, listed in a [vars] array: the
    [j]-th variable [vars.(j)] selects, for [j < 5], the bits of
    [pattern j] inside a chunk (its points where the variable is 1), and
    for [j >= 5], bit [j - 5] of the chunk index.  A table of
    [n] variables takes [count n] chunks of [ones n] (fewer than 32
    points when [n < 5]). *)

(** [pattern j], for [j < 5], is the points of a chunk where the [j]-th
    variable is 1. *)
val pattern : int -> int

(** [count n] is the number of chunks of an [n]-variable table. *)
val count : int -> int

(** [ones n] is a chunk holding every point of an [n]-variable table. *)
val ones : int -> int

(** The points of one input row inside a table: [low] in every chunk
    [x] with [x land hmask = hval], nothing in the others. *)
type span = { mutable low : int; mutable hmask : int; mutable hval : int }

val span : unit -> span

(** [set_span s ~vars n row] makes [s] the span of the packed input row
    [row] (see {!Cube.Raw}) in the table over [vars.(0 .. n-1)].  Only
    the row's literals on those variables count. *)
val set_span : span -> vars:int array -> int -> int array -> unit

(** [meets s tbl ~base n] holds when chunk [base + x] of [tbl], for
    some chunk [x] of the span [s] of an [n]-variable table, shares a
    point with it.  It reads only the span's chunks. *)
val meets : span -> int array -> base:int -> int -> bool

(** [add s tbl ~base n] ORs the span [s] of an [n]-variable table into
    the table's chunks at [tbl.(base ..)]. *)
val add : span -> int array -> base:int -> int -> unit
