(** Covers: sets of multi-output cubes, with the classical two-level
    operations (tautology, containment, complement) implemented by
    unate/binate Shannon recursion as in Espresso.

    Covers are array-backed.  The per-cube queries ({!covers_cube},
    {!sharp_supercube}) first restrict the cover to the queried cube.
    When the cube leaves at most 10 input variables free, the query is
    decided on a truth table over those variables (a {!Chunk} table): at
    most 1 024 points, one span per meeting cube
    ([minimize.dense_queries] in {!Stc_obs.Metrics}).  The minimizer and
    its cover checker ask them only on passes too small, or covers too
    wide, for their point-count tables (see {!Minimize}).  Wider cubes
    ([minimize.wide_queries]), {!sharp_cube} and {!complement} run the
    recursion on packed row arrays, sorted and deduplicated at every
    cofactor, without memo tables ([minimize.tautology_calls] counts its
    tautology calls).  Every operation is a pure function of cover
    content, so results and counters do not depend on which domain
    computes them. *)

type t = private {
  num_vars : int;
  num_outputs : int;
  cubes : Cube.t array;
}

(** [make ~num_vars ~num_outputs cubes] validates dimensions.
    @raise Invalid_argument on mismatched cube sizes. *)
val make : num_vars:int -> num_outputs:int -> Cube.t list -> t

(** [of_array ~num_vars ~num_outputs cubes] is {!make} on an array the
    cover takes ownership of. *)
val of_array : num_vars:int -> num_outputs:int -> Cube.t array -> t

val empty : num_vars:int -> num_outputs:int -> t

(** [of_strings ~num_vars ~num_outputs rows] builds a cover from PLA-style
    rows like ["1-0 10"]. *)
val of_strings : num_vars:int -> num_outputs:int -> string list -> t

val size : t -> int

(** [cost c] is [(cubes, literals)] where literals counts fixed input
    positions plus asserted outputs - the usual PLA area proxy. *)
val cost : t -> int * int

(** [eval c v] evaluates the cover on input minterm [v], one boolean per
    output. *)
val eval : t -> int -> bool array

(** [add c cube] prepends a cube. *)
val add : t -> Cube.t -> t

(** [union a b] concatenates two covers of equal dimensions. *)
val union : t -> t -> t

(** [tautology c] holds when every input minterm is covered for every
    output.  Unate reduction + binate-variable Shannon recursion with a
    unate-leaf shortcut (a unate cover is a tautology iff it contains the
    universal cube). *)
val tautology : t -> bool

(** [covers_cube ?keep c cube] tests whether [c] covers all minterms of
    [cube] for all of [cube]'s outputs.  [keep] (default: every cube)
    restricts [c] to the cubes whose index it accepts, so "the rest of
    the cover" needs no new cover per query. *)
val covers_cube : ?keep:(int -> bool) -> t -> Cube.t -> bool

(** [equivalent a b] is semantic equality (mutual cover containment). *)
val equivalent : t -> t -> bool

(** [complement ?jobs c] computes, output by output, the complement of
    the function represented by [c]; the result asserts output [o]
    exactly on the minterms where [c] does not.  [jobs] (default 1) fans
    the per-output complements over that many domains; the result is
    identical for every [jobs] value. *)
val complement : ?jobs:int -> t -> t

(** [sharp_cube ?keep cube c] is the set difference [cube \ c] as a
    cover: the parts of [cube] (per output of [cube]) not covered by
    [c].  [keep] filters the cubes of [c] by index, as in
    {!covers_cube}. *)
val sharp_cube : ?keep:(int -> bool) -> Cube.t -> t -> t

(** [sharp_supercube ?keep cube c] is the supercube of
    [sharp_cube ?keep cube c] - the smallest cube holding every point
    of [cube] (per output of [cube]) that [c] leaves uncovered - or
    [None] when [c] covers all of [cube].  This is REDUCE's query. *)
val sharp_supercube : ?keep:(int -> bool) -> Cube.t -> t -> Cube.t option

(** [single_cube_containment c] drops every cube contained in another
    single cube of [c] (cheap redundancy removal).  The result is
    canonical: cubes are ordered most-general-first (fewest input
    literals, then most outputs), and of two equal cubes exactly one
    survives, so EXPAND results do not depend on input order. *)
val single_cube_containment : t -> t

(** [minterms c] expands the cover into one cube per covered
    (minterm, output-set); exponential, for tests on small covers. *)
val minterms : t -> t

(** [clear_caches ()] drops the calling domain's truth-table leaf
    scratch (the buffers {!covers_cube} and {!sharp_supercube} reuse
    between queries), so the next query starts as on a fresh domain.
    For benchmarks that want cold starts. *)
val clear_caches : unit -> unit

val pp : Format.formatter -> t -> unit

val to_string : t -> string
