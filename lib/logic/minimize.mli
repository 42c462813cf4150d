(** Espresso-style heuristic two-level minimization: EXPAND against the
    off-set, IRREDUNDANT, REDUCE, iterated until the cost stops improving.

    This is the "logic minimization" step of the conventional synthesis
    flow (fig. 1) and of the pipeline blocks C1/C2 (fig. 4); the area
    comparison of section 4 is made on the minimized covers.

    The hot loop is bit-parallel.  EXPAND tries columns in ascending
    blocker count, read off a literal histogram of the off-set summed
    once per distinct output part, and reads the off-set, built once per
    [minimize] call, in one of two forms that give the same cubes.  When
    its [num_outputs * 2^num_vars] points are few next to the off-cubes
    times the cubes to raise (at most 4 times as many, or at most 2^12),
    and at most 2^24, it is one bitmap per output over all input points,
    in the 32-point chunks of {!Chunk}: a raise is kept iff the half it
    adds to the cube misses the bitmaps of the cube's outputs.
    Otherwise each cube gets a blocking matrix (one word-AND per
    off-cube asserting one of the cube's outputs).
    Cubes that REDUCE leaves unchanged are prime and skip EXPAND.
    IRREDUNDANT splits cubes into relatively-essential and
    partially-redundant classes before the sequential greedy drop, and
    the optional [jobs] argument fans the per-cube work of EXPAND and
    the classification pass of IRREDUNDANT (plus the per-output off-set
    complements) over that many OCaml domains.  Results are identical
    for every [jobs] value.  IRREDUNDANT and REDUCE decide a pass on one
    point-count table when it pays: for each output and input point, how
    many alive cubes of [cover + dc] cover it, in 16-bit counts.  A cube
    is covered by the others iff all its counts are at least 2; REDUCE
    shrinks it to the supercube of its count-1 points; a dropped or
    shrunk cube updates its counts.  The table pays when its
    [num_outputs * 2^num_vars] points plus the cubes' own points are at
    most [8 * n * (n + dc)] for [n] cubes and [dc] don't-care cubes (the
    measured margin over the per-query scan), with at most 21 variables
    and 2^21 points; [minimize] refills one table's bytes in every
    pass.  Otherwise each query ({!Cover.covers_cube},
    {!Cover.sharp_supercube}) scans [cover + dc] and decides on a truth
    table of the cube's free variables when it has at most 10 of them;
    only wider cubes, and the off-set complement, run the Shannon
    recursion.  Progress is observable through the [minimize.*]
    counters of {!Stc_obs.Metrics} (expand raises attempted/accepted,
    cubes raised on the bitmaps and on the matrices
    ([minimize.dense_expands], [minimize.wide_expands]), queries on the
    tables ([minimize.count_queries]), dense and wide per-cube queries,
    tautology calls, and each pass's cube and literal gain summed over a
    [minimize] call: [minimize.expand_cube_gain],
    [minimize.reduce_literal_gain], ...) and the [logic] trace spans.
    Every counter is a pure function of the covers, so it reads the
    same for every [jobs] value. *)

type report = {
  initial_cubes : int;
  initial_literals : int;
  final_cubes : int;
  final_literals : int;
  iterations : int;
}

(** [minimize ?jobs ?dc on] minimizes the on-set [on] using the optional
    don't-care set [dc].  The result covers every care on-set minterm
    (don't-cares take precedence on overlap), covers nothing outside
    on+dc, and is irredundant. *)
val minimize : ?jobs:int -> ?dc:Cover.t -> Cover.t -> Cover.t * report

(** [reference ?budget ?dc on] is the original list-based minimizer
    retained in {!Naive}, with the same result contract as {!minimize}
    (the covers are semantically equivalent, not cube-identical).
    Benchmarks and the equivalence suite cross-check against it.
    [budget] caps the wall-clock seconds; exceeding it raises
    {!Naive.Timeout}. *)
val reference : ?budget:float -> ?dc:Cover.t -> Cover.t -> Cover.t * report

(** [expand ?jobs ~off cover] raises each cube to a prime cube: columns
    and outputs are lifted, cheapest first, as long as the cube stays
    disjoint from the off-set [off]; then single-cube containment cleans
    up.  A cube that already meets an off-cube of one of its outputs
    comes back unchanged, with no raise attempted. *)
val expand : ?jobs:int -> off:Cover.t -> Cover.t -> Cover.t

(** [irredundant ?jobs ?dc cover] removes cubes covered by the rest of
    the cover (plus [dc]): relatively essential cubes are kept, the
    partially redundant rest is dropped greedily, most specific
    first. *)
val irredundant : ?jobs:int -> ?dc:Cover.t -> Cover.t -> Cover.t

(** [reduce ?dc cover] shrinks each cube to the supercube of the parts only
    it covers, enabling the next expansion to escape local minima.  Cubes
    that become empty are dropped. *)
val reduce : ?dc:Cover.t -> Cover.t -> Cover.t

(** [off_set ?jobs ?dc on] is the complement of [on + dc]. *)
val off_set : ?jobs:int -> ?dc:Cover.t -> Cover.t -> Cover.t

(** [verify ~on ?dc result] checks the minimization contract:
    [(on \ dc) <= result <= on + dc]. *)
val verify : on:Cover.t -> ?dc:Cover.t -> Cover.t -> bool
