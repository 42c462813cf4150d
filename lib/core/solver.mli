(** The OSTR search procedure (section 3 of the paper).

    Given a fully specified machine [M], find a symmetric partition pair
    [(pi, rho)] with [pi /\ rho] refining state equivalence, minimizing

    + (i) [ceil(log2 |S/pi|) + ceil(log2 |S/rho|)] (total flip-flops of the
      pipeline structure), then
    + (ii) the total number of factor states [|S/pi| + |S/rho|] (fewer
      state transitions to implement, cf. the remark below Table 1), then
    + (iii) the imbalance of the two factors.

    The paper lists balance before factor states; this order reproduces
    its Table 1 (see DESIGN.md, "Cost tie-breaking").

    The search walks a tree whose nodes are subsets of the basis
    [MM = {m(p_{s,t})}]; at each node [pi = join of the subset], the
    candidates [(M(pi), pi)] and [(m(pi), pi)] are examined, and Lemma 1
    prunes the subtree whenever [m(pi) /\ pi] does not refine state
    equivalence.  Non-viability is upward-closed, so a basis element
    whose join fails Lemma 1 at a node is not tried again anywhere in
    that node's subtree.  The unpruned tree has [2^|MM|] nodes - the
    [|V|] column of Table 2. *)

type cost = {
  bits : int;  (** criterion (i): flip-flops of the pipeline realization *)
  imbalance : float;  (** criterion (iii): [max/min - 1] of the factor sizes *)
  factor_states : int;  (** criterion (ii): [|S1| + |S2|] *)
}

(** [compare_cost] orders costs lexicographically by [bits], then
    [factor_states], then [imbalance]; smaller = better. *)
val compare_cost : cost -> cost -> int

type solution = {
  pi : Stc_partition.Partition.t;
      (** left factor: [S1 = S/pi], register R1 *)
  rho : Stc_partition.Partition.t;
      (** right factor: [S2 = S/rho], register R2 *)
  cost : cost;
}

(** [is_trivial machine solution] holds when both factors have as many
    states as the (possibly unreduced) machine itself - i.e. the solution
    is no better than doubling the machine (fig. 3). *)
val is_trivial : Stc_fsm.Machine.t -> solution -> bool

type stats = {
  basis_size : int;  (** [|MM|] after deduplication *)
  search_space : float;  (** [2^basis_size], the [|V|] of Table 2 *)
  investigated : int;
      (** the root, each first arrival at a node (where Lemma 1 is
          tested) and each re-arrival that expands a node below its
          recorded branch index (Table 2, "investigated (ours)") *)
  deduped : int;
      (** arrivals skipped by the transposition table: the node's subset
          joined to a partition already pruned, or already expanded from
          an index at least as low, so its whole subtree was subsumed by
          an earlier one *)
  pruned : int;  (** children cut by Lemma 1 *)
  solutions : int;  (** candidate solutions that passed all checks *)
  memo_hits : int;  (** cache hits of the memoized [m] / [M] operators *)
  elapsed : float;  (** wall-clock seconds (monotonic) *)
  timed_out : bool;
}

type result = { best : solution; stats : stats }

(** [solve ?timeout ?prune ?max_nodes ?jobs machine] runs the depth-first
    search over the Mm-sub-lattice.

    Distinct basis subsets routinely join to the same partition; a
    transposition table keyed on (partition, lowest expansion index)
    expands each (partition, branch) combination at most once, and the
    [m] / [M] operators are memoized per partition, so the [2^|MM|]
    subset tree collapses to the sub-lattice it generates ([deduped]
    counts the skipped arrivals).

    - [timeout] (wall-clock seconds): on expiry the best solution found so
      far is returned with [timed_out = true] (the paper does the same for
      [tbk]).
    - [prune] (default [true]): disable to measure the effect of Lemma 1
      (only feasible for very small machines).
    - [max_nodes]: hard cap on investigated nodes, a safety net for
      experiments.
    - [jobs] (default [1]): number of domains to fan the top-level basis
      branches over.  The returned [best] has the same cost for every
      [jobs] value; with [jobs = 1] the traversal (hence [stats]) is fully
      deterministic, while parallel runs may investigate a few nodes more
      or fewer depending on how branches land on domains (each domain
      dedupes against its own transposition table).
    - [sequential_fallback] (default [true]): degrade [jobs > 1] to the
      sequential fast path when the hardware reports a single
      recommended domain or the basis offers fewer than ~64 top-level
      branches per requested domain — measured configurations where the
      fan-out is slower than sequential search.  The effective fan-out
      is published on the [solver.effective_jobs] gauge.  Pass [false]
      to force the parallel machinery regardless (tests do).

    After the walk, a greedy first-improvement climb from the incumbent
    and from a pool of the best candidates tries class merges, then
    exchanges (split a state out of one side, merge its block on the
    other), each closed by {!Stc_partition.Pair.close_merge}: the
    optimum can lie outside the Mm-lattice.

    The search always returns at least the trivial solution found at the
    tree root, so [best] is total.  Every returned solution is validated:
    symmetric partition pair with intersection refining equivalence. *)
val solve :
  ?timeout:float ->
  ?prune:bool ->
  ?max_nodes:int ->
  ?jobs:int ->
  ?sequential_fallback:bool ->
  Stc_fsm.Machine.t ->
  result

(** [cost_of ~pi ~rho] computes the cost record of a candidate pair. *)
val cost_of :
  pi:Stc_partition.Partition.t -> rho:Stc_partition.Partition.t -> cost

(** [equivalence_partition machine] is the state equivalence of
    [machine] as a partition: the bound [pi /\ rho] must refine. *)
val equivalence_partition : Stc_fsm.Machine.t -> Stc_partition.Partition.t

(** [validate machine solution] re-checks that the solution is a symmetric
    partition pair whose intersection refines state equivalence; returns an
    error message otherwise. *)
val validate : Stc_fsm.Machine.t -> solution -> (unit, string) Stdlib.result
