(** Anytime stochastic tier over the Mm-lattice.

    The exact OSTR search ({!Solver.solve}) is exponential in the basis
    and the basis itself is quadratic in the state count, which caps the
    exact tier at a few hundred states.  This module scales the frontier
    to 10^3-10^4 states with a budget-triggered stochastic search over
    symmetric partition pairs, in the spirit of evolutionary BIST
    synthesis (Garvie & Husbands; Skobtsov et al., see PAPERS.md):

    + a {e seeded beam search} whose move set is one-step partition
      merges ({!Stc_partition.Partition.merge_classes}) and singleton
      splits ({!Stc_partition.Partition.split_singleton}), each proposal
      closed to the least symmetric pair above it and screened against
      the meet bound inside the closure
      ({!Stc_partition.Pair.close_merge}) — feasibility {e is} the
      fitness gate;
    + a {e simulated-annealing polish} of the incumbent with the same
      move set and a Metropolis acceptance rule over a scalar relaxation
      of the lexicographic cost.

    Every proposal is evaluated under a per-task RNG substream derived
    from the seed by task index ({!Stc_util.Rng.substream}), and results
    are collected into index-addressed slots, so the outcome — best
    solution, statistics, and the XOR fingerprint of all consumed
    streams — is a pure function of [(machine, config)]: bit-identical
    at any [jobs] value and across repeated runs.  Wall-clock budgets
    are a safety cap; all default stopping rules are deterministic
    (round, evaluation and stagnation counters). *)

(** Why the stochastic tier ran. *)
type engage_reason =
  | Forced  (** caller asked for it ([--anytime] / [force]) *)
  | Budget_exhausted  (** exact DFS hit its node/wall budget *)
  | Too_large  (** state count above [exact_max_states]; the basis
                   (quadratic in states) was never built *)

type tier =
  | Exact  (** the exact DFS finished within budget; its result stands *)
  | Stochastic of engage_reason

type config = {
  seed : int;  (** master seed; everything derives from it *)
  beam_width : int;  (** survivors per generation *)
  moves_per_candidate : int;  (** proposals per survivor per round *)
  split_ratio : int;
      (** 1-in-[split_ratio] proposals are singleton splits, the rest
          block merges; [<= 0] disables splits entirely (changing this
          changes the consumed RNG streams, hence the fingerprint) *)
  max_rounds : int;  (** beam generations cap *)
  max_evals : int;  (** total proposal cap (beam + annealing) *)
  patience : int;  (** stop after this many non-improving rounds *)
  sa_chains : int;  (** independent annealing chains (fixed count,
                        independent of [jobs] — determinism) *)
  sa_steps : int;  (** Metropolis steps per chain *)
  exact_max_nodes : int;  (** node budget handed to the exact tier *)
  exact_max_states : int;  (** skip the exact tier above this size *)
  budget : float;  (** wall-clock safety cap, seconds; [infinity] means
                       the deterministic counters are the only stops *)
  jobs : int;  (** domains to fan proposal evaluation over *)
  incremental : bool;
      (** evaluate every proposal, merges and splits alike, with the
          closure engine ({!Stc_partition.Pair.close_merge}: for merges
          union-finds over the parent's classes, rejection at the first
          meet-bound witness, only survivors interned; for splits the
          closed form); [false] forces the
          full-recompute oracle path (materialize, {!Stc_partition.Pair.close},
          then the meet check).  Results are bit-identical either way —
          the switch exists for equivalence gates and benchmarking *)
}

val default_config : config

(** One point of the quality-vs-time frontier: recorded whenever the
    incumbent improves, plus the final state. *)
type frontier_point = {
  round : int;
  evals : int;  (** proposals consumed when the point was recorded *)
  elapsed : float;  (** wall-clock seconds since the search started *)
  cost : Solver.cost;  (** incumbent cost at that moment *)
}

type stats = {
  tier : tier;
  exact : Solver.stats option;
      (** statistics of the exact attempt when one ran *)
  rounds : int;  (** beam generations executed *)
  evals : int;  (** proposals evaluated (beam + annealing) *)
  feasible : int;  (** proposals that passed the admissibility kernel *)
  sa_accepted : int;  (** Metropolis acceptances across all chains *)
  elapsed : float;  (** wall-clock seconds, whole run *)
  timed_out : bool;  (** the wall-clock safety cap fired *)
  rng_fingerprint : int;
      (** XOR of {!Stc_util.Rng.fingerprint} over every consumed task
          stream — equal runs consume equal streams, at any [jobs] *)
  trajectory : frontier_point list;  (** improvements, oldest first *)
}

type result = { best : Solver.solution; stats : stats }

(** [search ?config ?seeds machine] runs the stochastic tier only,
    seeding the beam with [seeds] (feasible solutions, e.g. the exact
    incumbent at hand-off) next to the trivial root pair.  Never raises
    on feasible input; the returned solution is validated. *)
val search :
  ?config:config -> ?seeds:Solver.solution list -> Stc_fsm.Machine.t -> result

(** [solve ?config ?force machine] is the anytime driver: run the exact
    DFS under [exact_max_nodes] / half the wall budget (sequentially, so
    the hand-off seed is reproducible), and fall back to {!search} —
    seeded with the exact incumbent — when the budget fires.  Machines
    above [exact_max_states] skip straight to {!search}, as does
    [~force:true].  Every hand-off bumps the [solver.anytime_engaged]
    counter and emits an [anytime_engaged] trace instant. *)
val solve : ?config:config -> ?force:bool -> Stc_fsm.Machine.t -> result

(** [pp_tier] renders the tier for reports ("exact",
    "stochastic(budget)", ...). *)
val pp_tier : Format.formatter -> tier -> unit
