(** Partition pairs for a transition function (Definition 4 of the paper)
    and the [m] / [M] operators of Hartmanis-Stearns algebraic structure
    theory.

    Throughout, [next] is a state-major transition table:
    [next.(s).(i)] is [delta(s, i)], with [Array.length next] states and
    [Array.length next.(0)] input symbols - exactly the [next] field of
    [Stc_fsm.Machine.t].

    [(pi, rho)] is a partition pair when [s ~pi t] implies
    [delta(s,i) ~rho delta(t,i)] for every input [i]; it is symmetric when
    [(rho, pi)] is a pair as well.  [m next pi] is the minimal [rho] making
    [(pi, rho)] a pair and [big_m next rho] the maximal [pi]; they form a
    Galois connection:
    [is_pair next pi rho <-> subseteq (m next pi) rho <-> subseteq pi (big_m next rho)]. *)

(** [is_pair ~next pi rho] tests the defining condition of Definition 4. *)
val is_pair : next:int array array -> Partition.t -> Partition.t -> bool

(** [is_symmetric_pair ~next pi rho] tests that both [(pi, rho)] and
    [(rho, pi)] are partition pairs. *)
val is_symmetric_pair : next:int array array -> Partition.t -> Partition.t -> bool

(** [m ~next pi] is the minimal [rho] with [(pi, rho)] a partition pair:
    the partition generated by merging [{delta(s,i) | s in B}] for every
    block [B] of [pi] and every input [i]. *)
val m : next:int array array -> Partition.t -> Partition.t

(** [big_m ~next rho] is the maximal [pi] with [(pi, rho)] a partition
    pair: states are grouped by the vector of [rho]-classes of their
    successors. *)
val big_m : next:int array array -> Partition.t -> Partition.t

(** [big_m_coarse ~next ~rho bm] is [big_m ~next rho] derived from
    [bm = big_m ~next base] for any [base] refining [rho]: since [bm]
    only ever merges whole blocks when [rho] coarsens, grouping the
    [num_classes bm] block representatives by successor signature is
    enough - O(classes * inputs) instead of O(states * inputs). *)
val big_m_coarse :
  next:int array array -> rho:Partition.t -> Partition.t -> Partition.t

(** [basis ~next] is the set [MM = { m(p_{s,t}) | s < t }] of the paper's
    search procedure, deduplicated, in a deterministic order (sorted by
    {!Partition.compare}).  Every m-side of an Mm-pair is a join of basis
    elements ([16], cited in the proof of Theorem 2). *)
val basis : next:int array array -> Partition.t list

(** Memoized [m] / [M] operators.

    Both operators are pure functions of their partition argument (for a
    fixed [next]), and the OSTR search evaluates them at the same
    partitions over and over: every arrival at a lattice node needs
    [m pi] and [M pi], and the polish / hill-climb phases revisit the
    neighbourhood of the optimum.  A [Memo.t] caches results in hash
    tables keyed by the (hash-consed, so O(1)) partitions.

    A memo instance is not thread-safe; create one per domain. *)
module Memo : sig
  type t

  (** [create ~next] makes an empty cache for one transition table. *)
  val create : next:int array array -> t

  (** [m memo pi] is [m ~next pi], cached. *)
  val m : t -> Partition.t -> Partition.t

  (** [big_m memo rho] is [big_m ~next rho], cached. *)
  val big_m : t -> Partition.t -> Partition.t

  (** [big_m_from memo ~base rho] is [big_m ~next rho], cached; on a miss
      the result is derived from the memoized [big_m base] via
      {!Pair.big_m_coarse}.  [base] must refine [rho]. *)
  val big_m_from : t -> base:Partition.t -> Partition.t -> Partition.t

  (** Cache statistics, for benchmark trajectories. *)
  val hits : t -> int

  val misses : t -> int
end

(** One-step moves of the anytime tier on a closed symmetric pair. *)
type move =
  | Merge of { on_pi : bool; c : int; d : int }
      (** merge blocks [c] and [d] of the [pi] ([on_pi]) or [rho] side *)
  | Split of { on_pi : bool; s : int }
      (** take state [s] out of its block on the chosen side; the other
          side restarts from its extremal seed ([m pi'] for a [pi]-split,
          [big_m rho'] on the [pi] side for a [rho]-split) *)

(** What {!close_merge} found for one move. *)
type outcome = {
  closed : (Partition.t * Partition.t) option;
      (** the closed pair, or [None] when it fails the meet bound *)
  dirty : int;
      (** union events the merge worklist propagated, up to the fixpoint
          or the rejecting witness; [0] for a split, which has no
          worklist *)
  collapsed : bool;
      (** a split whose closure pulled [s] back into its block: the
          split side came back unchanged *)
}

(** [close_merge memo ~equiv ~pi ~rho move] is the closure engine of the
    anytime tier.  Its [closed] is [Some (pi', rho')], the least
    symmetric pair above the moved pair (equal, and within a domain
    physically equal, to the from-scratch {!close} of the same seed),
    when [pi' /\ rho'] refines [equiv], and [None] otherwise.

    A merge runs a union-find per side over the parent's class ids; a
    worklist of merged groups replays each group's pair constraint
    (O(inputs) finds per union event).  Every union is also a witness
    test: two states that already share a group on the other side but
    lie in different [equiv] classes stay together in every coarsening,
    so the proposal is rejected at once.  A proposal that reaches the
    fixpoint gets the complete bucketed meet check
    ({!Partition.meet_subseteq_maps}); only then are the two partitions
    materialized and interned.  The forests, worklist and root maps are
    per-domain scratch.

    A split is closed in closed form, in O(states * inputs): a
    [pi]-split of [s] closes to [(pi', m pi')] when [(m pi', pi')] is a
    pair and to [(pi, m pi)] otherwise; a [rho]-split to
    [(big_m rho', rho')] when [(rho', big_m rho')] is a pair and to
    [(big_m rho' \/ m rho, rho)] otherwise.  [m pi], [m rho] and
    [big_m rho] come from [memo], [big_m rho'] is derived from
    [big_m rho].

    Precondition: [is_symmetric_pair ~next pi rho]; on an unclosed
    parent the result is unspecified (a merge silently under-closes). *)
val close_merge :
  Memo.t ->
  equiv:Partition.t ->
  pi:Partition.t ->
  rho:Partition.t ->
  move ->
  outcome

(** [admissible ~next ~equiv pi rho] is the OSTR feasibility test
    (Theorem 1): [(pi, rho)] is a symmetric partition pair and
    [pi /\ rho] refines the state equivalence [equiv]. *)
val admissible :
  next:int array array -> equiv:Partition.t -> Partition.t -> Partition.t -> bool

(** [close memo pi rho] is the least symmetric partition pair above the
    seed [(pi, rho)]: the fixpoint of alternately joining [rho] with
    [m pi] and [pi] with [m rho], the [m] images taken from [memo].  The
    from-scratch closure that {!close_merge} is pinned equal to. *)
val close : Memo.t -> Partition.t -> Partition.t -> Partition.t * Partition.t

(** [polish ?from memo ~equiv pi rho] coarsens an admissible symmetric
    pair with the [M] operator while it stays {!admissible}: first
    [pi <- M rho], then [rho <- M pi], until neither move is accepted.
    Each move keeps a symmetric pair symmetric, so only the meet bound
    is tested; each accepted one never adds classes.

    Without [from] the [M] images come from {!Memo.big_m}.  With
    [~from:(parent_pi, parent_rho)] - a closed pair that [(pi, rho)]
    coarsens side by side, as after {!close_merge} - they come from
    {!Memo.big_m_from} with the parent's side as base; the result is the
    same partitions either way. *)
val polish :
  ?from:Partition.t * Partition.t ->
  Memo.t ->
  equiv:Partition.t ->
  Partition.t ->
  Partition.t ->
  Partition.t * Partition.t
