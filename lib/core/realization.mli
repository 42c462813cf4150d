(** Construction of the self-testable realization [M*] from a symmetric
    partition pair (Theorem 1) and verification that it realizes the
    specification (Definition 3).

    Given [(pi, rho)] with [pi /\ rho] refining state equivalence, the
    realization has states [S1 x S2] with [S1 = S/pi], [S2 = S/rho] and

    {v
    delta*((s1, s2), i) = (delta2(s2, i), delta1(s1, i))
    delta1([s]pi,  i)   = [delta(s, i)]rho
    delta2([s]rho, i)   = [delta(s, i)]pi
    lambda*((s1, s2), i) = lambda(s, i)   for s in s1 /\ s2 (filler if empty)
    v}

    The straightforward implementation is the pipeline structure of fig. 4:
    register R1 holds the [S1] component, R2 the [S2] component,
    combinational block C1 implements [delta1], C2 implements [delta2], and
    there is no direct feedback loop around either block. *)

type t = {
  spec : Stc_fsm.Machine.t;
  pi : Stc_partition.Partition.t;
  rho : Stc_partition.Partition.t;
  delta1 : int array array;  (** [delta1.(s1).(i)] : S2 class fed into R2 *)
  delta2 : int array array;  (** [delta2.(s2).(i)] : S1 class fed into R1 *)
  product : Stc_fsm.Machine.t;
      (** [M*] as a plain machine; state [(s1, s2)] has index
          [s1 * |S2| + s2], reset is [alpha spec.reset] *)
  alpha : int array;  (** the state homomorphism [S -> S1 x S2] *)
  filler_output : int;  (** the arbitrary [o*] used on empty intersections *)
  filled : int;  (** number of (state, input) entries that needed [o*] *)
}

(** [build machine ~pi ~rho] constructs the realization.

    @raise Invalid_argument if [(pi, rho)] is not a symmetric partition
    pair or the intersection does not refine state equivalence (i.e. the
    hypotheses of Theorem 1 fail). *)
val build :
  Stc_fsm.Machine.t ->
  pi:Stc_partition.Partition.t ->
  rho:Stc_partition.Partition.t ->
  t

(** [of_solution machine solution] is [build] on a solver result. *)
val of_solution : Stc_fsm.Machine.t -> Solver.solution -> t

(** [realizes r] checks Definition 3 structurally: with [alpha] as state
    map and identity input/output maps,
    [delta*(alpha s, i) = alpha (delta (s, i))] and
    [lambda*(alpha s, i) = lambda (s, i)] for all [s, i].  [build] already
    guarantees this; exposed as a test oracle. *)
val realizes : t -> bool

(** [num_s1 r], [num_s2 r]: factor sizes [|S1|], [|S2|]. *)
val num_s1 : t -> int

val num_s2 : t -> int

(** [flipflops r] is [ceil(log2 |S1|) + ceil(log2 |S2|)] - column 6 of
    Table 1 ("pipeline structure"). *)
val flipflops : t -> int

(** [spec_transitions r] and [factor_transitions r]: number of state
    transitions the original network C, resp. the combined networks C1 and
    C2, must implement ([|S|*|I|] vs [(|S1| + |S2|)*|I|]); the hardware-
    saving argument below Table 1. *)
val spec_transitions : t -> int

val factor_transitions : t -> int

(** [pp_factors] prints the [delta1]/[delta2] tables in the style of
    fig. 7. *)
val pp_factors : Format.formatter -> t -> unit
