(** Classical FSM decomposition - the baseline the paper distinguishes
    itself from ("this structure is different from structures provided by
    decomposition techniques where the resulting submachines contain
    internal feedback loops" [16, 3, 15]).

    A partition [pi] is {e closed} (has the substitution property) when
    [(s,t) in pi] implies [(delta(s,i), delta(t,i)) in pi] - i.e.
    [(pi, pi)] is a partition pair.  Closed partitions give classical
    decompositions:

    - {b parallel}: two closed partitions with intersection refining
      equivalence yield two independent submachines (each with its own
      feedback loop) running side by side;
    - {b serial}: one closed partition yields a head machine (the
      quotient) feeding state information into a tail machine.

    Both submachines keep internal feedback, so unlike the paper's
    pipeline they still need the fig. 2/3 treatment to become
    self-testable.  This module measures how the classical approach fares
    on the same machines. *)

(** [is_closed ~next pi] tests the substitution property. *)
val is_closed : next:int array array -> Stc_partition.Partition.t -> bool

(** [closed_partitions ~next] enumerates the lattice of closed partitions:
    the join-closure of the basis [m(p_st) ∨ p_st] closures.  Exponential
    in the worst case; meant for benchmark-sized machines. *)
val closed_partitions : next:int array array -> Stc_partition.Partition.t list

(** [closure ~next pi] is the smallest closed partition containing
    [pi]. *)
val closure :
  next:int array array -> Stc_partition.Partition.t -> Stc_partition.Partition.t

type parallel = {
  pi1 : Stc_partition.Partition.t;
  pi2 : Stc_partition.Partition.t;
  bits : int;  (** flip-flops of the two independent submachines *)
}

(** [parallel machine] finds the best {e nontrivial} parallel
    decomposition - both closed partitions with more than one and fewer
    than [|S|] classes, meet refining state equivalence - minimizing
    (bits, total factor states, imbalance); [None] when none exists.
    Closedness is [(pi, pi)] being a pair, where the pipeline needs the
    "shifted" pairs [(pi, rho)] and [(rho, pi)] - the two notions are
    incomparable, which is exactly the paper's point: a counter
    decomposes serially but does not pipeline-factor, and dk27
    pipeline-factors without a nontrivial parallel decomposition. *)
val parallel : Stc_fsm.Machine.t -> parallel option

type serial = {
  head : Stc_partition.Partition.t;
      (** a closed partition: the head machine's states *)
  tail_states : int;  (** max block size: the tail machine's state count *)
  bits : int;  (** head + tail flip-flops *)
}

(** [serial machine] finds the best nontrivial serial decomposition: a
    closed partition with [1 < classes < |S|] minimizing head+tail
    flip-flops, where the tail needs [max block size] states (one per
    state within the current head class); [None] when no nontrivial
    closed partition exists.  Note both submachines keep feedback loops:
    the flip-flop count excludes any self-test hardware, whereas the
    pipeline's count includes it. *)
val serial : Stc_fsm.Machine.t -> serial option
