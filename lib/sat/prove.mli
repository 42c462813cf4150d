(** SAT-backed untestable-fault proofs.

    A fault class is untestable (redundant) when no input assignment
    makes any observed gate differ between the good and the faulty
    circuit; excluding it from the coverage denominator is the honest
    correction to the fig-5 numbers.  Two stages settle every collapsed
    class:

    - {b simulation}: the bit-parallel {!Stc_faultsim.Engine} grades all
      classes against seeded random patterns, one fixed-size round after
      another, until a round detects nothing new or the rounds have
      drawn 2{^inputs} patterns.  A detected class has a concrete test,
      so it is testable;
    - {b exhaustive}, when the netlist has at most
      {!Stc_faultsim.Exhaustive.max_points} input points: every class
      left is graded by the same engine on every point, streamed in
      slices of words, until none is left.  A class no point detects
      has no test: it is untestable, without a SAT call;
    - {b SAT}, on wider netlists: every class left gets a fresh solver
      holding only the good circuit's fanin of the observed gates in
      the fault's output cone plus the faulty copy of that cone, and
      one clause forcing some of those observed gates to differ.  UNSAT
      is a {e proof} that no test pattern exists.

    Either way a class whose cone holds no observed gate is counted
    [unobservable].

    Instrumentation: counter [sat.redundant.sim_detected] (classes the
    simulation stages settled), spans [sat.redundant.simulate] and
    [sat.redundant.exhaustive] or [sat.redundant.prove] inside
    [sat.redundant], and one [verify.dense_obligations] or
    [verify.sat_obligations] per call; the solves charge the [sat.*]
    solver counters. *)

type netlist := Stc_netlist.Netlist.t

type verdict = {
  total_faults : int;  (** raw fault universe, [Netlist.fault_sites] *)
  total_classes : int;  (** collapsed classes *)
  redundant : Stc_netlist.Netlist.fault list;
      (** untestable raw faults, in [fault_sites] order *)
  redundant_classes : int;
  unobservable_classes : int;
      (** untestable classes whose fault cone holds no observed gate *)
}

(** [redundant ?jobs ?observed net] proves every collapsed fault class
    testable or untestable.  [observed] is the set of gate indices ever
    observed (default: the declared primary outputs); it is both the
    collapse protection set and the miter's output set.  [jobs] domains
    share both stages; scratch state is per domain and every verdict is
    exact, so the result is independent of [jobs]. *)
val redundant : ?jobs:int -> ?observed:int array -> netlist -> verdict
