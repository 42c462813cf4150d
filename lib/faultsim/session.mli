(** Self-test session simulation and single-stuck-at fault grading.

    A session applies a deterministic stimulus stream to a combinational
    netlist (the registers are part of the test equipment model: LFSRs
    generate, MISRs compress - see {!Arch}) and observes a set of nets.  A
    fault is detected when any observed net differs from the fault-free
    value in any cycle.

    Grading runs on the optimized {!Engine} by default - structurally
    collapsed fault classes, cone-limited incremental evaluation, and
    optional fault-parallel domains - and is detect-for-detect identical
    to the naive full-evaluation grader, which is kept behind [~naive]
    as the reference for equivalence tests and benchmarks.

    Two deliberate modelling simplifications, both conservative:
    - compression aliasing is ignored (streams are compared directly, as
      if the MISR were ideal);
    - register contents are replayed from the fault-free run, so fault
      effects that would detour through a compressing register are not
      credited with extra detections. *)

type stimuli = int array array
(** [stimuli.(cycle).(k)] is the 0/1 value of netlist input [k]. *)

type report = {
  label : string;
  total : int;  (** raw faults graded (before collapsing) *)
  detected : int;
  coverage : float;  (** detected / total *)
  undetected : Stc_netlist.Netlist.fault list;
}

(** [run ~label netlist ~stimuli ~observed] grades every fault site of the
    netlist against the stimulus stream, observing the gates in
    [observed].  Patterns are packed {!Stc_netlist.Netlist.word_bits} per
    simulation word and faults are dropped at first detection.

    [jobs] (default 1) shards the collapsed fault list over that many
    domains.  [naive] (default false) switches to the reference
    full-evaluation grader.  [need_cycles] asks for exact first-detection
    cycles (feeding the [faultsim.detect_cycle.*] histograms) at the cost
    of the dominance shortcut and early-exit scans; it defaults to
    [Stc_obs.Metrics.enabled ()] so instrumented runs stay exact. *)
val run :
  ?jobs:int ->
  ?naive:bool ->
  ?need_cycles:bool ->
  label:string ->
  Stc_netlist.Netlist.t ->
  stimuli:stimuli ->
  observed:int array ->
  report

(** [run_sessions ~label netlist sessions] grades the same fault universe
    against several sessions (e.g. the two sessions of fig. 4); a fault
    counts as detected when any session detects it.  Options as in
    {!run}. *)
val run_sessions :
  ?jobs:int ->
  ?naive:bool ->
  ?need_cycles:bool ->
  label:string ->
  Stc_netlist.Netlist.t ->
  (stimuli * int array) list ->
  report

(** [run_each netlist sessions] is [List.map] of {!run} over the
    labelled sessions, each graded on its own against the whole fault
    universe, but on one shared engine: one collapse, protecting the
    gates any session observes ({!union_observed}), and one set of
    cones.  The reports equal those of separate {!run} calls, because
    protecting more gates only makes the fault classes finer.  Options
    as in {!run}, without the naive grader. *)
val run_each :
  ?jobs:int ->
  ?need_cycles:bool ->
  Stc_netlist.Netlist.t ->
  (string * (stimuli * int array)) list ->
  report list

(** [merge ~label reports] combines the reports of sessions graded
    separately on one netlist: a fault stays undetected only if every
    session left it undetected, the rest count as detected, and [total]
    is the first report's.  It equals {!run_sessions} on the same
    sessions, because each {!run} protects its own observed gates from
    collapsing, so per-fault verdicts are exact.  The undetected list
    keeps the first report's order.
    @raise Invalid_argument on an empty list. *)
val merge : label:string -> report list -> report

(** [union_observed sessions] is the sorted, duplicate-free union of the
    gates any session observes: the protection set of a combined grading
    run, and the observed set of an untestable-fault proof that must
    count a fault testable if any session could see it. *)
val union_observed : ('a * int array) list -> int array

(** [pack stimuli] transposes a cycle-major 0/1 matrix into word-parallel
    batches: one [int array] of input words per group of
    {!Stc_netlist.Netlist.word_bits} cycles.  Thin wrapper over
    {!Engine.pack}. *)
val pack : stimuli -> int array list

(** [adjusted report ~redundant] excludes proven-untestable faults from
    the coverage denominator: every fault of [redundant] still sitting
    in the undetected list is dropped from both the list and [total],
    and [coverage] is recomputed as detected over the testable universe
    - the honest correction the SAT prover
    ({!Stc_sat.Prove.redundant}) enables.  Faults not present in the
    undetected list (already detected, or from another netlist) are
    ignored, so the adjustment can never inflate the numerator. *)
val adjusted : report -> redundant:Stc_netlist.Netlist.fault list -> report

(** [fault_on fault tags] finds the tag naming the fault's gate, if any;
    used to classify undetected faults (e.g. "feedback"). *)
val fault_on :
  Stc_netlist.Netlist.fault -> (string * int list) list -> string option
