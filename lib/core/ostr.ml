module Partition = Stc_partition.Partition
module Machine = Stc_fsm.Machine

type outcome = {
  machine : Machine.t;
  solution : Solver.solution;
  realization : Realization.t;
  stats : Solver.stats;
}

let run ?timeout ?jobs machine =
  let result = Solver.solve ?timeout ?jobs machine in
  let realization = Realization.of_solution machine result.best in
  { machine; solution = result.best; realization; stats = result.stats }

let nontrivial outcome =
  let n = outcome.machine.Machine.num_states in
  Partition.num_classes outcome.solution.pi < n
  || Partition.num_classes outcome.solution.rho < n

let reaches_lower_bound outcome =
  Realization.num_s1 outcome.realization * Realization.num_s2 outcome.realization
  = outcome.machine.Machine.num_states

let pp_summary ppf outcome =
  let open Format in
  let m = outcome.machine and r = outcome.realization in
  fprintf ppf "@[<v>machine %s: |S| = %d, |I| = %d, |O| = %d@," m.Machine.name
    m.Machine.num_states m.Machine.num_inputs m.Machine.num_outputs;
  fprintf ppf "optimal factors: |S1| = %d, |S2| = %d%s@," (Realization.num_s1 r)
    (Realization.num_s2 r)
    (if nontrivial outcome then "" else "  (trivial: doubling)");
  fprintf ppf "flip-flops: conventional BIST %d, pipeline structure %d@,"
    (Machine.flipflops_conventional m)
    (Realization.flipflops r);
  fprintf ppf "transitions to implement: C %d vs C1+C2 %d@,"
    (Realization.spec_transitions r)
    (Realization.factor_transitions r);
  fprintf ppf
    "search: basis %d, |V| = 2^%d, investigated %d, deduped %d, pruned %d%s@]"
    outcome.stats.Solver.basis_size outcome.stats.Solver.basis_size
    outcome.stats.Solver.investigated outcome.stats.Solver.deduped
    outcome.stats.Solver.pruned
    (if outcome.stats.Solver.timed_out then "  (timeout)" else "")
