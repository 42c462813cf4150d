module Machine = Stc_fsm.Machine
module Zoo = Stc_fsm.Zoo
module Generate = Stc_fsm.Generate
module Equiv = Stc_fsm.Equiv
module Partition = Stc_partition.Partition
module Pair = Stc_partition.Pair
module Solver = Stc_core.Solver
module Realization = Stc_core.Realization
module Ostr = Stc_core.Ostr
module Rng = Stc_util.Rng
module Suite = Stc_benchmarks.Suite

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let qcheck = QCheck_alcotest.to_alcotest

let factor_sizes (sol : Solver.solution) =
  let a = Partition.num_classes sol.pi and b = Partition.num_classes sol.rho in
  (min a b, max a b)

(* ------------------------------------------------------------------ *)
(* Solver on machines with known optima                                *)
(* ------------------------------------------------------------------ *)

let test_solver_fig5 () =
  let m = Zoo.paper_fig5 () in
  let r = Solver.solve m in
  check_bool "valid" true (Result.is_ok (Solver.validate m r.best));
  let a, b = factor_sizes r.best in
  check_int "|S1|" 2 a;
  check_int "|S2|" 2 b;
  check_int "2 flip-flops" 2 r.best.cost.bits;
  (* The optimum is exactly the pair of fig. 6 (in either orientation). *)
  let pi_paper = Partition.of_blocks ~n:4 [ [ 0; 1 ]; [ 2; 3 ] ] in
  let rho_paper = Partition.of_blocks ~n:4 [ [ 0; 3 ]; [ 1; 2 ] ] in
  let matches =
    (Partition.equal r.best.pi pi_paper && Partition.equal r.best.rho rho_paper)
    || (Partition.equal r.best.pi rho_paper && Partition.equal r.best.rho pi_paper)
  in
  check_bool "matches fig. 6 pair" true matches

let test_solver_shiftreg () =
  let m = Zoo.shift_register ~bits:3 in
  let r = Solver.solve m in
  let a, b = factor_sizes r.best in
  check_int "|S1|" 2 a;
  check_int "|S2|" 4 b;
  check_int "3 flip-flops" 3 r.best.cost.bits

let test_solver_shiftreg_4bit () =
  (* A 4-bit shift register decomposes into (4, 4): pi by even taps, rho by
     odd taps. *)
  let m = Zoo.shift_register ~bits:4 in
  let r = Solver.solve m in
  let a, b = factor_sizes r.best in
  check_int "|S1|" 4 a;
  check_int "|S2|" 4 b;
  check_int "4 flip-flops" 4 r.best.cost.bits

let test_solver_counter_trivial () =
  let m = Zoo.counter ~modulus:8 in
  let r = Solver.solve m in
  check_bool "trivial" true (Solver.is_trivial m r.best)

let test_solver_toggle_trivial () =
  let m = Zoo.toggle () in
  let r = Solver.solve m in
  check_bool "trivial" true (Solver.is_trivial m r.best);
  check_int "2 flip-flops" 2 r.best.cost.bits

let test_solver_stats_accounting () =
  let m = Zoo.shift_register ~bits:3 in
  let r = Solver.solve m in
  check_bool "basis recorded" true (r.stats.basis_size > 0);
  check_bool "investigated >= 1" true (r.stats.investigated >= 1);
  check_bool "search space = 2^basis" true
    (r.stats.search_space = Float.pow 2.0 (float_of_int r.stats.basis_size));
  check_bool "not timed out" false r.stats.timed_out;
  check_bool "solutions found" true (r.stats.solutions >= 1)

let test_solver_pruning_soundness =
  (* Pruning must never change the reported optimum. *)
  QCheck.Test.make ~count:40 ~name:"pruned = unpruned optimum"
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int rng 4 in
      let m =
        Generate.random ~rng ~name:"p" ~num_states:n ~num_inputs:2
          ~num_outputs:2 ~ensure_reduced:false ()
      in
      let pruned = Solver.solve m in
      let unpruned = Solver.solve ~prune:false m in
      Solver.compare_cost pruned.best.cost unpruned.best.cost = 0
      && pruned.stats.investigated <= unpruned.stats.investigated)

(* The brute-force oracle: enumerates all partition pairs over every
   partition of the state set (Bell(n)^2 pairs) and returns the optimum.
   The enumeration streams, so memory stays flat; run time makes about 9
   states the practical ceiling. *)
let solve_exhaustive (machine : Machine.t) =
  let next = machine.next in
  let equiv = Solver.equivalence_partition machine in
  let all = Stc_partition.Enumerate.partitions machine.num_states in
  let best = ref None in
  Seq.iter
    (fun pi ->
      Seq.iter
        (fun rho ->
          if Pair.admissible ~next ~equiv pi rho then begin
            let cost = Solver.cost_of ~pi ~rho in
            let sol = { Solver.pi; rho; cost } in
            match !best with
            | None -> best := Some sol
            | Some b ->
              if Solver.compare_cost cost b.Solver.cost < 0 then best := Some sol
          end)
        all)
    all;
  match !best with
  | Some sol -> sol
  | None -> assert false (* (identity, identity) is always admissible *)

(* The DFS can, in rare ties, return a pair with the same flip-flop count
   and the same total factor states but slightly worse balance; bits and
   factor_states must always match. *)
let matches_exhaustive seed =
  let rng = Rng.create seed in
  let n = 2 + Rng.int rng 4 in
  let m =
    Generate.random ~rng ~name:"x" ~num_states:n ~num_inputs:2 ~num_outputs:2
      ~ensure_reduced:false ()
  in
  let dfs = Solver.solve m in
  let oracle = solve_exhaustive m in
  dfs.best.cost.bits = oracle.cost.bits
  && dfs.best.cost.factor_states = oracle.cost.factor_states

let test_solver_matches_exhaustive =
  QCheck.Test.make ~count:60 ~name:"solver matches exhaustive optimum"
    QCheck.(int_bound 100000)
    matches_exhaustive

(* The first three seeds need the climb's exchange moves; the last four
   reach the optimum only by climbing from a pool entry, not from the
   incumbent. *)
let test_solver_exhaustive_pins () =
  List.iter
    (fun seed ->
      check_bool (Printf.sprintf "seed %d" seed) true (matches_exhaustive seed))
    [ 1581; 2265; 2680; 29311; 52056; 80189; 96616 ]

let test_solver_solutions_always_valid =
  QCheck.Test.make ~count:60 ~name:"solver output is always a valid solution"
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int rng 8 in
      let m =
        Generate.random ~rng ~name:"v" ~num_states:n ~num_inputs:4
          ~num_outputs:3 ~ensure_reduced:false ()
      in
      let r = Solver.solve m in
      Result.is_ok (Solver.validate m r.best))

let test_solver_planted_recovered =
  QCheck.Test.make ~count:25 ~name:"planted factors are recovered or beaten"
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let info =
        Generate.block_product ~rng ~name:"pl"
          ~blocks:[ (2, 2); (1, 2); (1, 1) ]
          ~num_inputs:8 ~num_outputs:8 ()
      in
      let m = info.Generate.machine in
      let planted_pi = Partition.of_class_map info.Generate.pi_classes in
      let planted_rho = Partition.of_class_map info.Generate.rho_classes in
      let planted_cost = Solver.cost_of ~pi:planted_pi ~rho:planted_rho in
      let r = Solver.solve m in
      Solver.compare_cost r.best.cost planted_cost <= 0)

let test_solver_timeout_returns_best () =
  let rng = Rng.create 123 in
  let info =
    Generate.block_product ~rng ~name:"big"
      ~blocks:(List.init 8 (fun _ -> (2, 2)))
      ~num_inputs:8 ~num_outputs:8 ()
  in
  let r = Solver.solve ~timeout:0.0 info.Generate.machine in
  check_bool "timed out" true r.stats.timed_out;
  check_bool "still returns a valid solution" true
    (Result.is_ok (Solver.validate info.Generate.machine r.best))

let test_solver_max_nodes () =
  let m = Zoo.counter ~modulus:8 in
  let r = Solver.solve ~max_nodes:5 m in
  check_bool "capped" true (r.stats.investigated <= 5)

let test_solver_parallel_matches_sequential () =
  (* Fanning the search over domains must not change the reported optimum
     (cost-identical, valid), on the whole benchmark suite plus the zoo
     machines with known structure. *)
  let machines =
    List.map
      (fun spec -> Stc_benchmarks.Suite.machine spec)
      Stc_benchmarks.Suite.all
    @ [
        Zoo.paper_fig5 ();
        Zoo.shift_register ~bits:3;
        Zoo.shift_register ~bits:4;
        Zoo.serial_adder ();
        Zoo.counter ~modulus:8;
        Zoo.toggle ();
        Zoo.parity ();
      ]
  in
  List.iter
    (fun m ->
      let seq = Solver.solve ~jobs:1 m in
      (* [sequential_fallback:false] keeps the domain fan-out under test
         even on single-core hardware, where the default would (by
         design) degrade jobs=4 to the sequential path. *)
      let par = Solver.solve ~jobs:4 ~sequential_fallback:false m in
      check_int
        (m.Machine.name ^ ": parallel bits = sequential bits")
        seq.best.cost.bits par.best.cost.bits;
      check_bool
        (m.Machine.name ^ ": costs compare equal")
        true
        (Solver.compare_cost seq.best.cost par.best.cost = 0);
      check_bool
        (m.Machine.name ^ ": parallel solution valid")
        true
        (Result.is_ok (Solver.validate m par.best)))
    machines

let test_solver_deterministic_stats () =
  (* With jobs = 1 the traversal order is fixed, so repeated runs agree on
     every counter, not just the optimum. *)
  List.iter
    (fun m ->
      let a = Solver.solve ~jobs:1 m and b = Solver.solve ~jobs:1 m in
      check_int (m.Machine.name ^ ": investigated") a.stats.investigated
        b.stats.investigated;
      check_int (m.Machine.name ^ ": deduped") a.stats.deduped b.stats.deduped;
      check_int (m.Machine.name ^ ": pruned") a.stats.pruned b.stats.pruned;
      check_int (m.Machine.name ^ ": solutions") a.stats.solutions
        b.stats.solutions;
      check_int (m.Machine.name ^ ": memo hits") a.stats.memo_hits
        b.stats.memo_hits;
      check_bool
        (m.Machine.name ^ ": same optimum")
        true
        (Partition.equal a.best.pi b.best.pi
        && Partition.equal a.best.rho b.best.rho))
    [ Zoo.paper_fig5 (); Zoo.shift_register ~bits:4; Zoo.serial_adder () ]

let test_solver_dedupe_accounting () =
  (* The shift register's basis joins collide heavily, so the transposition
     table must report skipped arrivals; every skipped arrival is a node
     the seed search would have expanded. *)
  let m = Zoo.shift_register ~bits:4 in
  let r = Solver.solve m in
  check_bool "deduped > 0" true (r.stats.deduped > 0);
  check_bool "memoized operators hit" true (r.stats.memo_hits > 0);
  (* Each distinct (partition, branch) pair is expanded at most once, so
     the investigated count is bounded by the unpruned lattice walk. *)
  check_bool "investigated bounded" true
    (float_of_int r.stats.investigated <= r.stats.search_space)

(* The solver tests Lemma 1 before it builds M(pi) or records anything:
   a node whose m(pi) /\ pi does not refine equivalence must admit
   neither candidate.  Nodes are drawn from the DFS's own lattice (joins
   of basis elements) and from arbitrary partitions. *)
let test_solver_nonviable_admits_nothing =
  QCheck.Test.make ~count:200 ~name:"non-viable pi admits neither candidate"
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int rng 7 in
      let m =
        Generate.random ~rng ~name:"v" ~num_states:n
          ~num_inputs:(1 lsl Rng.int rng 3) ~num_outputs:2 ~ensure_reduced:false
          ()
      in
      let next = m.Machine.next in
      let equiv = Solver.equivalence_partition m in
      let basis = Array.of_list (Pair.basis ~next) in
      let lattice_node () =
        Array.fold_left
          (fun acc b -> if Rng.int rng 3 = 0 then Partition.join acc b else acc)
          (Partition.identity n) basis
      in
      let arbitrary () =
        Partition.of_class_map (Array.init n (fun _ -> Rng.int rng n))
      in
      List.for_all
        (fun pi ->
          let m_pi = Pair.m ~next pi in
          Partition.meet_subseteq m_pi pi equiv
          || not
               (Pair.admissible ~next ~equiv (Pair.big_m ~next pi) pi
               || Pair.admissible ~next ~equiv m_pi pi))
        (List.init 8 (fun i ->
             if i < 4 then lattice_node () else arbitrary ())))

(* The solver's dead-index rule: once pi \/ b_j fails Lemma 1, no node
   above pi that adds b_j is tested again.  That is sound only because
   non-viability is upward-closed along joins (m is monotone).  Nodes are
   drawn from the DFS's own lattice. *)
let test_solver_nonviability_upward_closed =
  QCheck.Test.make ~count:200
    ~name:"non-viability is upward-closed along the lattice"
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int rng 7 in
      let m =
        Generate.random ~rng ~name:"u" ~num_states:n
          ~num_inputs:(1 lsl Rng.int rng 3) ~num_outputs:2 ~ensure_reduced:false
          ()
      in
      let next = m.Machine.next in
      let equiv = Solver.equivalence_partition m in
      let basis = Array.of_list (Pair.basis ~next) in
      let nb = Array.length basis in
      let viable pi = Partition.meet_subseteq (Pair.m ~next pi) pi equiv in
      nb = 0
      || List.for_all
           (fun _ ->
             let pi =
               Array.fold_left
                 (fun acc b ->
                   if Rng.int rng 4 = 0 then Partition.join acc b else acc)
                 (Partition.identity n) basis
             in
             let j = Rng.int rng nb and k = Rng.int rng nb in
             let pi_j = Partition.join pi basis.(j) in
             viable pi_j
             || not (viable (Partition.join (Partition.join pi basis.(k)) basis.(j))))
           (List.init 8 Fun.id))

(* The jobs-1 traversal is deterministic, so its work figures are pinned:
   evaluation order inside a node may change, the walk may not.  The node
   cap stops a walk that grows one node past the pinned count, so a
   search that lost its pruning fails here instead of running on.  The
   printed pair is pinned too: a change to the walk's work figures must
   leave the answer byte-identical. *)
let test_solver_pinned_counters () =
  List.iter
    (fun (name, investigated, deduped, pruned, solutions, bits, pi, rho) ->
      let m =
        match Suite.find name with
        | Some spec -> Suite.machine spec
        | None -> Option.get (Generate.of_spec name)
      in
      let r = Solver.solve ~jobs:1 ~max_nodes:(investigated + 1) m in
      check_bool (name ^ ": walk completes") false r.stats.timed_out;
      check_int (name ^ ": investigated") investigated r.stats.investigated;
      check_int (name ^ ": deduped") deduped r.stats.deduped;
      check_int (name ^ ": pruned") pruned r.stats.pruned;
      check_int (name ^ ": solutions") solutions r.stats.solutions;
      check_int (name ^ ": bits") bits r.best.cost.bits;
      check_string (name ^ ": pi") pi (Partition.to_string r.best.pi);
      check_string (name ^ ": rho") rho (Partition.to_string r.best.rho))
    [
      ( "dk16", 5_020, 442, 4_287, 13, 10,
        "{0}{1}{2}{3,15}{4}{5}{6}{7}{8}{9}{10}{11,12}{13}{14}{16}{17}{18,24}\
         {19}{20}{21}{22}{23}{25}{26}",
        "{0}{1}{2}{3,11}{4}{5}{6}{7,14}{8}{9}{10}{12,15}{13}{16}{17}{18}{19}\
         {20}{21}{22}{23}{24}{25}{26}" );
      ( "dk512", 29_927, 23_204, 20_746, 3, 8,
        "{0}{1}{2}{3}{4}{5}{6}{7}{8}{9}{10}{11,12}{13}{14}",
        "{0}{1,10}{2}{3}{4}{5}{6}{7}{8}{9}{11}{12}{13}{14}" );
      ( "tbk", 169, 378, 129, 3, 8,
        "{0,8}{1,14}{2,13}{3,24}{4,28}{5,18}{6,7}{9,23}{10,16}{11,31}{12,17}\
         {15,29}{19,26}{20,27}{21,22}{25,30}",
        "{0,6}{1,28}{2,11}{3,16}{4,14}{5,17}{7,8}{9,26}{10,24}{12,18}{13,31}\
         {15,27}{19,23}{20,29}{21,30}{22,25}" );
      ( "planted:24x4@1", 10_944, 2_116, 9_390, 17, 8,
        "{0,9}{1,28}{2,20}{3,17}{4}{5,21}{6,8}{7,13}{10,15}{11,24}{12,18}\
         {14,19}{16,27}{22,26}{23,25}",
        "{0,26}{1,24}{2,15}{3,5}{4,27}{6,19}{7,12}{8,14}{9,22}{10,20}{11,28}\
         {13,18}{16}{17,21}{23}{25}" );
    ]

let test_solver_unreduced_machine () =
  (* A machine with equivalent states: pi /\ rho only needs to refine the
     equivalence, so the twins can share a class in both factors. *)
  let m =
    Machine.make ~name:"twin" ~num_states:3 ~num_inputs:2 ~num_outputs:2
      ~next:[| [| 1; 2 |]; [| 0; 1 |]; [| 0; 2 |] |]
      ~output:[| [| 0; 1 |]; [| 1; 0 |]; [| 1; 0 |] |]
      ()
  in
  let r = Solver.solve m in
  check_bool "valid on unreduced machine" true (Result.is_ok (Solver.validate m r.best));
  (* |S1| * |S2| only needs to cover the 2 equivalence classes. *)
  let a, b = factor_sizes r.best in
  check_bool "factors cover the reduced machine" true (a * b >= 2)

let test_validate_rejects_bad_pairs () =
  let m = Zoo.paper_fig5 () in
  let bad =
    {
      Solver.pi = Partition.of_blocks ~n:4 [ [ 0; 2 ] ];
      rho = Partition.of_blocks ~n:4 [ [ 1; 3 ] ];
      cost = Solver.cost_of
          ~pi:(Partition.of_blocks ~n:4 [ [ 0; 2 ] ])
          ~rho:(Partition.of_blocks ~n:4 [ [ 1; 3 ] ]);
    }
  in
  check_bool "rejected" true (Result.is_error (Solver.validate m bad))

let test_compare_cost_ordering () =
  let c bits factor_states imbalance = { Solver.bits; factor_states; imbalance } in
  check_bool "fewer bits wins" true (Solver.compare_cost (c 3 20 0.0) (c 4 4 0.0) < 0);
  check_bool "fewer states breaks ties" true
    (Solver.compare_cost (c 4 13 0.2) (c 4 14 0.0) < 0);
  check_bool "balance breaks remaining ties" true
    (Solver.compare_cost (c 4 12 0.0) (c 4 12 0.4) < 0)

(* ------------------------------------------------------------------ *)
(* Realization (Theorem 1)                                             *)
(* ------------------------------------------------------------------ *)

let fig5_realization () =
  let m = Zoo.paper_fig5 () in
  let pi = Partition.of_blocks ~n:4 [ [ 0; 1 ]; [ 2; 3 ] ] in
  let rho = Partition.of_blocks ~n:4 [ [ 0; 3 ]; [ 1; 2 ] ] in
  Realization.build m ~pi ~rho

let test_realization_fig7_tables () =
  let r = fig5_realization () in
  (* fig. 7: delta1([1]pi, 1) = [2]rho, delta1([1]pi, 0) = [1]rho,
             delta1([3]pi, 1) = [1]rho, delta1([3]pi, 0) = [2]rho.
     Class 0 of pi is {s1,s2} = [1]pi; class 0 of rho is {s1,s4} = [1]rho. *)
  check_int "delta1([1]pi, 1)" 1 r.Realization.delta1.(0).(1);
  check_int "delta1([1]pi, 0)" 0 r.Realization.delta1.(0).(0);
  check_int "delta1([3]pi, 1)" 0 r.Realization.delta1.(1).(1);
  check_int "delta1([3]pi, 0)" 1 r.Realization.delta1.(1).(0);
  (* fig. 7: delta2([1]rho, 1) = [3]pi, delta2([1]rho, 0) = [1]pi,
             delta2([2]rho, 1) = [1]pi, delta2([2]rho, 0) = [3]pi. *)
  check_int "delta2([1]rho, 1)" 1 r.Realization.delta2.(0).(1);
  check_int "delta2([1]rho, 0)" 0 r.Realization.delta2.(0).(0);
  check_int "delta2([2]rho, 1)" 0 r.Realization.delta2.(1).(1);
  check_int "delta2([2]rho, 0)" 1 r.Realization.delta2.(1).(0)

let test_realization_fig5_properties () =
  let r = fig5_realization () in
  check_bool "realizes" true (Realization.realizes r);
  check_int "|S1|" 2 (Realization.num_s1 r);
  check_int "|S2|" 2 (Realization.num_s2 r);
  check_int "flipflops" 2 (Realization.flipflops r);
  check_int "no filler needed" 0 r.Realization.filled;
  check_bool "product behaviour equals spec" true
    (Machine.equal_behaviour r.Realization.spec r.Realization.product);
  check_int "spec transitions" 8 (Realization.spec_transitions r);
  check_int "factor transitions" 8 (Realization.factor_transitions r)

let test_realization_filler () =
  (* dk27-style machine: |S1| * |S2| = 42 > 7 states, so most product
     states need the filler output. *)
  let rng = Rng.create 555 in
  let info =
    Generate.block_product ~rng ~name:"filler"
      ~blocks:((1, 2) :: List.init 5 (fun _ -> (1, 1)))
      ~num_inputs:2 ~num_outputs:4 ~distinct_signatures:false ()
  in
  let m = info.Generate.machine in
  let pi = Partition.of_class_map info.Generate.pi_classes in
  let rho = Partition.of_class_map info.Generate.rho_classes in
  let r = Realization.build m ~pi ~rho in
  check_int "42 product states" 42 r.Realization.product.Machine.num_states;
  check_int "35 filled entries" 35 r.Realization.filled;
  check_bool "still realizes" true (Realization.realizes r);
  check_bool "behaviour preserved" true
    (Machine.equal_behaviour m r.Realization.product)

let test_realization_rejects_invalid () =
  let m = Zoo.paper_fig5 () in
  let pi = Partition.of_blocks ~n:4 [ [ 0; 2 ] ] in
  let rho = Partition.of_blocks ~n:4 [ [ 1; 3 ] ] in
  check_bool "rejected" true
    (match Realization.build m ~pi ~rho with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_realization_trivial_is_doubling () =
  (* The trivial solution (identity, identity) corresponds to doubling the
     machine (fig. 3): the product machine restricted to reachable states
     is the original machine. *)
  let m = Zoo.counter ~modulus:4 in
  let id = Partition.identity 4 in
  let r = Realization.build m ~pi:id ~rho:id in
  check_int "16 product states" 16 r.Realization.product.Machine.num_states;
  check_bool "realizes" true (Realization.realizes r);
  check_bool "behaviour preserved" true
    (Machine.equal_behaviour m r.Realization.product)

let test_realization_random_block_products =
  QCheck.Test.make ~count:30 ~name:"realization of solver optimum always realizes"
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let info =
        Generate.block_product ~rng ~name:"rr"
          ~blocks:[ (1, 2); (2, 1); (1, 1) ]
          ~num_inputs:4 ~num_outputs:4 ()
      in
      let m = info.Generate.machine in
      let r = Solver.solve m in
      let real = Realization.of_solution m r.best in
      Realization.realizes real
      && Machine.equal_behaviour m real.Realization.product)

let test_pp_factors_output () =
  let r = fig5_realization () in
  let s = Format.asprintf "@[<v>%a@]" Realization.pp_factors r in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "mentions delta1" true (contains s "delta1");
  check_bool "uses paper-style class names" true (contains s "[s1]")

(* ------------------------------------------------------------------ *)
(* Ostr facade                                                         *)
(* ------------------------------------------------------------------ *)

let test_ostr_shiftreg () =
  let outcome = Ostr.run (Zoo.shift_register ~bits:3) in
  check_bool "nontrivial" true (Ostr.nontrivial outcome);
  check_bool "reaches lower bound" true (Ostr.reaches_lower_bound outcome);
  check_int "pipeline flip-flops" 3 (Realization.flipflops outcome.realization)

let test_ostr_counter () =
  let outcome = Ostr.run (Zoo.counter ~modulus:8) in
  check_bool "trivial" false (Ostr.nontrivial outcome);
  check_bool "lower bound not reached" false (Ostr.reaches_lower_bound outcome)

let test_ostr_summary_mentions_fields () =
  let outcome = Ostr.run (Zoo.paper_fig5 ()) in
  let s = Format.asprintf "%a" Ostr.pp_summary outcome in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "machine name" true (contains s "fig5");
  check_bool "factors" true (contains s "|S1| = 2");
  check_bool "search stats" true (contains s "investigated")

let () =
  Alcotest.run "stc_core"
    [
      ( "solver",
        [
          Alcotest.test_case "fig5 optimum" `Quick test_solver_fig5;
          Alcotest.test_case "shiftreg optimum" `Quick test_solver_shiftreg;
          Alcotest.test_case "4-bit shiftreg optimum" `Quick test_solver_shiftreg_4bit;
          Alcotest.test_case "counter is trivial" `Quick test_solver_counter_trivial;
          Alcotest.test_case "toggle is trivial" `Quick test_solver_toggle_trivial;
          Alcotest.test_case "stats accounting" `Quick test_solver_stats_accounting;
          Alcotest.test_case "pinned corpus counters" `Quick
            test_solver_pinned_counters;
          qcheck test_solver_pruning_soundness;
          qcheck test_solver_matches_exhaustive;
          Alcotest.test_case "exhaustive optimum on pinned seeds" `Quick
            test_solver_exhaustive_pins;
          qcheck test_solver_solutions_always_valid;
          qcheck test_solver_planted_recovered;
          Alcotest.test_case "timeout returns best" `Quick test_solver_timeout_returns_best;
          Alcotest.test_case "max_nodes cap" `Quick test_solver_max_nodes;
          Alcotest.test_case "parallel = sequential (suite + zoo)" `Slow
            test_solver_parallel_matches_sequential;
          Alcotest.test_case "deterministic stats (jobs=1)" `Quick
            test_solver_deterministic_stats;
          Alcotest.test_case "dedupe accounting" `Quick
            test_solver_dedupe_accounting;
          Alcotest.test_case "unreduced machine" `Quick test_solver_unreduced_machine;
          qcheck test_solver_nonviable_admits_nothing;
          qcheck test_solver_nonviability_upward_closed;
          Alcotest.test_case "validate rejects bad pairs" `Quick
            test_validate_rejects_bad_pairs;
          Alcotest.test_case "cost ordering" `Quick test_compare_cost_ordering;
        ] );
      ( "realization",
        [
          Alcotest.test_case "fig7 factor tables" `Quick test_realization_fig7_tables;
          Alcotest.test_case "fig5 properties" `Quick test_realization_fig5_properties;
          Alcotest.test_case "filler entries" `Quick test_realization_filler;
          Alcotest.test_case "rejects invalid pair" `Quick test_realization_rejects_invalid;
          Alcotest.test_case "trivial = doubling" `Quick
            test_realization_trivial_is_doubling;
          qcheck test_realization_random_block_products;
          Alcotest.test_case "pp factors" `Quick test_pp_factors_output;
        ] );
      ( "ostr",
        [
          Alcotest.test_case "shiftreg" `Quick test_ostr_shiftreg;
          Alcotest.test_case "counter" `Quick test_ostr_counter;
          Alcotest.test_case "summary" `Quick test_ostr_summary_mentions_fields;
        ] );
    ]
