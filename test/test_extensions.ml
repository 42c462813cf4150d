(* Tests for the extension modules: state splitting (the paper's stated
   future work) and the sequential / full-scan test baselines. *)

module Machine = Stc_fsm.Machine
module Zoo = Stc_fsm.Zoo
module Generate = Stc_fsm.Generate
module Equiv = Stc_fsm.Equiv
module Reach = Stc_fsm.Reach
module Partition = Stc_partition.Partition
module Solver = Stc_core.Solver
module Split = Stc_core.Split
module Seqtest = Stc_faultsim.Seqtest
module Scan = Stc_faultsim.Scan
module Decompose = Stc_core.Decompose
module Aliasing = Stc_faultsim.Aliasing
module Arch = Stc_faultsim.Arch
module Session = Stc_faultsim.Session
module Suite = Stc_benchmarks.Suite
module Rng = Stc_util.Rng
module Context = Stc_analysis.Context

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* The flow's minimized block C of [m], with the encoding it is over. *)
let block_c m =
  let ctx = Context.of_machine ~conventional:true m in
  ( (Option.get ctx.Context.block_c).Context.minimized,
    ctx.Context.tables.Stc_encoding.Tables.enc )

let fig4 ~cycles m = (Context.of_machine ~cycles m).Context.fig4

let qcheck = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Split                                                               *)
(* ------------------------------------------------------------------ *)

let test_split_preserves_behaviour =
  QCheck.Test.make ~count:60 ~name:"splitting preserves behaviour"
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 3 + Rng.int rng 5 in
      let m =
        Generate.random ~rng ~name:"sp" ~num_states:n ~num_inputs:2
          ~num_outputs:2 ()
      in
      let state = Rng.int rng n in
      let edges = Split.incoming m state in
      match edges with
      | [] -> true
      | _ ->
        let moved = List.filteri (fun k _ -> k mod 2 = 0) edges in
        if moved = [] then true
        else begin
          let m' = Split.split m ~state ~moved in
          m'.Machine.num_states = n + 1 && Machine.equal_behaviour m m'
        end)

let test_split_copies_are_equivalent () =
  let m = Zoo.paper_fig5 () in
  let edges = Split.incoming m 0 in
  check_bool "fig5 s1 has incoming edges" true (List.length edges >= 2);
  let moved = [ List.hd edges ] in
  let m' = Split.split m ~state:0 ~moved in
  check_bool "copy is equivalent to the original state" true
    (Equiv.equivalent m' 0 4);
  check_bool "machine is now unreduced" false (Equiv.is_reduced m')

let test_split_incoming () =
  let m = Zoo.shift_register ~bits:3 in
  (* State 0 (000) is entered from 000 and 100 under input 0. *)
  check_bool "incoming of 000" true
    (Split.incoming m 0 = [ (0, 0); (4, 0) ])

let test_split_rejects_bad_edges () =
  let m = Zoo.paper_fig5 () in
  check_bool "edge not leading to state" true
    (match Split.split m ~state:0 ~moved:[ (0, 1) ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* The headline test: a machine whose minimization destroyed its product
   structure; splitting one state recovers the 4-flip-flop realization.
   Seed 2 was found by search (see dev notes); the construction is
   deterministic. *)
let split_demo_machine () =
  let rng = Rng.create 2 in
  let info =
    Generate.block_product ~rng ~name:"m8" ~blocks:[ (2, 2); (2, 2) ]
      ~num_inputs:4 ~num_outputs:2 ~distinct_signatures:false ()
  in
  let m8 = info.Generate.machine in
  let twin = ref None in
  for u = 0 to m8.Machine.num_states - 1 do
    for v = u + 1 to m8.Machine.num_states - 1 do
      if !twin = None && m8.Machine.next.(u) = m8.Machine.next.(v) then
        twin := Some (u, v)
    done
  done;
  match !twin with
  | None -> Alcotest.fail "construction lost its twin states"
  | Some (u, v) ->
    let output = Array.map Array.copy m8.Machine.output in
    output.(v) <- Array.copy output.(u);
    let m8t =
      Machine.make ~name:"m8t" ~num_states:m8.Machine.num_states
        ~num_inputs:m8.Machine.num_inputs ~num_outputs:m8.Machine.num_outputs
        ~next:m8.Machine.next ~output ()
    in
    Equiv.minimize m8t

let test_split_improves_demo () =
  let m7 = split_demo_machine () in
  check_int "minimized to 7 states" 7 m7.Machine.num_states;
  let before = (Solver.solve m7).Solver.best in
  check_int "merged machine needs 5 flip-flops" 5 before.Solver.cost.Solver.bits;
  let improved = Split.improve m7 in
  check_int "one split recovers 4 flip-flops" 4
    improved.Split.solution.Solver.cost.Solver.bits;
  check_int "one split sufficed" 1 (List.length improved.Split.splits);
  check_bool "behaviour preserved" true
    (Machine.equal_behaviour m7 improved.Split.machine)

let test_split_improve_never_worse =
  QCheck.Test.make ~count:15 ~name:"improve never worsens the OSTR cost"
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 3 + Rng.int rng 4 in
      let m =
        Generate.random ~rng ~name:"iw" ~num_states:n ~num_inputs:2
          ~num_outputs:2 ()
      in
      let before = (Solver.solve m).Solver.best in
      let improved = Split.improve ~max_rounds:1 m in
      Solver.compare_cost improved.Split.solution.Solver.cost
        before.Solver.cost
      <= 0
      && Machine.equal_behaviour m improved.Split.machine)

(* ------------------------------------------------------------------ *)
(* Seqtest                                                             *)
(* ------------------------------------------------------------------ *)

let test_seqtest_counter_depth () =
  (* A mod-16 counter only reveals most faults at the carry output, which
     needs long input runs: first detections must spread over many
     cycles. *)
  let cover, enc = block_c (Zoo.counter ~modulus:16) in
  let r = Seqtest.run_conventional ~cycles:2048 ~cover enc in
  check_bool "most faults detected" true (r.Seqtest.coverage > 0.8);
  let last =
    r.Seqtest.detection_cycles.(Array.length r.Seqtest.detection_cycles - 1)
  in
  check_bool "tail detection beyond cycle 15" true (last >= 15)

let test_seqtest_deterministic () =
  let cover, enc = block_c (Zoo.shift_register ~bits:3) in
  let a = Seqtest.run_conventional ~cycles:512 ~cover enc in
  let b = Seqtest.run_conventional ~cycles:512 ~cover enc in
  check_int "same detected" a.Seqtest.detected b.Seqtest.detected;
  check_bool "same detection profile" true
    (a.Seqtest.detection_cycles = b.Seqtest.detection_cycles)

let test_seqtest_cycles_to_coverage () =
  let cover, enc = block_c (Zoo.counter ~modulus:8) in
  let r = Seqtest.run_conventional ~cycles:1024 ~cover enc in
  let median = Seqtest.cycles_to_coverage r 0.5 in
  let full = Seqtest.cycles_to_coverage r 1.0 in
  check_bool "median defined" true (median <> None);
  check_bool "median <= full" true
    (match (median, full) with
    | Some a, Some b -> a <= b
    | _ -> false)

let test_seqtest_monotone_in_cycles () =
  let cover, enc = block_c (Zoo.counter ~modulus:12) in
  let short = Seqtest.run_conventional ~cycles:16 ~cover enc in
  let long = Seqtest.run_conventional ~cycles:1024 ~cover enc in
  check_bool "longer sequences detect at least as much" true
    (long.Seqtest.detected >= short.Seqtest.detected)

(* ------------------------------------------------------------------ *)
(* Scan                                                                *)
(* ------------------------------------------------------------------ *)

let test_scan_coverage_and_cost () =
  let cover, enc = block_c (Zoo.shift_register ~bits:3) in
  let s = Scan.run ~patterns:512 ~cover enc in
  check_bool "high coverage" true
    (s.Scan.report.Session.coverage > 0.95);
  check_int "chain length" 3 s.Scan.chain_length;
  check_int "test cycles include shift overhead" (512 * 4) s.Scan.test_cycles;
  check_int "one mux per flip-flop" 3 s.Scan.extra_muxes

let test_scan_vs_pipeline_test_time () =
  (* Same pattern budget: the scan test pays (chain+1)x the cycles. *)
  let cover, enc = block_c (Zoo.shift_register ~bits:3) in
  let s = Scan.run ~patterns:1024 ~cover enc in
  let pipeline_cycles = 2 * 1024 in
  check_bool "scan needs more cycles than both BIST sessions" true
    (s.Scan.test_cycles > pipeline_cycles)

(* ------------------------------------------------------------------ *)
(* Decompose                                                           *)
(* ------------------------------------------------------------------ *)

let test_closed_partitions_are_closed =
  QCheck.Test.make ~count:40 ~name:"enumerated closed partitions are closed"
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 3 + Rng.int rng 5 in
      let m =
        Generate.random ~rng ~name:"cl" ~num_states:n ~num_inputs:2
          ~num_outputs:2 ~ensure_reduced:false ()
      in
      let next = m.Machine.next in
      let closed = Decompose.closed_partitions ~next in
      closed <> []
      && List.for_all (fun pi -> Decompose.is_closed ~next pi) closed
      && List.mem (Partition.identity n) closed)

let test_closure_is_minimal_closed =
  QCheck.Test.make ~count:60 ~name:"closure is the least closed coarsening"
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 3 + Rng.int rng 4 in
      let m =
        Generate.random ~rng ~name:"cm" ~num_states:n ~num_inputs:2
          ~num_outputs:2 ~ensure_reduced:false ()
      in
      let next = m.Machine.next in
      let k = 1 + Rng.int rng n in
      let pi = Partition.of_class_map (Array.init n (fun _ -> Rng.int rng k)) in
      let c = Decompose.closure ~next pi in
      Decompose.is_closed ~next c
      && Partition.subseteq pi c
      && List.for_all
           (fun q ->
             if Partition.subseteq pi q && Decompose.is_closed ~next q then
               Partition.subseteq c q
             else true)
           (Stc_partition.Enumerate.all n))

let test_decompose_counter_serial_only () =
  (* The counter decomposes serially (ripple carry) but admits no
     nontrivial parallel decomposition and no nontrivial pipeline pair -
     the paper's "different from decomposition" point, one way. *)
  let m = Zoo.counter ~modulus:8 in
  check_bool "no parallel decomposition" true (Decompose.parallel m = None);
  check_bool "serial decomposition exists" true (Decompose.serial m <> None);
  let r = Solver.solve m in
  check_bool "pipeline is trivial" true (Solver.is_trivial m r.Solver.best)

let test_decompose_tav_pipeline_only () =
  (* ...and the other way: tav pipeline-factors into 2x2 but has no
     classical decomposition at all. *)
  let m =
    match Suite.find "tav" with Some s -> Suite.machine s | None -> assert false
  in
  check_bool "no parallel decomposition" true (Decompose.parallel m = None);
  check_bool "no serial decomposition" true (Decompose.serial m = None);
  let r = Solver.solve m in
  check_int "pipeline needs 2 flip-flops" 2 r.Solver.best.Solver.cost.Solver.bits

let test_decompose_shiftreg_serial () =
  let m = Zoo.shift_register ~bits:3 in
  match Decompose.serial m with
  | None -> Alcotest.fail "shift register must decompose serially"
  | Some s ->
    check_int "head 2 + tail 4 = 3 bits" 3 s.Decompose.bits;
    check_bool "head is closed" true
      (Decompose.is_closed ~next:m.Machine.next s.Decompose.head)

let test_decompose_parallel_components_closed =
  QCheck.Test.make ~count:25 ~name:"parallel components are closed and admissible"
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 4 + Rng.int rng 4 in
      let m =
        Generate.random ~rng ~name:"pd" ~num_states:n ~num_inputs:2
          ~num_outputs:2 ()
      in
      match Decompose.parallel m with
      | None -> true
      | Some p ->
        let next = m.Machine.next in
        Decompose.is_closed ~next p.Decompose.pi1
        && Decompose.is_closed ~next p.Decompose.pi2
        && Partition.is_identity
             (Partition.meet p.Decompose.pi1 p.Decompose.pi2))

(* ------------------------------------------------------------------ *)
(* Aliasing                                                            *)
(* ------------------------------------------------------------------ *)

let test_aliasing_bounds () =
  let built = fig4 ~cycles:256 (Zoo.paper_fig5 ()) in
  let r = Aliasing.measure built in
  check_bool "signature-detected <= stream-detected" true
    (r.Aliasing.signature_detected <= r.Aliasing.stream_detected);
  check_int "aliased = stream - signature detections" r.Aliasing.aliased
    (r.Aliasing.stream_detected - r.Aliasing.signature_detected);
  check_bool "rate in [0,1]" true
    (r.Aliasing.aliasing_rate >= 0.0 && r.Aliasing.aliasing_rate <= 1.0)

let test_aliasing_rate_near_theory () =
  (* dk27's 5-bit MISR should alias near 2^-5; allow a generous band. *)
  let m =
    match Suite.find "dk27" with Some s -> Suite.machine s | None -> assert false
  in
  let built = fig4 ~cycles:512 m in
  let r = Aliasing.measure built in
  check_int "5-bit signature" 5 r.Aliasing.misr_width;
  check_bool "rate within 4x of theory" true
    (r.Aliasing.aliasing_rate < 4.0 /. 32.0)

let test_aliasing_wide_register_clean () =
  (* A wider signature (shiftreg sessions observe few nets but the fault
     population is small) should alias rarely or never. *)
  let built = fig4 ~cycles:512 (Zoo.shift_register ~bits:3) in
  let r = Aliasing.measure built in
  check_bool "few aliases" true (r.Aliasing.aliased <= 2)

let () =
  Alcotest.run "stc_extensions"
    [
      ( "split",
        [
          qcheck test_split_preserves_behaviour;
          Alcotest.test_case "copies are equivalent" `Quick
            test_split_copies_are_equivalent;
          Alcotest.test_case "incoming" `Quick test_split_incoming;
          Alcotest.test_case "rejects bad edges" `Quick test_split_rejects_bad_edges;
          Alcotest.test_case "improves the merged product machine" `Quick
            test_split_improves_demo;
          qcheck test_split_improve_never_worse;
        ] );
      ( "decompose",
        [
          qcheck test_closed_partitions_are_closed;
          qcheck test_closure_is_minimal_closed;
          Alcotest.test_case "counter: serial only" `Quick
            test_decompose_counter_serial_only;
          Alcotest.test_case "tav: pipeline only" `Quick
            test_decompose_tav_pipeline_only;
          Alcotest.test_case "shiftreg serial" `Quick test_decompose_shiftreg_serial;
          qcheck test_decompose_parallel_components_closed;
        ] );
      ( "aliasing",
        [
          Alcotest.test_case "bounds" `Quick test_aliasing_bounds;
          Alcotest.test_case "rate near theory" `Quick test_aliasing_rate_near_theory;
          Alcotest.test_case "wide register clean" `Quick
            test_aliasing_wide_register_clean;
        ] );
      ( "seqtest",
        [
          Alcotest.test_case "counter depth" `Quick test_seqtest_counter_depth;
          Alcotest.test_case "deterministic" `Quick test_seqtest_deterministic;
          Alcotest.test_case "cycles to coverage" `Quick test_seqtest_cycles_to_coverage;
          Alcotest.test_case "monotone in cycles" `Quick test_seqtest_monotone_in_cycles;
        ] );
      ( "scan",
        [
          Alcotest.test_case "coverage and cost" `Quick test_scan_coverage_and_cost;
          Alcotest.test_case "scan vs pipeline test time" `Quick
            test_scan_vs_pipeline_test_time;
        ] );
    ]
