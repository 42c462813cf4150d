(* Quickstart: the paper's running example, end to end.

   Reproduces figures 5-8 of Hellebrand & Wunderlich, "Synthesis of
   Self-Testable Controllers" (ED&TC 1994):
   fig. 5 - a 4-state machine specification,
   fig. 6 - its symmetric partition pair,
   fig. 7 - the factor tables delta1 and delta2,
   fig. 8 - the resulting 2-flip-flop pipeline structure.

   Run with: dune exec examples/quickstart.exe *)

module Machine = Stc_fsm.Machine
module Zoo = Stc_fsm.Zoo
module Partition = Stc_partition.Partition
module Pair = Stc_partition.Pair
module Ostr = Stc_core.Ostr
module Solver = Stc_core.Solver
module Realization = Stc_core.Realization
module Tables = Stc_encoding.Tables
module Code = Stc_encoding.Code
module Context = Stc_analysis.Context
module Pla = Stc_logic.Pla

let section title = Format.printf "@.== %s ==@.@." title

let () =
  section "Figure 5: the specification";
  let m = Zoo.paper_fig5 () in
  Format.printf "%a@." Machine.pp m;

  section "Figure 6: a symmetric partition pair";
  let pi = Partition.of_blocks ~n:4 [ [ 0; 1 ]; [ 2; 3 ] ] in
  let rho = Partition.of_blocks ~n:4 [ [ 0; 3 ]; [ 1; 2 ] ] in
  Format.printf "S/pi  = %s   (classes {s1,s2} and {s3,s4})@."
    (Partition.to_string pi);
  Format.printf "S/rho = %s   (classes {s1,s4} and {s2,s3})@."
    (Partition.to_string rho);
  Format.printf "(pi, rho) is a partition pair:  %b@."
    (Pair.is_pair ~next:m.Machine.next pi rho);
  Format.printf "(rho, pi) is a partition pair:  %b   (=> symmetric)@."
    (Pair.is_pair ~next:m.Machine.next rho pi);
  Format.printf "pi /\\ rho = %s  (identity, as Theorem 1 requires)@."
    (Partition.to_string (Partition.meet pi rho));

  section "The OSTR search finds exactly this pair";
  let outcome = Ostr.run m in
  Format.printf "%a@." Ostr.pp_summary outcome;

  section "Figure 7: the factor tables";
  Format.printf "%a@." Realization.pp_factors outcome.Ostr.realization;

  section "Figure 8: the pipeline structure";
  let ctx = Context.of_realization outcome.Ostr.realization in
  let p = ctx.Context.tables in
  Format.printf
    "R1 holds [S1] in %d flip-flop(s), R2 holds [S2] in %d flip-flop(s).@."
    p.Tables.code1.Code.width p.Tables.code2.Code.width;
  Format.printf
    "With [s1]pi = [1]rho = 1 and [s3]pi = [2]rho = 0 (the paper's coding),@.";
  Format.printf "block C1 (inputs: i, R1; output: next R2) minimizes to:@.";
  let minimized label =
    (List.find (fun b -> b.Context.block_label = label) ctx.Context.blocks)
      .Context.minimized
  in
  print_string (Pla.print ~name:"C1" (minimized "c1"));
  Format.printf "and block C2 (inputs: i, R2; output: next R1) to:@.";
  print_string (Pla.print ~name:"C2" (minimized "c2"));

  section "The realization really is the machine";
  let product = outcome.Ostr.realization.Realization.product in
  Format.printf "structural check (Definition 3): %b@."
    (Realization.realizes outcome.Ostr.realization);
  Format.printf "bisimulation check:              %b@."
    (Machine.equal_behaviour m product);
  let word = [ 1; 1; 0; 1; 0; 0; 1 ] in
  let out_spec, _ = Machine.simulate m word in
  let out_pipe, _ = Machine.simulate product word in
  Format.printf "outputs on %s: spec %s, pipeline %s@."
    (String.concat "" (List.map string_of_int word))
    (String.concat "" (List.map string_of_int out_spec))
    (String.concat "" (List.map string_of_int out_pipe))
