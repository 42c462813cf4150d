(* End-to-end flow tests: KISS2 spec -> OSTR solution -> Theorem-1
   realization -> state encoding -> espresso-minimized blocks -> gate-level
   pipeline netlist, then cycle-accurate co-simulation of the synthesized
   circuit against the original machine. *)

module Machine = Stc_fsm.Machine
module Kiss = Stc_fsm.Kiss
module Zoo = Stc_fsm.Zoo
module Generate = Stc_fsm.Generate
module Suite = Stc_benchmarks.Suite
module Ostr = Stc_core.Ostr
module Realization = Stc_core.Realization
module Tables = Stc_encoding.Tables
module Code = Stc_encoding.Code
module Minimize = Stc_logic.Minimize
module N = Stc_netlist.Netlist
module B = Stc_netlist.Netlist.Builder
module Partition = Stc_partition.Partition
module Rng = Stc_util.Rng

let check_bool = Alcotest.(check bool)

(* Build the fig. 4 pipeline as a *sequential* circuit model: minimized C1,
   C2 and Lambda plus two state words held by the caller, and step it cycle
   by cycle. *)
type circuit = {
  tables : Tables.pipeline;
  net : N.t;
  c1_out : int array;
  c2_out : int array;
  po_out : int array;
  mutable r1 : int;
  mutable r2 : int;
}

let build_circuit (p : Tables.pipeline) =
  let iw = p.Tables.enc.Tables.input_width in
  let w1 = p.Tables.code1.Code.width and w2 = p.Tables.code2.Code.width in
  let c1 = fst (Minimize.minimize ~dc:p.Tables.c1_dc p.Tables.c1_on) in
  let c2 = fst (Minimize.minimize ~dc:p.Tables.c2_dc p.Tables.c2_on) in
  let lambda = fst (Minimize.minimize ~dc:p.Tables.lambda_dc p.Tables.lambda_on) in
  let b = B.create "pipeline" in
  let primary = Array.init iw (fun k -> B.input b (Printf.sprintf "i%d" k)) in
  let r1 = Array.init w1 (fun k -> B.input b (Printf.sprintf "r1_%d" k)) in
  let r2 = Array.init w2 (fun k -> B.input b (Printf.sprintf "r2_%d" k)) in
  let c1_out = B.emit_cover b ~inputs:(Array.append primary r1) c1 in
  let c2_out = B.emit_cover b ~inputs:(Array.append primary r2) c2 in
  let po_out = B.emit_cover b ~inputs:(Array.concat [ primary; r1; r2 ]) lambda in
  Array.iteri (fun k g -> B.output b (Printf.sprintf "o%d" k) g) po_out;
  let r = p.Tables.realization in
  let reset = r.Realization.spec.Machine.reset in
  {
    tables = p;
    net = B.finish b;
    c1_out;
    c2_out;
    po_out;
    r1 = p.Tables.code1.Code.codes.(Partition.class_of r.Realization.pi reset);
    r2 = p.Tables.code2.Code.codes.(Partition.class_of r.Realization.rho reset);
  }

let bits_to_word values gates = Array.fold_left (fun acc g -> (acc lsl 1) lor (values.(g) land 1)) 0 gates

(* Apply input symbol [i]; return the output code word and advance the
   registers: new R1 = C2 output, new R2 = C1 output, as in Theorem 1. *)
let step_circuit c i =
  let p = c.tables in
  let iw = p.Tables.enc.Tables.input_width in
  let w1 = p.Tables.code1.Code.width and w2 = p.Tables.code2.Code.width in
  let vec =
    Array.concat
      [
        Array.init iw (fun k -> (i lsr (iw - 1 - k)) land 1);
        Array.init w1 (fun k -> (c.r1 lsr (w1 - 1 - k)) land 1);
        Array.init w2 (fun k -> (c.r2 lsr (w2 - 1 - k)) land 1);
      ]
  in
  let values = N.eval c.net ~inputs:vec in
  let out = bits_to_word values c.po_out in
  let new_r2 = bits_to_word values c.c1_out in
  let new_r1 = bits_to_word values c.c2_out in
  c.r1 <- new_r1;
  c.r2 <- new_r2;
  out

let co_simulate machine ~steps ~seed =
  let outcome = Ostr.run machine in
  let p = Tables.pipeline outcome.Ostr.realization in
  let circuit = build_circuit p in
  let rng = Rng.create seed in
  let ow = p.Tables.enc.Tables.output_width in
  let state = ref machine.Machine.reset in
  let ok = ref true in
  for _ = 1 to steps do
    let i = Rng.int rng machine.Machine.num_inputs in
    let s', o = Machine.step machine !state i in
    state := s';
    let got = step_circuit circuit i in
    let expect = p.Tables.enc.Tables.output_codes.(o) in
    if got land ((1 lsl ow) - 1) <> expect then ok := false
  done;
  !ok

let test_cosim machine () =
  check_bool
    (machine.Machine.name ^ " circuit behaves as the specification")
    true
    (co_simulate machine ~steps:2000 ~seed:42)

let test_cosim_random_products =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:10 ~name:"random product machines co-simulate"
       QCheck.(int_bound 100000)
       (fun seed ->
         let rng = Rng.create seed in
         let info =
           Generate.block_product ~rng ~name:"cosim"
             ~blocks:[ (1, 2); (2, 1); (1, 1) ]
             ~num_inputs:4 ~num_outputs:4 ()
         in
         co_simulate info.Generate.machine ~steps:500 ~seed))

(* The complete artifact path: spec text -> parse -> synthesize -> export
   both factors back to KISS2 and re-parse them. *)
let test_kiss_to_kiss () =
  let text = Kiss.print (Zoo.paper_fig5 ()) in
  let machine = Kiss.parse ~name:"fig5" text in
  let outcome = Ostr.run machine in
  let product = outcome.Ostr.realization.Realization.product in
  let product' = Kiss.parse ~name:"product" (Kiss.print product) in
  check_bool "product round-trips through KISS2" true
    (Machine.equal_behaviour product product');
  check_bool "and realizes the spec" true
    (Machine.equal_behaviour machine product')

(* Minimization contracts along the benchmark flow. *)
let test_benchmark_minimization_contracts () =
  let module Context = Stc_analysis.Context in
  List.iter
    (fun name ->
      let spec = match Suite.find name with Some s -> s | None -> assert false in
      let ctx = Context.of_machine ~conventional:true (Suite.machine spec) in
      let contract label (b : Context.block) =
        check_bool (name ^ " " ^ label ^ " contract") true
          (Truth.equivalent_with_dc ~on:b.Context.on ~dc:b.Context.dc
             b.Context.minimized)
      in
      contract "conventional" (Option.get ctx.Context.block_c);
      contract "c1" (List.hd ctx.Context.blocks))
    [ "dk27"; "shiftreg"; "tav" ]

let () =
  Alcotest.run "stc_integration"
    [
      ( "cosimulation",
        [
          Alcotest.test_case "fig5" `Quick (test_cosim (Zoo.paper_fig5 ()));
          Alcotest.test_case "shiftreg" `Quick (test_cosim (Zoo.shift_register ~bits:3));
          Alcotest.test_case "counter (trivial realization)" `Quick
            (test_cosim (Zoo.counter ~modulus:5));
          Alcotest.test_case "serial adder" `Quick (test_cosim (Zoo.serial_adder ()));
          test_cosim_random_products;
        ] );
      ( "artifacts",
        [
          Alcotest.test_case "kiss to kiss" `Quick test_kiss_to_kiss;
          Alcotest.test_case "benchmark minimization contracts" `Quick
            test_benchmark_minimization_contracts;
        ] );
    ]
