(* The two-session self-test, narrated at the register level.

   The pipeline structure of fig. 4 is tested in two sessions without any
   extra test register: in session 1, R1 works as an LFSR (pattern
   generator) and R2 as a MISR (signature analyzer) compressing C1's
   responses; in session 2 the roles swap and C2 is tested.  This demo
   drives the synthesized `shiftreg` pipeline with BILBO-style registers,
   prints the signatures, then injects a stuck-at fault and shows the
   signature mismatch.

   Run with: dune exec examples/selftest_demo.exe *)

module Machine = Stc_fsm.Machine
module Zoo = Stc_fsm.Zoo
module Ostr = Stc_core.Ostr
module Tables = Stc_encoding.Tables
module Code = Stc_encoding.Code
module Context = Stc_analysis.Context
module N = Stc_netlist.Netlist
module B = Stc_netlist.Netlist.Builder
module Bilbo = Stc_bist.Bilbo
module Lfsr = Stc_bist.Lfsr

let section title = Format.printf "@.== %s ==@.@." title

(* Build the two minimized combinational blocks as netlists. *)
let build_blocks (ctx : Context.t) =
  let p = ctx.Context.tables in
  let iw = p.Tables.enc.Tables.input_width in
  let w1 = p.Tables.code1.Code.width and w2 = p.Tables.code2.Code.width in
  let cover_of label =
    (List.find (fun b -> b.Context.block_label = label) ctx.Context.blocks)
      .Context.minimized
  in
  let block label in_width =
    let cover = cover_of (String.lowercase_ascii label) in
    let b = B.create label in
    let inputs = Array.init in_width (fun k -> B.input b (Printf.sprintf "x%d" k)) in
    let outs = B.emit_cover b ~inputs cover in
    Array.iteri (fun k g -> B.output b (Printf.sprintf "y%d" k) g) outs;
    (B.finish b, outs)
  in
  (block "C1" (iw + w1), block "C2" (iw + w2))

let eval_block ?fault (net, outs) word ~in_width ~out_width =
  let inputs = Array.init in_width (fun k -> (word lsr (in_width - 1 - k)) land 1) in
  let values = N.eval ?fault net ~inputs in
  Array.fold_left (fun acc g -> (acc lsl 1) lor (values.(g) land 1)) 0
    (Array.sub outs 0 out_width)

let () =
  section "Synthesis";
  let m = Zoo.shift_register ~bits:4 in
  let outcome = Ostr.run m in
  Format.printf "%a@." Ostr.pp_summary outcome;
  let ctx = Context.of_realization outcome.Ostr.realization in
  let p = ctx.Context.tables in
  let iw = p.Tables.enc.Tables.input_width in
  let w1 = p.Tables.code1.Code.width and w2 = p.Tables.code2.Code.width in
  let c1_block, c2_block = build_blocks ctx in
  Format.printf "R1: %d flip-flop(s), R2: %d flip-flop(s); no test register.@." w1 w2;

  section "Session 1: R1 generates, R2 compresses C1";
  let r1 = Bilbo.create ~width:w1 () and r2 = Bilbo.create ~width:w2 () in
  Bilbo.load r1 1;
  Bilbo.set_mode r1 Bilbo.Pattern_gen;
  Bilbo.load r2 0;
  Bilbo.set_mode r2 Bilbo.Signature;
  let input_gen = Lfsr.create ~width:8 ~seed:0x2D () in
  let cycles = 64 in
  let run_session ?fault () =
    Bilbo.load r1 1;
    Bilbo.set_mode r1 Bilbo.Pattern_gen;
    Bilbo.load r2 0;
    Bilbo.set_mode r2 Bilbo.Signature;
    let gen = Lfsr.create ~width:8 ~seed:0x2D () in
    for _ = 1 to cycles do
      let i = Lfsr.state gen land ((1 lsl iw) - 1) in
      let pattern = Bilbo.state r1 in
      let response =
        eval_block ?fault c1_block ((i lsl w1) lor pattern) ~in_width:(iw + w1)
          ~out_width:w2
      in
      ignore (Bilbo.clock r1 ~parallel:0 ~serial:false);
      ignore (Bilbo.clock r2 ~parallel:response ~serial:false);
      ignore (Lfsr.step gen)
    done;
    Bilbo.state r2
  in
  ignore input_gen;
  let golden1 = run_session () in
  Format.printf "%d cycles applied; golden signature in R2: %d@." cycles golden1;

  section "Session 2: R2 generates, R1 compresses C2";
  let run_session2 ?fault () =
    Bilbo.load r2 1;
    Bilbo.set_mode r2 Bilbo.Pattern_gen;
    Bilbo.load r1 0;
    Bilbo.set_mode r1 Bilbo.Signature;
    let gen = Lfsr.create ~width:8 ~seed:0x53 () in
    for _ = 1 to cycles do
      let i = Lfsr.state gen land ((1 lsl iw) - 1) in
      let pattern = Bilbo.state r2 in
      let response =
        eval_block ?fault c2_block ((i lsl w2) lor pattern) ~in_width:(iw + w2)
          ~out_width:w1
      in
      ignore (Bilbo.clock r2 ~parallel:0 ~serial:false);
      ignore (Bilbo.clock r1 ~parallel:response ~serial:false);
      ignore (Lfsr.step gen)
    done;
    Bilbo.state r1
  in
  let golden2 = run_session2 () in
  Format.printf "%d cycles applied; golden signature in R1: %d@." cycles golden2;

  section "Fault injection";
  let net1, _ = c1_block in
  let candidates = N.fault_sites net1 in
  let detected = ref 0 in
  List.iter
    (fun fault ->
      if run_session ~fault () <> golden1 then incr detected)
    candidates;
  Format.printf
    "injecting every stuck-at fault of C1 one by one: %d / %d change the\n\
     session-1 signature.@."
    !detected (List.length candidates);
  Format.printf
    "(a plain LFSR never emits the all-zero pattern, so a few faults need\n\
     the zero-injection the production grader in Stc_faultsim models.)@.";
  (match candidates with
  | example :: _ ->
    let s = run_session ~fault:example () in
    Format.printf
      "example: gate %d stuck-at-%d gives signature %d (golden %d) -> %s@."
      example.N.gate
      (Bool.to_int example.N.stuck_at)
      s golden1
      (if s <> golden1 then "DETECTED" else "escaped")
  | [] -> ());
  Format.printf
    "@.During normal operation both registers simply run in system mode -\n\
     no transparency, no bypass, no extra delay (section 1).@."
