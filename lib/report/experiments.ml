module Machine = Stc_fsm.Machine
module Zoo = Stc_fsm.Zoo
module Suite = Stc_benchmarks.Suite
module Solver = Stc_core.Solver
module Realization = Stc_core.Realization
module Partition = Stc_partition.Partition
module Tables = Stc_encoding.Tables
module Cover = Stc_logic.Cover
module Arch = Stc_faultsim.Arch
module Session = Stc_faultsim.Session
module Context = Stc_analysis.Context

type table1_entry = {
  spec : Suite.spec;
  s1 : int;
  s2 : int;
  ff_conventional : int;
  ff_pipeline : int;
  stats : Solver.stats;
}

let specs_named = function
  | None -> Suite.all
  | Some names ->
    List.map
      (fun name ->
        match Suite.find name with
        | Some spec -> spec
        | None -> invalid_arg (Printf.sprintf "unknown benchmark %S" name))
      names

let table1 ?(timeout = 120.0) ?jobs ?names () =
  List.map
    (fun (spec : Suite.spec) ->
      let machine = Suite.machine spec in
      let result = Solver.solve ~timeout ?jobs machine in
      let a = Partition.num_classes result.Solver.best.Solver.pi
      and b = Partition.num_classes result.Solver.best.Solver.rho in
      {
        spec;
        s1 = a;
        s2 = b;
        ff_conventional = Machine.flipflops_conventional machine;
        ff_pipeline = result.Solver.best.Solver.cost.Solver.bits;
        stats = result.Solver.stats;
      })
    (specs_named names)

let render_table1 entries =
  let rows =
    List.map
      (fun e ->
        [
          e.spec.Suite.name;
          string_of_int e.spec.Suite.states;
          string_of_int e.s1;
          string_of_int e.s2;
          string_of_int e.ff_conventional;
          string_of_int e.ff_pipeline;
          Printf.sprintf "%d/%d" e.spec.Suite.paper.Suite.s1 e.spec.Suite.paper.Suite.s2;
          Printf.sprintf "%d/%d" e.spec.Suite.paper.Suite.ff_conventional
            e.spec.Suite.paper.Suite.ff_pipeline;
          (if e.stats.Solver.timed_out then "timeout"
           else if e.spec.Suite.paper_timeout then "(paper: timeout)"
           else "");
        ])
      entries
  in
  Table.render
    ~header:
      [ "name"; "|S|"; "|S1|"; "|S2|"; "conv.BIST"; "pipeline";
        "paper S1/S2"; "paper FF"; "note" ]
    rows

let render_table2 entries =
  let rows =
    List.map
      (fun e ->
        [
          e.spec.Suite.name;
          string_of_int e.spec.Suite.states;
          Printf.sprintf "2^%d" e.stats.Solver.basis_size;
          string_of_int e.stats.Solver.investigated;
          string_of_int e.stats.Solver.deduped;
          (match e.spec.Suite.paper_investigated with
          | Some n -> string_of_int n
          | None -> "-");
        ])
      entries
  in
  Table.render
    ~header:
      [ "name"; "|S|"; "|V|"; "investigated"; "deduped"; "paper investigated" ]
    rows

type area_entry = {
  name : string;
  spec_transitions : int;
  factor_transitions : int;
  conv_cubes : int;
  conv_literals : int;
  pipe_cubes : int;
  pipe_literals : int;
  doubled_literals : int;
}

let area_of_machine ?timeout ?jobs (machine : Machine.t) =
  let ctx = Context.of_machine ?timeout ?jobs ~conventional:true machine in
  let cost (b : Context.block) = Cover.cost b.Context.minimized in
  let conv_cubes, conv_literals = cost (Option.get ctx.Context.block_c) in
  let sum f = List.fold_left (fun acc b -> acc + f (cost b)) 0 ctx.Context.blocks in
  let r = ctx.Context.realization in
  {
    name = machine.Machine.name;
    spec_transitions = Realization.spec_transitions r;
    factor_transitions = Realization.factor_transitions r;
    conv_cubes;
    conv_literals;
    pipe_cubes = sum fst;
    pipe_literals = sum snd;
    doubled_literals = 2 * conv_literals;
  }

(* tbk's monolithic block (2048-row covers) used to take minutes in the
   trit-array espresso loop; the packed bit-parallel engine minimizes it
   in seconds, so it is part of the default run. *)
let default_area_names =
  [ "bbara"; "dk16"; "dk27"; "dk512"; "shiftreg"; "tav"; "tbk" ]

let area ?timeout ?jobs ?names () =
  let names = match names with Some ns -> ns | None -> default_area_names in
  List.map
    (fun (spec : Suite.spec) ->
      area_of_machine ?timeout ?jobs (Suite.machine spec))
    (specs_named (Some names))

let render_area entries =
  let rows =
    List.map
      (fun e ->
        [
          e.name;
          string_of_int e.spec_transitions;
          string_of_int e.factor_transitions;
          Printf.sprintf "%d/%d" e.conv_cubes e.conv_literals;
          Printf.sprintf "%d/%d" e.pipe_cubes e.pipe_literals;
          string_of_int e.doubled_literals;
        ])
      entries
  in
  Table.render
    ~header:
      [ "name"; "trans C"; "trans C1+C2"; "C cubes/lits";
        "C1+C2+L cubes/lits"; "doubled lits" ]
    rows

type coverage_entry = {
  name : string;
  fig2_coverage : float;
  fig2_adjusted : float;
  fig2_redundant : int;
  fig2_ff : int;
  fig2_escaped_feedback : int;
  fig3_coverage : float;
  fig3_adjusted : float;
  fig3_redundant : int;
  fig3_ff : int;
  fig4_coverage : float;
  fig4_adjusted : float;
  fig4_redundant : int;
  fig4_ff : int;
}

let adjust ?jobs (b : Arch.built) (r : Session.report) =
  let observed = Session.union_observed b.Arch.sessions in
  let v = Stc_sat.Prove.redundant ?jobs ~observed b.Arch.netlist in
  (Session.adjusted r ~redundant:v.Stc_sat.Prove.redundant,
   List.length v.Stc_sat.Prove.redundant)

let zoo_machines =
  [
    ("fig5", fun () -> Zoo.paper_fig5 ());
    ("shiftreg4", fun () -> Zoo.shift_register ~bits:4);
    ("shiftreg6", fun () -> Zoo.shift_register ~bits:6);
    ("serial_adder", fun () -> Zoo.serial_adder ());
    ("counter8", fun () -> Zoo.counter ~modulus:8);
    ("counter16", fun () -> Zoo.counter ~modulus:16);
    ("toggle", fun () -> Zoo.toggle ());
    ("parity", fun () -> Zoo.parity ());
  ]

let machine_named name =
  match Suite.find name with
  | Some spec -> Some (Suite.machine spec)
  | None -> (
    match List.assoc_opt name zoo_machines with
    | Some build -> Some (build ())
    | None -> None)

let resolve name =
  match machine_named name with
  | Some m -> m
  | None -> invalid_arg (Printf.sprintf "unknown machine %S" name)

let default_coverage_names = [ "fig5"; "shiftreg"; "dk27"; "tav"; "mc"; "bbara" ]

let coverage ?(cycles = 1024) ?timeout ?jobs ?names () =
  let names = match names with Some ns -> ns | None -> default_coverage_names in
  List.map
    (fun name ->
      let ctx =
        Context.of_machine ?timeout ?jobs ~all_archs:true ~cycles (resolve name)
      in
      let fig2 = Context.structure ctx "fig2"
      and fig3 = Context.structure ctx "fig3"
      and fig4 = ctx.Context.fig4 in
      let r2 = Arch.grade ?jobs fig2
      and r3 = Arch.grade ?jobs fig3
      and r4 = Arch.grade ?jobs fig4 in
      let a2, red2 = adjust ?jobs fig2 r2
      and a3, red3 = adjust ?jobs fig3 r3
      and a4, red4 = adjust ?jobs fig4 r4 in
      let escaped =
        List.fold_left
          (fun acc (tag, n) ->
            if tag = "feedback" || tag = "r-input" || tag = "mux" then acc + n
            else acc)
          0
          (Arch.undetected_by_tag fig2 r2)
      in
      {
        name;
        fig2_coverage = r2.Session.coverage;
        fig2_adjusted = a2.Session.coverage;
        fig2_redundant = red2;
        fig2_ff = fig2.Arch.flipflops;
        fig2_escaped_feedback = escaped;
        fig3_coverage = r3.Session.coverage;
        fig3_adjusted = a3.Session.coverage;
        fig3_redundant = red3;
        fig3_ff = fig3.Arch.flipflops;
        fig4_coverage = r4.Session.coverage;
        fig4_adjusted = a4.Session.coverage;
        fig4_redundant = red4;
        fig4_ff = fig4.Arch.flipflops;
      })
    names

let render_coverage entries =
  let pct v = Printf.sprintf "%.1f%%" (100.0 *. v) in
  let rows =
    List.map
      (fun e ->
        [
          e.name;
          pct e.fig2_coverage;
          pct e.fig2_adjusted;
          string_of_int e.fig2_redundant;
          string_of_int e.fig2_ff;
          string_of_int e.fig2_escaped_feedback;
          pct e.fig3_coverage;
          pct e.fig3_adjusted;
          string_of_int e.fig3_redundant;
          string_of_int e.fig3_ff;
          pct e.fig4_coverage;
          pct e.fig4_adjusted;
          string_of_int e.fig4_redundant;
          string_of_int e.fig4_ff;
        ])
      entries
  in
  Table.render
    ~header:
      [ "name"; "fig2 cov"; "adj"; "red"; "ff"; "escaped fb";
        "fig3 cov"; "adj"; "red"; "ff";
        "fig4 cov"; "adj"; "red"; "ff" ]
    rows

type strategy_entry = {
  name : string;
  seq_coverage : float;
  seq_cycles_90 : int option;
  scan_coverage : float;
  scan_cycles : int;
  bist_coverage : float;
  bist_cycles : int;
}

let default_strategy_names = [ "fig5"; "shiftreg"; "counter8"; "dk27"; "mc" ]

let strategies ?(cycles = 1024) ?jobs ?names () =
  let names = match names with Some ns -> ns | None -> default_strategy_names in
  List.map
    (fun name ->
      let ctx =
        Context.of_machine ?jobs ~conventional:true ~cycles (resolve name)
      in
      let cover = (Option.get ctx.Context.block_c).Context.minimized in
      let enc = ctx.Context.tables.Tables.enc in
      let seq = Stc_faultsim.Seqtest.run_conventional ?jobs ~cycles ~cover enc in
      let scan = Stc_faultsim.Scan.run ?jobs ~patterns:cycles ~cover enc in
      let bist = Arch.grade ?jobs ctx.Context.fig4 in
      {
        name;
        seq_coverage = seq.Stc_faultsim.Seqtest.coverage;
        seq_cycles_90 = Stc_faultsim.Seqtest.cycles_to_coverage seq 0.9;
        scan_coverage = scan.Stc_faultsim.Scan.report.Session.coverage;
        scan_cycles = scan.Stc_faultsim.Scan.test_cycles;
        bist_coverage = bist.Session.coverage;
        bist_cycles = 2 * cycles;
      })
    names

let render_strategies entries =
  let pct v = Printf.sprintf "%.1f%%" (100.0 *. v) in
  let rows =
    List.map
      (fun e ->
        [
          e.name;
          pct e.seq_coverage;
          (match e.seq_cycles_90 with Some c -> string_of_int c | None -> "-");
          pct e.scan_coverage;
          string_of_int e.scan_cycles;
          pct e.bist_coverage;
          string_of_int e.bist_cycles;
        ])
      entries
  in
  Table.render
    ~header:
      [ "name"; "seq cov"; "seq 90% at"; "scan cov"; "scan cycles";
        "fig4 BIST cov"; "BIST cycles" ]
    rows

type extension_entry = {
  name : string;
  base_bits : int;
  split_bits : int;
  split_states_added : int;
}

let default_extension_names = [ "shiftreg"; "fig5"; "dk27"; "tav"; "counter8" ]

let extensions ?(timeout = 20.0) ?names () =
  let names = match names with Some ns -> ns | None -> default_extension_names in
  List.map
    (fun name ->
      let machine = resolve name in
      let base = (Solver.solve ~timeout machine).Solver.best in
      let improved = Stc_core.Split.improve ~timeout machine in
      {
        name;
        base_bits = base.Solver.cost.Solver.bits;
        split_bits =
          improved.Stc_core.Split.solution.Solver.cost.Solver.bits;
        split_states_added =
          improved.Stc_core.Split.machine.Machine.num_states
          - machine.Machine.num_states;
      })
    names

let render_extensions entries =
  let rows =
    List.map
      (fun e ->
        [
          e.name;
          string_of_int e.base_bits;
          string_of_int e.split_bits;
          string_of_int e.split_states_added;
        ])
      entries
  in
  Table.render
    ~header:[ "name"; "2-stage FFs"; "after split"; "states added" ]
    rows

type decomposition_entry = {
  name : string;
  ostr_bits : int;
  parallel : string;
  serial : string;
}

let default_decomposition_names =
  [ "shiftreg"; "fig5"; "counter8"; "dk27"; "tav"; "bbara" ]

let decomposition ?(timeout = 60.0) ?names () =
  let names =
    match names with Some ns -> ns | None -> default_decomposition_names
  in
  List.map
    (fun name ->
      let machine = resolve name in
      let ostr = (Solver.solve ~timeout machine).Solver.best in
      let parallel =
        match Stc_core.Decompose.parallel machine with
        | Some p ->
          Printf.sprintf "%d x %d = %d bits"
            (Partition.num_classes p.Stc_core.Decompose.pi1)
            (Partition.num_classes p.Stc_core.Decompose.pi2)
            p.Stc_core.Decompose.bits
        | None -> "-"
      in
      let serial =
        match Stc_core.Decompose.serial machine with
        | Some s ->
          Printf.sprintf "head %d + tail %d = %d bits"
            (Partition.num_classes s.Stc_core.Decompose.head)
            s.Stc_core.Decompose.tail_states s.Stc_core.Decompose.bits
        | None -> "-"
      in
      { name; ostr_bits = ostr.Solver.cost.Solver.bits; parallel; serial })
    names

let render_decomposition entries =
  let rows =
    List.map
      (fun e -> [ e.name; string_of_int e.ostr_bits; e.parallel; e.serial ])
      entries
  in
  Table.render
    ~header:
      [ "name"; "OSTR pipeline FFs"; "parallel decomposition";
        "serial decomposition" ]
    rows

type aliasing_entry = {
  name : string;
  misr_width : int;
  stream_detected : int;
  aliased : int;
  aliasing_rate : float;
}

let default_aliasing_names = [ "fig5"; "shiftreg"; "dk27"; "tav"; "mc" ]

let aliasing ?(cycles = 512) ?jobs ?names () =
  let names = match names with Some ns -> ns | None -> default_aliasing_names in
  List.map
    (fun name ->
      let ctx = Context.of_machine ?jobs ~cycles (resolve name) in
      let r = Stc_faultsim.Aliasing.measure ?jobs ctx.Context.fig4 in
      {
        name;
        misr_width = r.Stc_faultsim.Aliasing.misr_width;
        stream_detected = r.Stc_faultsim.Aliasing.stream_detected;
        aliased = r.Stc_faultsim.Aliasing.aliased;
        aliasing_rate = r.Stc_faultsim.Aliasing.aliasing_rate;
      })
    names

let render_aliasing entries =
  let rows =
    List.map
      (fun e ->
        [
          e.name;
          string_of_int e.misr_width;
          string_of_int e.stream_detected;
          string_of_int e.aliased;
          Printf.sprintf "%.2f%%" (100.0 *. e.aliasing_rate);
          Printf.sprintf "%.2f%%" (100.0 /. Float.pow 2.0 (float_of_int e.misr_width));
        ])
      entries
  in
  Table.render
    ~header:
      [ "name"; "MISR width"; "stream-detected"; "aliased"; "rate";
        "theory 2^-w" ]
    rows

(* ------------------------------------------------------------------ *)
(* SCOAP testability: conventional vs decomposed structures            *)
(* ------------------------------------------------------------------ *)

type scoap_entry = {
  name : string;
  conv_gates : int;
  conv : Stc_analysis.Scoap.summary;
  pipe_gates : int;
  pipe : Stc_analysis.Scoap.summary;
}

(* tbk stays opt-in here: the packed engine minimizes its monolithic block
   quickly now, but the resulting netlist is still large to levelize.
   `ostr scoap --names tbk` runs it. *)
let default_scoap_names = [ "fig5"; "shiftreg"; "dk16"; "dk512"; "tav" ]

let scoap ?timeout ?names () =
  let module Scoap = Stc_analysis.Scoap in
  let names = match names with Some ns -> ns | None -> default_scoap_names in
  List.map
    (fun name ->
      let ctx = Context.of_machine ?timeout ~conventional:true (resolve name) in
      let summarize label =
        let net = (Context.structure ctx label).Arch.netlist in
        (Stc_netlist.Netlist.num_gates net, Scoap.summarize net (Scoap.analyze net))
      in
      let conv_gates, conv = summarize "fig1" in
      let pipe_gates, pipe = summarize "fig4" in
      { name; conv_gates; conv; pipe_gates; pipe })
    names

let render_scoap entries =
  let maxes (s : Stc_analysis.Scoap.summary) =
    Printf.sprintf "%d/%d/%d" s.Stc_analysis.Scoap.cc0_max
      s.Stc_analysis.Scoap.cc1_max s.Stc_analysis.Scoap.co_max
  in
  let means (s : Stc_analysis.Scoap.summary) =
    Printf.sprintf "%.1f/%.1f/%.1f" s.Stc_analysis.Scoap.cc0_mean
      s.Stc_analysis.Scoap.cc1_mean s.Stc_analysis.Scoap.co_mean
  in
  let hard (s : Stc_analysis.Scoap.summary) =
    s.Stc_analysis.Scoap.uncontrollable + s.Stc_analysis.Scoap.unobservable
  in
  let rows =
    List.map
      (fun e ->
        [
          e.name;
          string_of_int e.conv_gates;
          maxes e.conv;
          means e.conv;
          string_of_int e.pipe_gates;
          maxes e.pipe;
          means e.pipe;
          Printf.sprintf "%d/%d" (hard e.conv) (hard e.pipe);
        ])
      entries
  in
  Table.render
    ~header:
      [ "name"; "fig1 gates"; "fig1 max CC0/CC1/CO"; "fig1 mean";
        "fig4 gates"; "fig4 max CC0/CC1/CO"; "fig4 mean"; "hard fig1/fig4" ]
    rows
