(* Benchmark harness.

     bench [tables | SUITE | SUITE-quick] [OUT] [--profile FILE]

   (`dune exec bench/main.exe -- ...`)

   - `tables` (the default): regenerate every evaluation artifact of the
     paper - Tables 1 and 2, the section-4 area discussion, the figs. 1-4
     fault-coverage comparison and the extensions (see EXPERIMENTS.md).
   - `SUITE`: run one layer suite of the registry at the end of this file
     on its full row set and write BENCH_<SUITE>.json, or OUT.
   - `SUITE-quick`: the same checks on the suite's small row set - the
     CI gates of tools/check.sh; writes OUT only when it is given.

   A suite run prints one line per row as the row completes, then one
   `FAIL <row>: <reason>` line per failing row.  It writes its file only
   when every row passes, and exits with the number of failing rows.
   `--profile FILE` samples the whole run and writes folded stacks. *)

module Machine = Stc_fsm.Machine
module Suite = Stc_benchmarks.Suite
module Partition = Stc_partition.Partition
module Solver = Stc_core.Solver
module Anytime = Stc_core.Anytime
module Generate = Stc_fsm.Generate
module Tables = Stc_encoding.Tables
module Minimize = Stc_logic.Minimize
module Arch = Stc_faultsim.Arch
module Experiments = Stc_report.Experiments
module Context = Stc_analysis.Context
module Clock = Stc_util.Clock
module Json = Stc_obs.Json
module Trace = Stc_obs.Trace
module Metrics = Stc_obs.Metrics
module Profile = Stc_obs.Profile
module Parmon = Stc_obs.Parmon
module Schema = Stc_benchmarks.Schema

(* ------------------------------------------------------------------ *)
(* Artifact regeneration (the paper's tables and figures)              *)
(* ------------------------------------------------------------------ *)

let print_tables () =
  Format.printf
    "=== Table 1: factors and flip-flop counts (paper values for comparison) ===@.@.";
  let entries = Experiments.table1 ~timeout:120.0 () in
  print_string (Experiments.render_table1 entries);
  Format.printf
    "@.=== Table 2: search space vs nodes investigated (Lemma-1 pruning) ===@.@.";
  print_string (Experiments.render_table2 entries);
  Format.printf
    "@.=== Section 4: two-level area, block C vs blocks C1+C2+Lambda vs doubling ===@.@.";
  print_string (Experiments.render_area (Experiments.area ()));
  Format.printf
    "@.=== Figs. 1-4: stuck-at coverage of the self-testable structures ===@.@.";
  print_string (Experiments.render_coverage (Experiments.coverage ()));
  Format.printf
    "@.(fig2 = conventional BIST with test register; fig3 = doubled;\n\
     fig4 = the paper's pipeline structure.  'escaped fb' counts the\n\
     undetected faults on the R-to-C feedback path of fig. 2.)@.";
  Format.printf
    "@.=== Section 1 motivation: test length by strategy ===@.@.";
  print_string (Experiments.render_strategies (Experiments.strategies ()));
  Format.printf
    "@.=== Extension: state splitting (the paper's future work) ===@.@.";
  print_string (Experiments.render_extensions (Experiments.extensions ()));
  Format.printf
    "@.=== Baseline: classical parallel/serial decomposition [16,3,15] ===@.@.";
  print_string (Experiments.render_decomposition (Experiments.decomposition ()));
  Format.printf
    "@.=== MISR aliasing on the fig. 4 structure (ideal-compaction check) ===@.@.";
  print_string (Experiments.render_aliasing (Experiments.aliasing ()))

(* ------------------------------------------------------------------ *)
(* The suite record                                                    *)
(* ------------------------------------------------------------------ *)

(* One layer suite.  [rows ~quick] is lazy, so [run_suite] prints each
   row as it completes; [failure] is why a row fails the suite, [None] when
   it passes. *)
type 'row suite = {
  name : string;  (* the mode, and BENCH_<name>.json *)
  jobs : int;  (* the fan-out recorded in the file header *)
  header : quick:bool -> (string * Json.t) list;  (* suite-specific fields *)
  rows : quick:bool -> 'row Seq.t;
  label : 'row -> string;
  print : ok:bool -> 'row -> unit;
  to_json : 'row -> Json.t;
  failure : 'row -> string option;
}

(* The reasons whose condition holds, joined; [None] when none does. *)
let failing checks =
  match List.filter_map (fun (bad, why) -> if bad then Some why else None) checks with
  | [] -> None
  | whys -> Some (String.concat "; " whys)

let par_jobs = max 2 (Domain.recommended_domain_count ())

let recommended_domains =
  ("recommended_domains", Json.Int (Domain.recommended_domain_count ()))

let timed f =
  let t0 = Clock.now () in
  let r = f () in
  (r, Clock.elapsed ~since:t0)

let benchmark_machine name =
  match Experiments.machine_named name with
  | Some m -> m
  | None -> invalid_arg name

(* ------------------------------------------------------------------ *)
(* solver: the heavy Table-1 rows, sequential vs parallel              *)
(* ------------------------------------------------------------------ *)

(* dk16, dk512 and tbk, each solved at jobs 1 and at jobs [par_jobs] with
   the span tracer and metrics on.  A row fails on the 30 s cap, on
   factors other than the paper's, on a sequential/parallel cost
   disagreement, or on jobs-1 investigated / deduped / pruned counts other
   than the [sequential] columns of the BENCH_solver.json in the working
   directory.  The sequential traversal is deterministic, so those counts
   are exact: any drift is a change in the search, never noise.  A change
   that alters the search on purpose deletes the file and regenerates it
   with `bench solver` - with no file there is nothing to compare
   against.  The three rows take under a second, so the quick subset is
   the whole suite. *)

let heavy_names = [ "dk16"; "dk512"; "tbk" ]
let solver_cap = 30.0

(* One instrumented solver execution: result, wall clock, per-phase span
   totals (seconds, summed across domains - concurrent DFS workers can
   exceed wall time) and the merged metrics counters. *)
type instrumented = {
  result : Solver.result;
  wall : float;
  phases : (string * float) list;
  counters : (string * int) list;
}

type solver_run = {
  spec : Suite.spec;
  seq : instrumented;
  par : instrumented;
}

let instrumented_solve ?jobs machine =
  Trace.set_enabled true;
  Metrics.set_enabled true;
  Trace.reset ();
  Metrics.reset ();
  let result, wall =
    timed (fun () -> Solver.solve ~timeout:solver_cap ?jobs machine)
  in
  let phases = Trace.phase_totals () in
  let counters =
    List.filter_map
      (fun (name, v) ->
        match v with
        | Metrics.Counter n | Metrics.Gauge n ->
          if n <> 0 then Some (name, n) else None
        | Metrics.Histogram _ -> None)
      (Metrics.snapshot ())
  in
  Trace.set_enabled false;
  Metrics.set_enabled false;
  { result; wall; phases; counters }

let solver_row name =
  let spec = Option.get (Suite.find name) in
  let machine = Suite.machine spec in
  let seq = instrumented_solve machine in
  let par = instrumented_solve ~jobs:par_jobs machine in
  { spec; seq; par }

let work_figures =
  [
    ("investigated", fun s -> s.Solver.investigated);
    ("deduped", fun s -> s.Solver.deduped);
    ("pruned", fun s -> s.Solver.pruned);
  ]

(* The [field] objects of the rows of the BENCH file [path] in the
   working directory, by row name; [None] when there is no such file. *)
let committed_rows path field =
  lazy
    (if not (Sys.file_exists path) then begin
       Printf.printf "work figures: no %s, not checked\n" path;
       None
     end
     else
       Some
         (match Json.parse_file path with
         | exception Sys_error msg -> Error msg
         | Error msg -> Error (path ^ ": " ^ msg)
         | Ok doc ->
           let rows =
             match Json.member "rows" doc with
             | Some (Json.List rows) -> rows
             | _ -> []
           in
           Ok
             (List.filter_map
                (fun row ->
                  match (Json.member "name" row, Json.member field row) with
                  | Some (Json.String name), Some obj -> Some (name, obj)
                  | _ -> None)
                rows)))

(* The [figures] (key, value) that differ from the integer fields of
   [committed], a row object of [path]; a missing field reads [missing]
   when given, and differs otherwise. *)
let figure_drift ~path ?missing committed figures =
  List.filter_map
    (fun (key, v) ->
      match (Json.member key committed, missing) with
      | Some (Json.Int x), _ | None, Some x ->
        if x = v then None
        else Some (Printf.sprintf "%s %d (%s %d)" key v path x)
      | _ -> Some (Printf.sprintf "%s %d (%s missing)" key v path))
    figures

let committed_sequential = committed_rows "BENCH_solver.json" "sequential"

let work_drift name stats =
  match Lazy.force committed_sequential with
  | None -> []
  | Some (Error msg) -> [ msg ]
  | Some (Ok committed) ->
    figure_drift ~path:"BENCH_solver.json"
      (Option.value (List.assoc_opt name committed) ~default:(Json.Obj []))
      (List.map (fun (key, figure) -> (key, figure stats)) work_figures)

let factors (r : Solver.result) =
  ( Partition.num_classes r.Solver.best.Solver.pi,
    Partition.num_classes r.Solver.best.Solver.rho )

let cost_equal r =
  Solver.compare_cost r.seq.result.Solver.best.Solver.cost
    r.par.result.Solver.best.Solver.cost
  = 0

let solver_failure r =
  let stats = r.seq.result.Solver.stats in
  let s1, s2 = factors r.seq.result in
  let paper = r.spec.Suite.paper in
  failing
    ([
       ( stats.Solver.timed_out || r.par.result.Solver.stats.Solver.timed_out,
         Printf.sprintf "hit the %.0f s cap" solver_cap );
       ( (s1, s2) <> (paper.Suite.s1, paper.Suite.s2),
         Printf.sprintf "factors %d/%d (paper %d/%d)" s1 s2 paper.Suite.s1
           paper.Suite.s2 );
       (not (cost_equal r), "sequential and parallel costs differ");
     ]
    @ List.map (fun d -> (true, d)) (work_drift r.spec.Suite.name stats))

let print_solver_row ~ok r =
  let stats = r.seq.result.Solver.stats in
  let s1, s2 = factors r.seq.result in
  let paper = r.spec.Suite.paper in
  Printf.printf
    "%-8s %s  %.2fs  factors %d/%d (paper %d/%d)  investigated %d  deduped %d%s\n"
    r.spec.Suite.name
    (if ok then "ok  " else "FAIL")
    r.seq.wall s1 s2 paper.Suite.s1 paper.Suite.s2 stats.Solver.investigated
    stats.Solver.deduped
    (if stats.Solver.timed_out then "  (timeout)" else "")

let json_of_instrumented (i : instrumented) =
  let stats = i.result.Solver.stats in
  Json.Obj
    [
      ("wall_s", Json.Float i.wall);
      ("investigated", Json.Int stats.Solver.investigated);
      ("deduped", Json.Int stats.Solver.deduped);
      ("pruned", Json.Int stats.Solver.pruned);
      ("memo_hits", Json.Int stats.Solver.memo_hits);
      ("timed_out", Json.Bool stats.Solver.timed_out);
      (* Per-phase span seconds, summed over domains: the dfs entry of a
         parallel run counts every worker's time, so dfs > wall_s means
         the fan-out burned more CPU than the sequential walk - exactly
         the BENCH_solver.json slowdown question. *)
      ( "phases",
        Json.Obj (List.map (fun (n, s) -> (n, Json.Float s)) i.phases) );
      ( "metrics",
        Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) i.counters) );
    ]

let json_of_solver_row r =
  let best = r.seq.result.Solver.best in
  let s1, s2 = factors r.seq.result in
  Json.Obj
    [
      ("name", Json.String r.spec.Suite.name);
      ("states", Json.Int r.spec.Suite.states);
      ("basis", Json.Int r.seq.result.Solver.stats.Solver.basis_size);
      ("s1", Json.Int s1);
      ("s2", Json.Int s2);
      ("bits", Json.Int best.Solver.cost.Solver.bits);
      ("sequential", json_of_instrumented r.seq);
      ("parallel", json_of_instrumented r.par);
      ("parallel_jobs", Json.Int par_jobs);
      ("speedup", Json.Float (r.seq.wall /. Float.max 1e-9 r.par.wall));
      ("cost_equal", Json.Bool (cost_equal r));
    ]

let solver_suite =
  {
    name = "solver";
    jobs = par_jobs;
    header = (fun ~quick:_ -> [ recommended_domains ]);
    rows = (fun ~quick:_ -> Seq.map solver_row (List.to_seq heavy_names));
    label = (fun r -> r.spec.Suite.name);
    print = print_solver_row;
    to_json = json_of_solver_row;
    failure = solver_failure;
  }

(* ------------------------------------------------------------------ *)
(* faultsim: naive vs optimized vs multicore fault grading             *)
(* ------------------------------------------------------------------ *)

(* Per machine, the fig. 4 structure graded by the naive reference, by
   the collapsed + cone-limited engine at jobs 1 and at jobs [par_jobs],
   and the fig. 1 structure's sequential random test at jobs 1 and N.  A
   row fails when any engine disagrees with the naive reference.  Quick:
   fig5 and dk27 with 256-cycle sessions. *)

module Session = Stc_faultsim.Session

let faultsim_config ~quick =
  if quick then ([ "fig5"; "dk27" ], 256)
  else ([ "fig5"; "shiftreg"; "dk27"; "tav"; "mc"; "bbara"; "dk16" ], 2048)

let counter_of name =
  match Metrics.find name with Some (Metrics.Counter n) -> n | _ -> 0

let hist_mean name =
  match Metrics.find name with
  | Some (Metrics.Histogram h) when h.Metrics.count > 0 ->
    float_of_int h.Metrics.sum /. float_of_int h.Metrics.count
  | _ -> 0.0

type fs_run = {
  fs_report : Session.report;
  fs_wall : float;
  fs_gate_evals : int;
  fs_raw : int;
  fs_classes : int;
  fs_dom_skips : int;
  fs_one_operand : int;
  fs_mean_cone : float;
}

(* One metered grading run.  Metrics are enabled only around [f] and
   [need_cycles:false] is forced by the callers, so the dominance
   shortcut stays on - this measures the production configuration, not
   the histogram-exact one. *)
let fs_instrumented f =
  Metrics.set_enabled true;
  Metrics.reset ();
  let fs_report, fs_wall = timed f in
  let run =
    {
      fs_report;
      fs_wall;
      fs_gate_evals = counter_of "faultsim.gate_evals";
      fs_raw = counter_of "faultsim.faults.raw";
      fs_classes = counter_of "faultsim.faults.classes";
      fs_dom_skips = counter_of "faultsim.dominance_skips";
      fs_one_operand = counter_of "faultsim.one_operand_evals";
      fs_mean_cone = hist_mean "faultsim.cone_size";
    }
  in
  Metrics.set_enabled false;
  run

type fs_row = {
  fs_name : string;
  fs_gates : int;
  naive : fs_run;
  opt : fs_run;  (* collapsed + cone-limited, jobs = 1 *)
  par : fs_run;  (* same engine, jobs = par_jobs *)
  (* Sequential random testing of the fig. 1 structure: per-class work is
     a whole multi-cycle replay, so this is where fault-parallel domains
     pay off (the combinational grading above is cone-limited into the
     sub-millisecond range, where domain spawns dominate). *)
  seq_j1 : float;
  seq_jn : float;
  seq_ok : bool;
}

let fs_equal a b =
  a.Session.total = b.Session.total
  && a.Session.detected = b.Session.detected
  && a.Session.undetected = b.Session.undetected

let faultsim_failure r =
  failing
    [
      ( not (fs_equal r.naive.fs_report r.opt.fs_report),
        "optimized grading disagrees with naive" );
      ( not (fs_equal r.naive.fs_report r.par.fs_report),
        "parallel grading disagrees with naive" );
      (not r.seq_ok, "sequential test differs between jobs 1 and N");
    ]

let faultsim_row ~cycles name =
  let ctx =
    Context.of_machine ~conventional:true ~cycles (benchmark_machine name)
  in
  let built = ctx.Context.fig4 in
  let naive = fs_instrumented (fun () -> Arch.grade ~naive:true built) in
  let opt =
    fs_instrumented (fun () -> Arch.grade ~jobs:1 ~need_cycles:false built)
  in
  let par =
    fs_instrumented (fun () ->
        Arch.grade ~jobs:par_jobs ~need_cycles:false built)
  in
  let enc = ctx.Context.tables.Tables.enc in
  let code = enc.Tables.state_code in
  let seqtest jobs =
    Stc_faultsim.Seqtest.run ~jobs ~cycles
      ~state_width:code.Stc_encoding.Code.width
      ~reset_code:code.Stc_encoding.Code.codes.(ctx.Context.machine.Machine.reset)
      (Context.structure ctx "fig1").Arch.netlist
  in
  let s1, seq_j1 = timed (fun () -> seqtest 1) in
  let sn, seq_jn = timed (fun () -> seqtest par_jobs) in
  let seq_ok =
    s1.Stc_faultsim.Seqtest.detected = sn.Stc_faultsim.Seqtest.detected
    && s1.Stc_faultsim.Seqtest.detection_cycles
       = sn.Stc_faultsim.Seqtest.detection_cycles
  in
  {
    fs_name = name;
    fs_gates = Stc_netlist.Netlist.num_gates built.Arch.netlist;
    naive;
    opt;
    par;
    seq_j1;
    seq_jn;
    seq_ok;
  }

let json_of_fs_row r =
  let ratio a b = float_of_int a /. Float.max 1.0 (float_of_int b) in
  Json.Obj
    [
      ("name", Json.String r.fs_name);
      ("gates", Json.Int r.fs_gates);
      ("raw_faults", Json.Int r.opt.fs_raw);
      ("classes", Json.Int r.opt.fs_classes);
      ("collapse_ratio", Json.Float (ratio r.opt.fs_raw r.opt.fs_classes));
      ("mean_cone", Json.Float r.opt.fs_mean_cone);
      ( "naive",
        Json.Obj
          [
            ("wall_s", Json.Float r.naive.fs_wall);
            ("gate_evals", Json.Int r.naive.fs_gate_evals);
          ] );
      ( "optimized",
        Json.Obj
          [
            ("wall_s", Json.Float r.opt.fs_wall);
            ("gate_evals", Json.Int r.opt.fs_gate_evals);
            ("dominance_skips", Json.Int r.opt.fs_dom_skips);
            ("one_operand_evals", Json.Int r.opt.fs_one_operand);
          ] );
      ( "parallel",
        Json.Obj
          [
            ("jobs", Json.Int par_jobs);
            ("wall_s", Json.Float r.par.fs_wall);
          ] );
      ( "gate_eval_ratio",
        Json.Float (ratio r.naive.fs_gate_evals r.opt.fs_gate_evals) );
      ( "speedup_optimized",
        Json.Float (r.naive.fs_wall /. Float.max 1e-9 r.opt.fs_wall) );
      ( "speedup_parallel",
        Json.Float (r.opt.fs_wall /. Float.max 1e-9 r.par.fs_wall) );
      ( "seqtest",
        Json.Obj
          [
            ("wall_j1_s", Json.Float r.seq_j1);
            ("wall_jn_s", Json.Float r.seq_jn);
            ("jobs", Json.Int par_jobs);
            ("speedup", Json.Float (r.seq_j1 /. Float.max 1e-9 r.seq_jn));
          ] );
      ("coverage", Json.Float r.naive.fs_report.Session.coverage);
      ("detected", Json.Int r.naive.fs_report.Session.detected);
      ("total", Json.Int r.naive.fs_report.Session.total);
      ("equal", Json.Bool (faultsim_failure r = None));
    ]

let print_fs_row ~ok r =
  Printf.printf
    "%-8s %s  %d faults -> %d classes  naive %.3fs (%d evals)  opt %.3fs \
     (%d evals, %.1fx fewer)  par(x%d) %.3fs (%.2fx)  seqtest %.2fs -> \
     %.2fs (%.2fx)\n"
    r.fs_name
    (if ok then "ok  " else "FAIL")
    r.opt.fs_raw r.opt.fs_classes r.naive.fs_wall r.naive.fs_gate_evals
    r.opt.fs_wall r.opt.fs_gate_evals
    (float_of_int r.naive.fs_gate_evals
    /. Float.max 1.0 (float_of_int r.opt.fs_gate_evals))
    par_jobs r.par.fs_wall
    (r.opt.fs_wall /. Float.max 1e-9 r.par.fs_wall)
    r.seq_j1 r.seq_jn
    (r.seq_j1 /. Float.max 1e-9 r.seq_jn)

let faultsim_suite =
  {
    name = "faultsim";
    jobs = par_jobs;
    header =
      (fun ~quick ->
        [ ("cycles", Json.Int (snd (faultsim_config ~quick))); recommended_domains ]);
    rows =
      (fun ~quick ->
        let machines, cycles = faultsim_config ~quick in
        Seq.map (faultsim_row ~cycles) (List.to_seq machines));
    label = (fun r -> r.fs_name);
    print = print_fs_row;
    to_json = json_of_fs_row;
    failure = faultsim_failure;
  }

(* ------------------------------------------------------------------ *)
(* minimize: naive trit-array vs packed vs multicore espresso          *)
(* ------------------------------------------------------------------ *)

(* The monolithic block C of the conventional structure per machine,
   then the three fig. 4 pipeline blocks (rows [<m>/c1], [<m>/c2],
   [<m>/lambda]) the flow actually minimizes, each through the naive
   reference and the packed engine at jobs 1 and N.  A row fails when an
   engine violates the minimization contract, jobs > 1 changes the
   cover, or its jobs-1 cubes, literals, iterations or EXPAND raise
   counts differ from the [packed] columns of the BENCH_minimize.json row
   of the same name in the working directory.  The engine is
   deterministic, so those figures are exact: a change that alters the
   covers on purpose deletes the file and regenerates it with
   `bench minimize`.  Quick: block C of dk27, mc, bbara and dk512, and
   the pipeline blocks of dk27, mc, bbara and dk16 (dk512 and dk16's are
   committed rows).  Every corpus block raises its cubes on EXPAND's
   off-set bitmaps; the row [random/26x64] (both sets, committed) is
   raised on the blocking matrices. *)

module Cover = Stc_logic.Cover
module Cube = Stc_logic.Cube

(* A seeded random cover over [num_vars] variables and two outputs:
   [n] random cubes (each literal a don't-care with probability 3/10),
   each cut into the four quarters of two of its don't-care columns, so
   that EXPAND has raises to accept; [n/4] random don't-care cubes.  At
   26 variables its off-set bitmaps would hold 2^27 points, past their
   cap. *)
let mz_random ~num_vars n =
  let rng = Stc_util.Rng.create 1 in
  let random_row () =
    Bytes.init num_vars (fun _ ->
        match Stc_util.Rng.int rng 10 with
        | 0 | 1 | 2 -> '-'
        | k -> if k land 1 = 0 then '0' else '1')
  in
  let outputs () = if Stc_util.Rng.bool rng then " 11" else " 10" in
  let quarters () =
    let row = random_row () and out = outputs () in
    let free = List.filter (fun k -> Bytes.get row k = '-') (List.init num_vars Fun.id) in
    match free with
    | a :: b :: _ ->
      List.map
        (fun (x, y) ->
          let q = Bytes.copy row in
          Bytes.set q a x;
          Bytes.set q b y;
          Bytes.to_string q ^ out)
        [ ('0', '0'); ('0', '1'); ('1', '0'); ('1', '1') ]
    | _ -> [ Bytes.to_string row ^ out ]
  in
  let on = List.concat (List.init n (fun _ -> quarters ())) in
  let dc = List.init (n / 4) (fun _ -> Bytes.to_string (random_row ()) ^ outputs ()) in
  let cover rows = Cover.of_strings ~num_vars ~num_outputs:2 rows in
  (Printf.sprintf "random/%dx%d" num_vars n, cover on, cover dc)

let mz_blocks ~quick =
  let machines, pipeline =
    if quick then
      ([ "dk27"; "mc"; "bbara"; "dk512" ], [ "dk27"; "mc"; "bbara"; "dk16" ])
    else ([ "dk16"; "s1"; "dk512"; "tbk" ], [ "dk16"; "tbk" ])
  in
  List.map
    (fun name ->
      let on, dc = Tables.conventional (Tables.encode (benchmark_machine name)) in
      (name, on, dc))
    machines
  @ List.concat_map
      (fun name ->
        List.map
          (fun b -> (name ^ "/" ^ b.Context.block_label, b.Context.on, b.Context.dc))
          (Context.of_machine (benchmark_machine name)).Context.blocks)
      pipeline
  @ [ mz_random ~num_vars:26 64 ]

(* The naive reference predates every performance fix; on s1's 5000-row
   monolithic block a full pass takes hours.  Cap it and report the
   speedup as a lower bound ([capped] in the JSON). *)
let mz_naive_budget = 600.0

type mz_run = {
  mz_wall : float;
  mz_result : (Cover.t * Minimize.report) option;  (* None: budget exhausted *)
  mz_counters : (string * int) list;
}

(* The [minimize.*] counters recorded per engine.  Each is a pure
   function of the covers, so the jobs-1 and jobs-N runs must read the
   same values. *)
let mz_counter_names =
  [
    "minimize.expand_raises_attempted";
    "minimize.expand_raises_accepted";
    "minimize.tautology_calls";
    "minimize.dense_queries";
    "minimize.wide_queries";
    "minimize.count_queries";
    "minimize.dense_expands";
    "minimize.wide_expands";
    "minimize.expand_cube_gain";
    "minimize.expand_literal_gain";
    "minimize.irredundant_cube_gain";
    "minimize.irredundant_literal_gain";
    "minimize.reduce_cube_gain";
    "minimize.reduce_literal_gain";
  ]

(* One metered minimization.  The leaf's scratch is cleared first so
   every engine starts cold. *)
let mz_instrumented f =
  Cover.clear_caches ();
  Metrics.set_enabled true;
  Metrics.reset ();
  let mz_result, mz_wall =
    timed (fun () ->
        match f () with
        | r -> Some r
        | exception Stc_logic.Naive.Timeout -> None)
  in
  let mz_counters =
    List.filter_map
      (fun name ->
        match Metrics.find name with
        | Some (Metrics.Counter n) when n <> 0 -> Some (name, n)
        | _ -> None)
      mz_counter_names
  in
  Metrics.set_enabled false;
  { mz_wall; mz_result; mz_counters }

type mz_row = {
  mz_name : string;
  mz_vars : int;
  mz_outs : int;
  mz_dc_cubes : int;
  mz_naive : mz_run;
  mz_packed : mz_run;  (* bit-parallel engine, jobs = 1 *)
  mz_par : mz_run;  (* same engine, jobs = par_jobs *)
  (* Every completed result meets the contract (on \ dc) <= r <=
     (on + dc); since they also cover nothing outside on+dc this makes
     them pairwise equivalent on every care point - the naive-vs-packed
     cross-check.  A budget-capped naive run has nothing to check. *)
  mz_verified : bool;
  mz_deterministic : bool;  (* jobs:1 and jobs:N covers cube-identical *)
}

let mz_same a b =
  Array.length a.Cover.cubes = Array.length b.Cover.cubes
  && Array.for_all2 Cube.equal a.Cover.cubes b.Cover.cubes

let mz_packed_exn label r =
  match r.mz_result with
  | Some result -> result
  | None -> failwith (label ^ ": packed engine exceeded the naive budget?")

let committed_packed = committed_rows "BENCH_minimize.json" "packed"

(* A counter of a run; zero counters are not recorded. *)
let mz_counter run name =
  Option.value (List.assoc_opt name run.mz_counters) ~default:0

(* The jobs-1 figures of a row that differ from its committed row; a
   row the file does not hold is not compared.  Zero counters are left
   out of the file, so a missing one reads 0. *)
let cover_drift r =
  match Lazy.force committed_packed with
  | None -> []
  | Some (Error msg) -> [ msg ]
  | Some (Ok committed) -> (
    match List.assoc_opt r.mz_name committed with
    | None -> []
    | Some packed ->
      let cover, report = mz_packed_exn r.mz_name r.mz_packed in
      let cubes, literals = Cover.cost cover in
      let path = "BENCH_minimize.json" in
      figure_drift ~path packed
        [ ("cubes", cubes); ("literals", literals);
          ("iterations", report.Minimize.iterations) ]
      @ figure_drift ~path ~missing:0
          (Option.value (Json.member "metrics" packed) ~default:(Json.Obj []))
          (List.map (fun key -> (key, mz_counter r.mz_packed key)) mz_counter_names))

(* The counters of the jobs-N run that differ from the jobs-1 run's. *)
let counter_drift r =
  List.filter_map
    (fun key ->
      let one = mz_counter r.mz_packed key and par = mz_counter r.mz_par key in
      if one = par then None
      else Some (Printf.sprintf "jobs:%d %s %d (jobs:1 %d)" par_jobs key par one))
    mz_counter_names

let minimize_failure r =
  failing
    ([
       (not r.mz_verified, "contract violated");
       (not r.mz_deterministic, "jobs>1 changed the result");
     ]
    @ List.map (fun d -> (true, d)) (counter_drift r @ cover_drift r))

(* The heavy machines keep the naive reference busy for minutes, so
   progress is streamed per engine. *)
let minimize_row (name, on, dc) =
  let stage s = Printf.eprintf "  %s: %s...\n%!" name s in
  stage "packed jobs:1";
  let packed = mz_instrumented (fun () -> Minimize.minimize ~jobs:1 ~dc on) in
  stage (Printf.sprintf "packed jobs:%d" par_jobs);
  let par =
    mz_instrumented (fun () -> Minimize.minimize ~jobs:par_jobs ~dc on)
  in
  stage "naive reference";
  let naive =
    mz_instrumented (fun () ->
        Minimize.reference ~budget:mz_naive_budget ~dc on)
  in
  stage "verify";
  let verified_or_capped r =
    match r.mz_result with
    | Some (cover, _) -> Minimize.verify ~on ~dc cover
    | None -> true
  in
  let verified =
    verified_or_capped naive
    && verified_or_capped packed
    && verified_or_capped par
  in
  {
    mz_name = name;
    mz_vars = on.Cover.num_vars;
    mz_outs = on.Cover.num_outputs;
    mz_dc_cubes = Array.length dc.Cover.cubes;
    mz_naive = naive;
    mz_packed = packed;
    mz_par = par;
    mz_verified = verified;
    mz_deterministic =
      mz_same (fst (mz_packed_exn name packed)) (fst (mz_packed_exn name par));
  }

let json_of_mz_run (r : mz_run) =
  let detail =
    match r.mz_result with
    | Some (cover, report) ->
      let cubes, literals = Cover.cost cover in
      [
        ("cubes", Json.Int cubes);
        ("literals", Json.Int literals);
        ("iterations", Json.Int report.Minimize.iterations);
      ]
    | None -> []
  in
  Json.Obj
    (( ("wall_s", Json.Float r.mz_wall)
     :: ("capped", Json.Bool (Option.is_none r.mz_result))
     :: detail )
    @ [
        ( "metrics",
          Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) r.mz_counters) );
      ])

let json_of_mz_row r =
  let report = snd (mz_packed_exn r.mz_name r.mz_packed) in
  Json.Obj
    [
      ("name", Json.String r.mz_name);
      ("vars", Json.Int r.mz_vars);
      ("outputs", Json.Int r.mz_outs);
      ("on_cubes", Json.Int report.Minimize.initial_cubes);
      ("on_literals", Json.Int report.Minimize.initial_literals);
      ("dc_cubes", Json.Int r.mz_dc_cubes);
      ("naive", json_of_mz_run r.mz_naive);
      ("packed", json_of_mz_run r.mz_packed);
      ( "parallel",
        Json.Obj
          (("jobs", Json.Int par_jobs)
          :: (match json_of_mz_run r.mz_par with
             | Json.Obj fields -> fields
             | _ -> [])) );
      (* A capped naive run makes this a lower bound (see naive.capped). *)
      ( "speedup_packed",
        Json.Float (r.mz_naive.mz_wall /. Float.max 1e-9 r.mz_packed.mz_wall) );
      ( "speedup_parallel",
        Json.Float (r.mz_packed.mz_wall /. Float.max 1e-9 r.mz_par.mz_wall) );
      ("verified", Json.Bool r.mz_verified);
      ("deterministic", Json.Bool r.mz_deterministic);
      ("equal", Json.Bool (minimize_failure r = None));
    ]

let print_mz_row ~ok r =
  let cover, report = mz_packed_exn r.mz_name r.mz_packed in
  let cubes, literals = Cover.cost cover in
  let naive_s =
    if Option.is_none r.mz_naive.mz_result then
      Printf.sprintf ">= %.0fs (capped)" r.mz_naive.mz_wall
    else Printf.sprintf "%.3fs" r.mz_naive.mz_wall
  in
  Printf.printf
    "%-12s %s  %d -> %d cubes (%d literals)  naive %s  packed %.3fs \
     (%.1fx%s)  par(x%d) %.3fs (%.2fx)\n"
    r.mz_name
    (if ok then "ok  " else "FAIL")
    report.Minimize.initial_cubes cubes literals naive_s r.mz_packed.mz_wall
    (r.mz_naive.mz_wall /. Float.max 1e-9 r.mz_packed.mz_wall)
    (if Option.is_none r.mz_naive.mz_result then "+" else "")
    par_jobs r.mz_par.mz_wall
    (r.mz_packed.mz_wall /. Float.max 1e-9 r.mz_par.mz_wall)

let minimize_suite =
  {
    name = "minimize";
    jobs = par_jobs;
    header = (fun ~quick:_ -> [ recommended_domains ]);
    rows = (fun ~quick -> Seq.map minimize_row (List.to_seq (mz_blocks ~quick)));
    label = (fun r -> r.mz_name);
    print = print_mz_row;
    to_json = json_of_mz_row;
    failure = minimize_failure;
  }

(* ------------------------------------------------------------------ *)
(* core: packed kernels vs element-wise references                     *)
(* ------------------------------------------------------------------ *)

(* The Word SWAR kernels and the partition kernels, each timed against
   its retained element-wise reference over one pregenerated workload,
   with result equality checked on every workload item; a row fails on
   any difference.  Quick: the same rows with a shorter calibration
   window - check.sh times them twice and diffs the two files. *)

module Word = Stc_bits.Word
module Reference = Stc_partition.Reference
module Rng = Stc_util.Rng

(* Self-calibrating ns/op: grow the repeat count until the measured
   window is long enough to trust the monotonic clock, then report the
   mean.  Deterministic workloads (Rng-seeded, pregenerated) keep the
   old and new sides byte-comparable. *)
let ns_per_op ~window f =
  f ();
  (* warm-up: fill caches, trigger interning *)
  let rec measure iters =
    let t0 = Clock.now () in
    for _ = 1 to iters do
      f ()
    done;
    let dt = Clock.elapsed ~since:t0 in
    if dt < window && iters < 10_000_000 then measure (iters * 4)
    else dt *. 1e9 /. float_of_int iters
  in
  measure 1

type core_row = {
  ck_kernel : string;
  ck_n : int;
  ck_old_ns : float;
  ck_new_ns : float;
  ck_equal : bool;
}

let core_sizes = [ 15; 32; 200 ]

(* Random class maps biased toward few classes (the solver's regime:
   partitions stay coarse near the top of the Mm lattice). *)
let core_class_maps rng n count =
  Array.init count (fun _ ->
      let k = 1 + Rng.int rng n in
      Array.init n (fun _ -> Rng.int rng k))

let consume_int = ref 0
let consume_bool = ref false

(* One partition kernel at size [n]: time the old element-wise reference
   against the current implementation over the same pregenerated
   workload, and check result equality on every workload item. *)
let partition_rows ~window n =
  let rng = Rng.create (0x5eed + n) in
  let maps = core_class_maps rng n 64 in
  let pairs = Array.map (fun a -> (a, (core_class_maps rng n 1).(0))) maps in
  let parts = Array.map Partition.of_class_map maps in
  let part_pairs =
    Array.map (fun (a, b) -> (Partition.of_class_map a, Partition.of_class_map b)) pairs
  in
  let cursor = ref 0 in
  let next_idx () =
    let i = !cursor in
    cursor := (i + 1) land 63;
    i
  in
  let row kernel ~equal ~old_op ~new_op =
    let ck_equal = equal () in
    cursor := 0;
    let ck_old_ns = ns_per_op ~window (fun () -> old_op (next_idx ())) in
    cursor := 0;
    let ck_new_ns = ns_per_op ~window (fun () -> new_op (next_idx ())) in
    { ck_kernel = kernel; ck_n = n; ck_old_ns; ck_new_ns; ck_equal }
  in
  let all_eq f = Array.for_all Fun.id (Array.init 64 f) in
  [
    row "partition/canonicalize"
      ~equal:(fun () ->
        all_eq (fun i ->
            Partition.class_map (Partition.of_class_map maps.(i))
            = Reference.canonicalize maps.(i)))
      ~old_op:(fun i -> consume_int := Array.length (Reference.canonicalize maps.(i)))
      ~new_op:(fun i ->
        consume_int := Partition.num_classes (Partition.of_class_map maps.(i)));
    row "partition/meet"
      ~equal:(fun () ->
        all_eq (fun i ->
            let a, b = pairs.(i) and p, q = part_pairs.(i) in
            Partition.class_map (Partition.meet p q) = Reference.meet a b))
      ~old_op:(fun i ->
        let a, b = pairs.(i) in
        consume_int := Array.length (Reference.meet a b))
      ~new_op:(fun i ->
        let p, q = part_pairs.(i) in
        consume_int := Partition.num_classes (Partition.meet p q));
    row "partition/join"
      ~equal:(fun () ->
        all_eq (fun i ->
            let a, b = pairs.(i) and p, q = part_pairs.(i) in
            Partition.class_map (Partition.join p q) = Reference.join a b))
      ~old_op:(fun i ->
        let a, b = pairs.(i) in
        consume_int := Array.length (Reference.join a b))
      ~new_op:(fun i ->
        let p, q = part_pairs.(i) in
        consume_int := Partition.num_classes (Partition.join p q));
    row "partition/subseteq"
      ~equal:(fun () ->
        all_eq (fun i ->
            let a, b = pairs.(i) and p, q = part_pairs.(i) in
            Partition.subseteq p q = Reference.subseteq a b))
      ~old_op:(fun i ->
        let a, b = pairs.(i) in
        consume_bool := Reference.subseteq a b)
      ~new_op:(fun i ->
        let p, q = part_pairs.(i) in
        consume_bool := Partition.subseteq p q);
    (* meet_subseteq fuses what the old code spelled as subseteq(meet p q) r;
       both sides run their full composition. *)
    row "partition/meet_subseteq"
      ~equal:(fun () ->
        all_eq (fun i ->
            let a, b = pairs.(i) and p, q = part_pairs.(i) in
            let r = parts.(i) and rc = maps.(i) in
            Partition.meet_subseteq p q r
            = Reference.subseteq (Reference.meet a b) rc))
      ~old_op:(fun i ->
        let a, b = pairs.(i) in
        consume_bool := Reference.subseteq (Reference.meet a b) maps.(i))
      ~new_op:(fun i ->
        let p, q = part_pairs.(i) in
        consume_bool := Partition.meet_subseteq p q parts.(i));
    (* Hash timing only: the class-map hash with its avalanche finish is
       a different function by design, so "equal" here means both sides
       are self-consistent across a relabeling of the input class map. *)
    row "partition/hash"
      ~equal:(fun () ->
        all_eq (fun i ->
            let relabeled = Array.map (fun id -> (id * 2) + 7) maps.(i) in
            Reference.hash_class_map n (Reference.canonicalize maps.(i))
            = Reference.hash_class_map n (Reference.canonicalize relabeled)
            && Partition.hash (Partition.of_class_map maps.(i))
               = Partition.hash (Partition.of_class_map relabeled)))
      ~old_op:(fun i -> consume_int := Reference.hash_class_map n maps.(i))
      ~new_op:(fun i -> consume_int := Partition.hash parts.(i));
  ]

(* The retired bit-serial word loops (see test/test_bits.ml for the
   pinning tests) vs the SWAR kernels, over one word array. *)
let word_rows ~window =
  let rng = Rng.create 0xb175 in
  let words =
    Array.init 4096 (fun _ ->
        let w = Int64.to_int (Rng.bits64 rng) in
        if w = 0 then 1 else w)
  in
  let parity_loop v =
    let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc lxor (v land 1)) in
    go v 0
  in
  let popcount_loop v =
    let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc + (v land 1)) in
    go v 0
  in
  let ffs_loop w =
    let rec go k w = if w land 1 = 1 then k else go (k + 1) (w lsr 1) in
    go 0 w
  in
  let sweep f =
    let acc = ref 0 in
    Array.iter (fun w -> acc := !acc + f w) words;
    consume_int := !acc
  in
  let per_word f =
    ns_per_op ~window (fun () -> sweep f) /. float_of_int (Array.length words)
  in
  let row kernel old_f new_f =
    {
      ck_kernel = "word/" ^ kernel;
      ck_n = Array.length words;
      ck_old_ns = per_word old_f;
      ck_new_ns = per_word new_f;
      ck_equal = Array.for_all (fun w -> old_f w = new_f w) words;
    }
  in
  [
    row "popcount" popcount_loop Word.popcount;
    row "parity" parity_loop Word.parity;
    row "ffs" ffs_loop Word.ffs;
  ]

let core_rows ~quick =
  let window = if quick then 0.02 else 0.05 in
  List.to_seq
    ((fun () -> word_rows ~window)
    :: List.map (fun n () -> partition_rows ~window n) core_sizes)
  |> Seq.concat_map (fun batch -> List.to_seq (batch ()))

let print_core_row ~ok r =
  Printf.printf "%-24s n=%-4d %s  old %10.1f ns/op  new %10.1f ns/op  %5.2fx\n"
    r.ck_kernel r.ck_n
    (if ok then "ok  " else "FAIL")
    r.ck_old_ns r.ck_new_ns
    (r.ck_old_ns /. Float.max 1e-9 r.ck_new_ns)

let json_of_core_row r =
  Json.Obj
    [
      ("kernel", Json.String r.ck_kernel);
      ("n", Json.Int r.ck_n);
      ("old_ns_per_op", Json.Float r.ck_old_ns);
      ("new_ns_per_op", Json.Float r.ck_new_ns);
      ("speedup", Json.Float (r.ck_old_ns /. Float.max 1e-9 r.ck_new_ns));
      ("equal", Json.Bool r.ck_equal);
    ]

let core_suite =
  {
    name = "core";
    jobs = 1;
    header = (fun ~quick:_ -> []);
    rows = core_rows;
    label = (fun r -> Printf.sprintf "%s n=%d" r.ck_kernel r.ck_n);
    print = print_core_row;
    to_json = json_of_core_row;
    failure =
      (fun r ->
        failing [ (not r.ck_equal, "packed result differs from reference") ]);
  }

(* ------------------------------------------------------------------ *)
(* verify: CEC + pipeline proofs + untestable-fault proofs             *)
(* ------------------------------------------------------------------ *)

(* Per machine: CEC and pipeline-proof certificate counts, the
   untestable-fault census with jobs-1-vs-N agreement, raw vs
   redundancy-adjusted fig. 4 coverage and the CDCL solver counters.  A
   row fails on any proof error or jobs disagreement.  Quick: fig5 and
   dk27 with 256-cycle sessions; the full set ends with tbk, whose
   obligations the dense engine decides without a solve. *)

module Verify = Stc_analysis.Verify
module Diagnostic = Stc_analysis.Diagnostic
module Prove = Stc_sat.Prove

let verify_config ~quick =
  if quick then ([ "fig5"; "dk27" ], 256)
  else ([ "fig5"; "shiftreg"; "dk27"; "tav"; "mc"; "tbk" ], 1024)

type verify_row = {
  vr_name : string;
  vr_gates : int;
  vr_errors : int;  (* CEC + net-prove errors: must be 0 *)
  vr_certs : int;  (* CEC003/005 + NET011 certificates *)
  vr_verify_wall : float;
  vr_raw_faults : int;
  vr_classes : int;
  vr_redundant : int;
  vr_unobservable : int;
  vr_red_wall : float;
  vr_jobs_agree : bool;  (* jobs=1 and jobs=N redundant lists identical *)
  vr_raw_cov : float;
  vr_adj_cov : float;
  vr_decisions : int;
  vr_conflicts : int;
  vr_propagations : int;
  vr_solves : int;
}

let vr_cert_codes = [ "CEC003"; "CEC005"; "NET011" ]

let verify_row ~cycles name =
  let read c = Metrics.counter_value (Metrics.counter c) in
  let d0 = read "sat.decisions"
  and c0 = read "sat.conflicts"
  and p0 = read "sat.propagations"
  and s0 = read "sat.solves" in
  let ctx = Context.of_machine ~cycles (benchmark_machine name) in
  let diags, verify_wall =
    timed (fun () -> Verify.run ~select:[ "cec"; "net-prove" ] ctx)
  in
  let built = ctx.Context.fig4 in
  let observed = Session.union_observed built.Arch.sessions in
  let v1, red_wall =
    timed (fun () -> Prove.redundant ~jobs:1 ~observed built.Arch.netlist)
  in
  let vn = Prove.redundant ~jobs:par_jobs ~observed built.Arch.netlist in
  let report = Arch.grade ~jobs:1 ~need_cycles:false built in
  let adj = Session.adjusted report ~redundant:v1.Prove.redundant in
  {
    vr_name = name;
    vr_gates = Stc_netlist.Netlist.num_gates built.Arch.netlist;
    vr_errors = Diagnostic.count Diagnostic.Error diags;
    vr_certs =
      List.length
        (List.filter (fun d -> List.mem d.Diagnostic.code vr_cert_codes) diags);
    vr_verify_wall = verify_wall;
    vr_raw_faults = v1.Prove.total_faults;
    vr_classes = v1.Prove.total_classes;
    vr_redundant = List.length v1.Prove.redundant;
    vr_unobservable = v1.Prove.unobservable_classes;
    vr_red_wall = red_wall;
    vr_jobs_agree = v1.Prove.redundant = vn.Prove.redundant;
    vr_raw_cov = report.Session.coverage;
    vr_adj_cov = adj.Session.coverage;
    vr_decisions = read "sat.decisions" - d0;
    vr_conflicts = read "sat.conflicts" - c0;
    vr_propagations = read "sat.propagations" - p0;
    vr_solves = read "sat.solves" - s0;
  }

let json_of_verify_row r =
  Json.Obj
    [
      ("name", Json.String r.vr_name);
      ("gates", Json.Int r.vr_gates);
      ( "proofs",
        Json.Obj
          [
            ("errors", Json.Int r.vr_errors);
            ("certificates", Json.Int r.vr_certs);
            ("wall_s", Json.Float r.vr_verify_wall);
          ] );
      ( "redundant",
        Json.Obj
          [
            ("raw_faults", Json.Int r.vr_raw_faults);
            ("classes", Json.Int r.vr_classes);
            ("untestable", Json.Int r.vr_redundant);
            ("unobservable", Json.Int r.vr_unobservable);
            ("wall_s", Json.Float r.vr_red_wall);
            ("jobs_agree", Json.Bool r.vr_jobs_agree);
          ] );
      ( "coverage",
        Json.Obj
          [
            ("raw", Json.Float r.vr_raw_cov);
            ("adjusted", Json.Float r.vr_adj_cov);
          ] );
      ( "sat",
        Json.Obj
          [
            ("decisions", Json.Int r.vr_decisions);
            ("conflicts", Json.Int r.vr_conflicts);
            ("propagations", Json.Int r.vr_propagations);
            ("solves", Json.Int r.vr_solves);
          ] );
    ]

let print_verify_row ~ok:_ r =
  Printf.printf
    "%-10s %4d gates: %d errors, %d certs (%.2fs); %d/%d faults untestable \
     (%.2fs, jobs %s); coverage %.1f%% raw -> %.1f%% adjusted; %d solves, \
     %d conflicts\n"
    r.vr_name r.vr_gates r.vr_errors r.vr_certs r.vr_verify_wall
    r.vr_redundant r.vr_raw_faults r.vr_red_wall
    (if r.vr_jobs_agree then "agree" else "DISAGREE")
    (100.0 *. r.vr_raw_cov) (100.0 *. r.vr_adj_cov) r.vr_solves
    r.vr_conflicts

let verify_suite =
  {
    name = "verify";
    jobs = par_jobs;
    header =
      (fun ~quick -> [ ("cycles", Json.Int (snd (verify_config ~quick))) ]);
    rows =
      (fun ~quick ->
        (* SAT counters live in the metrics registry; enable it so the rows
           can report per-machine decision/conflict/propagation deltas.
           Graders are called with ~need_cycles:false explicitly, so
           enabling metrics does not change any verdict. *)
        Metrics.set_enabled true;
        Metrics.reset ();
        let machines, cycles = verify_config ~quick in
        Seq.map (verify_row ~cycles) (List.to_seq machines));
    label = (fun r -> r.vr_name);
    print = print_verify_row;
    to_json = json_of_verify_row;
    failure =
      (fun r ->
        failing
          [
            (r.vr_errors > 0, Printf.sprintf "%d proof errors" r.vr_errors);
            ( not r.vr_jobs_agree,
              "untestable faults differ between jobs 1 and N" );
          ]);
  }

(* ------------------------------------------------------------------ *)
(* anytime: stochastic-tier cross-check and the scale frontier         *)
(* ------------------------------------------------------------------ *)

(* Quality-vs-time rows for the anytime tier (lib/core/anytime.ml), in
   two families:

   - corpus rows: the 13 suite machines, exact optimum vs the forced
     stochastic tier at a capped proposal budget.  The gap
     (stochastic - exact bits) must be >= 0 by optimality of the exact
     tier; a negative gap is a bug and fails the row.
   - generated rows: the planted:<n>x4 family (lib/fsm/generate.ml),
     beyond the exact tier's reach.  Each must finish under the 60 s
     budget with a nontrivial factorization.

   Where [deterministic] is reported, the same seed was re-run and run
   again at jobs=par_jobs, and cost, factor partitions and RNG-stream
   fingerprint were required to be identical (the jobs-invariance
   contract of Anytime).  The configs below stop on deterministic
   counters; the wall budget is a safety cap sized not to fire.  Quick:
   three small corpus machines and a 96-state planted machine at tiny
   proposal budgets. *)

type anytime_row = {
  an_name : string;
  an_states : int;
  an_jobs : int;
  an_tier : string;
  an_bits : int;
  an_s1 : int;
  an_s2 : int;
  an_trivial_bits : int;
  an_trivial : bool;  (* both factors as large as the machine *)
  an_exact_bits : int option;  (* exact optimum - corpus rows only *)
  an_wall : float;
  an_evals : int;
  an_feasible : int;
  an_rounds : int;
  an_sa_accepted : int;
  an_timed_out : bool;
  an_fingerprint : int;
  an_deterministic : bool option;  (* None = identity not re-checked *)
  an_incr_identical : bool option;
      (* incremental run = full-recompute oracle rerun; None = oracle
         not re-run (the largest rows, where the full closure is the
         cost being benchmarked away) *)
  an_ns_per_eval : float;  (* wall / evals - the per-proposal cost *)
  an_full_ns_per_eval : float option;  (* same, for the oracle rerun *)
  an_trajectory : Anytime.frontier_point list;
}

let anytime_identical (a : Anytime.result) (b : Anytime.result) =
  Solver.compare_cost a.Anytime.best.Solver.cost b.Anytime.best.Solver.cost = 0
  && a.Anytime.stats.Anytime.rng_fingerprint
     = b.Anytime.stats.Anytime.rng_fingerprint
  && Partition.compare a.Anytime.best.Solver.pi b.Anytime.best.Solver.pi = 0
  && Partition.compare a.Anytime.best.Solver.rho b.Anytime.best.Solver.rho = 0

let ns_per_eval ~wall ~evals =
  if evals = 0 then 0.0 else wall *. 1e9 /. float_of_int evals

let anytime_row_of_result ~name ~jobs ~exact_bits ~deterministic
    ~incr_identical ~full_wall ~wall machine (r : Anytime.result) =
  let s = r.Anytime.stats in
  let best = r.Anytime.best in
  {
    an_name = name;
    an_states = machine.Machine.num_states;
    an_jobs = jobs;
    an_tier = Format.asprintf "%a" Anytime.pp_tier s.Anytime.tier;
    an_bits = best.Solver.cost.Solver.bits;
    an_s1 = Partition.num_classes best.Solver.pi;
    an_s2 = Partition.num_classes best.Solver.rho;
    an_trivial_bits = 2 * Machine.bits_for machine.Machine.num_states;
    an_trivial = Solver.is_trivial machine best;
    an_exact_bits = exact_bits;
    an_wall = wall;
    an_evals = s.Anytime.evals;
    an_feasible = s.Anytime.feasible;
    an_rounds = s.Anytime.rounds;
    an_sa_accepted = s.Anytime.sa_accepted;
    an_timed_out = s.Anytime.timed_out;
    an_fingerprint = s.Anytime.rng_fingerprint;
    an_deterministic = deterministic;
    an_incr_identical = incr_identical;
    an_ns_per_eval = ns_per_eval ~wall ~evals:s.Anytime.evals;
    an_full_ns_per_eval =
      Option.map (fun w -> ns_per_eval ~wall:w ~evals:s.Anytime.evals) full_wall;
    an_trajectory = s.Anytime.trajectory;
  }

(* A corpus row (exact bits known) fails on a negative gap; a generated
   row on the 60 s wall cap or a trivial factorization; either on a
   timeout or a failed identity re-check. *)
let anytime_failure r =
  let generated = Option.is_none r.an_exact_bits in
  let gap = Option.fold ~none:0 ~some:(fun e -> r.an_bits - e) r.an_exact_bits in
  failing
    [
      (gap < 0, Printf.sprintf "gap %+d bits: below the exact optimum" gap);
      (r.an_timed_out, "hit the wall budget");
      (r.an_deterministic = Some false, "nondeterministic");
      ( r.an_incr_identical = Some false,
        "closure engine differs from the full-recompute oracle" );
      (generated && r.an_wall >= 60.0, "over the 60 s wall cap");
      (generated && r.an_trivial, "trivial factorization");
    ]

(* Forced stochastic tier on a suite machine, cross-checked against the
   exact optimum.  Identity is always re-checked on corpus rows (they
   are small), as is equivalence against the full-recompute closure
   oracle ([incremental = false]). *)
let anytime_corpus_row ~config (spec : Suite.spec) =
  let machine = Suite.machine spec in
  let exact = Solver.solve ~timeout:120.0 machine in
  let r1, wall = timed (fun () -> Anytime.search ~config machine) in
  let r2 = Anytime.search ~config machine in
  let rn =
    Anytime.search ~config:{ config with Anytime.jobs = par_jobs } machine
  in
  let rfull, full_wall =
    timed (fun () ->
        Anytime.search ~config:{ config with Anytime.incremental = false }
          machine)
  in
  let deterministic = anytime_identical r1 r2 && anytime_identical r1 rn in
  anytime_row_of_result ~name:spec.Suite.name ~jobs:config.Anytime.jobs
    ~exact_bits:(Some exact.Solver.best.Solver.cost.Solver.bits)
    ~deterministic:(Some deterministic)
    ~incr_identical:(Some (anytime_identical r1 rfull))
    ~full_wall:(Some full_wall) ~wall machine r1

(* [Anytime.solve] on a generated machine.  [check_full] reruns the
   row with the full-recompute oracle — affordable up to the ~6000
   state rows; the 10^4+ frontier rows skip it (their oracle identity is
   covered by the 5929-state row and the unit suite). *)
let anytime_generated_row ~spec ~config ~check_identity
    ?(check_full = false) () =
  let machine =
    match Generate.of_spec spec with
    | Some m -> m
    | None -> failwith ("bench: bad generator spec " ^ spec)
  in
  let r1, wall = timed (fun () -> Anytime.solve ~config machine) in
  let deterministic =
    if check_identity then begin
      let r2 = Anytime.solve ~config machine in
      let rn =
        Anytime.solve ~config:{ config with Anytime.jobs = par_jobs } machine
      in
      Some (anytime_identical r1 r2 && anytime_identical r1 rn)
    end
    else None
  in
  let incr_identical, full_wall =
    if check_full then begin
      let rfull, full_wall =
        timed (fun () ->
            Anytime.solve
              ~config:{ config with Anytime.incremental = false }
              machine)
      in
      (Some (anytime_identical r1 rfull), Some full_wall)
    end
    else (None, None)
  in
  let name =
    if config.Anytime.jobs = 1 then spec
    else Printf.sprintf "%s#j%d" spec config.Anytime.jobs
  in
  anytime_row_of_result ~name ~jobs:config.Anytime.jobs ~exact_bits:None
    ~deterministic ~incr_identical ~full_wall ~wall machine r1

let print_anytime_row ~ok r =
  Printf.printf
    "%-22s %5d st j%d %-22s bits %2d (%d,%d; trivial %2d)%s wall %6.2fs \
     evals %5d feas %4d rounds %3d%s fp %016x%s\n"
    r.an_name r.an_states r.an_jobs r.an_tier r.an_bits r.an_s1 r.an_s2
    r.an_trivial_bits
    (match r.an_exact_bits with
    | Some e -> Printf.sprintf " exact %d gap %+d" e (r.an_bits - e)
    | None -> "")
    r.an_wall r.an_evals r.an_feasible r.an_rounds
    (match r.an_deterministic with
    | Some true -> " deterministic"
    | Some false -> " NONDETERMINISTIC"
    | None -> "")
    r.an_fingerprint
    ((match (r.an_incr_identical, r.an_full_ns_per_eval) with
     | Some true, Some full ->
       Printf.sprintf " incr=full (%.2fx)"
         (if r.an_ns_per_eval > 0.0 then full /. r.an_ns_per_eval else 0.0)
     | Some true, None -> " incr=full"
     | Some false, _ -> " INCR<>FULL"
     | None, _ -> "")
    ^ if ok then "" else "  FAIL")

let json_of_anytime_row r =
  let base =
    [
      ("name", Json.String r.an_name);
      ("states", Json.Int r.an_states);
      ("jobs", Json.Int r.an_jobs);
      ("tier", Json.String r.an_tier);
      ("bits", Json.Int r.an_bits);
      ("s1", Json.Int r.an_s1);
      ("s2", Json.Int r.an_s2);
      ("trivial_bits", Json.Int r.an_trivial_bits);
      ("wall_s", Json.Float r.an_wall);
      ("evals", Json.Int r.an_evals);
      ("feasible", Json.Int r.an_feasible);
      ("rounds", Json.Int r.an_rounds);
      ("sa_accepted", Json.Int r.an_sa_accepted);
      ("timed_out", Json.Bool r.an_timed_out);
      ("rng_fingerprint", Json.String (Printf.sprintf "%016x" r.an_fingerprint));
    ]
  (* null, not absent, where a check did not run - the schema keeps row
     keys uniform *)
  and exact =
    match r.an_exact_bits with
    | Some e ->
      [ ("exact_bits", Json.Int e); ("gap_bits", Json.Int (r.an_bits - e)) ]
    | None -> [ ("exact_bits", Json.Null); ("gap_bits", Json.Null) ]
  and det =
    [
      ( "deterministic",
        match r.an_deterministic with
        | Some d -> Json.Bool d
        | None -> Json.Null );
      ( "incr_identical",
        match r.an_incr_identical with
        | Some d -> Json.Bool d
        | None -> Json.Null );
      (* deliberately NOT *_ns / *ns_per_op: per-proposal costs are
         context for EXPERIMENTS.md, not bench_diff-judged metrics (the
         judged wall already covers the same measurement) *)
      ("ns_per_eval", Json.Float r.an_ns_per_eval);
      ( "full_ns_per_eval",
        match r.an_full_ns_per_eval with
        | Some v -> Json.Float v
        | None -> Json.Null );
    ]
  and traj =
    (* inside a List, so bench_diff skips these elapsed_s leaves - the
       trajectory is data for EXPERIMENTS.md plots, not a gated metric *)
    [
      ( "trajectory",
        Json.List
          (List.map
             (fun (p : Anytime.frontier_point) ->
               Json.Obj
                 [
                   ("round", Json.Int p.Anytime.round);
                   ("evals", Json.Int p.Anytime.evals);
                   ("elapsed_s", Json.Float p.Anytime.elapsed);
                   ("bits", Json.Int p.Anytime.cost.Solver.bits);
                 ])
             r.an_trajectory) );
    ]
  in
  Json.Obj (base @ exact @ det @ traj)

let anytime_corpus_config =
  { Anytime.default_config with Anytime.max_evals = 6000; jobs = 1 }

let anytime_quick_config =
  {
    Anytime.default_config with
    Anytime.beam_width = 4;
    moves_per_candidate = 12;
    max_rounds = 40;
    max_evals = 800;
    patience = 8;
    sa_chains = 2;
    sa_steps = 100;
    jobs = 1;
  }

let anytime_full_rows () =
  let gen ?(check_identity = false) ?(check_full = false) ?(jobs = 1)
      ~max_evals spec () =
    anytime_generated_row ~spec
      ~config:
        {
          Anytime.default_config with
          Anytime.max_evals;
          jobs;
          budget = 60.0;
        }
      ~check_identity ~check_full ()
  in
  List.map
    (fun spec () -> anytime_corpus_row ~config:anytime_corpus_config spec)
    Suite.all
  @ [ gen ~check_identity:true ~check_full:true ~max_evals:4000
        "planted:1024x4@1" ]
  @ (if par_jobs > 1 then
       [ gen ~jobs:par_jobs ~max_evals:4000 "planted:1024x4@1" ]
     else [])
  @ [
      (* proposal budgets shrink with size: a proposal costs roughly
         O(states * classes / 64) for the full closure, so these keep
         each row well under the 60 s wall cap (which must not fire -
         it is the one nondeterministic stop).  The oracle rerun
         ([check_full]) stops at the 5929-state row: its full-closure
         wall is the old frontier, and the 10^4+ rows below exist
         precisely because the delta engine no longer pays it. *)
      gen ~check_full:true ~max_evals:2000 "planted:2048x4@1";
      gen ~check_full:true ~max_evals:1000 "planted:5120x4@1";
      (* the incremental-closure frontier: >= 10^4 states on 1 core *)
      gen ~max_evals:1000 "planted:12288x4@1";
      gen ~max_evals:600 "planted:16384x4@1";
    ]

let anytime_quick_rows () =
  List.map
    (fun spec () -> anytime_corpus_row ~config:anytime_quick_config spec)
    (List.filter_map Suite.find [ "dk27"; "tav"; "mc" ])
  @ [
      (fun () ->
        anytime_generated_row ~spec:"planted:96x4@1"
          ~config:{ anytime_quick_config with Anytime.exact_max_states = 64 }
          ~check_identity:true ~check_full:true ());
    ]

let anytime_suite =
  {
    name = "anytime";
    jobs = par_jobs;
    header = (fun ~quick:_ -> [ recommended_domains ]);
    rows =
      (fun ~quick ->
        let rows = if quick then anytime_quick_rows () else anytime_full_rows () in
        Seq.map (fun row -> row ()) (List.to_seq rows));
    label = (fun r -> r.an_name);
    print = print_anytime_row;
    to_json = json_of_anytime_row;
    failure = anytime_failure;
  }

(* ------------------------------------------------------------------ *)
(* The registry and its one runner                                     *)
(* ------------------------------------------------------------------ *)

type entry = Suite : 'row suite -> entry

let suites =
  [
    Suite solver_suite;
    Suite faultsim_suite;
    Suite minimize_suite;
    Suite core_suite;
    Suite verify_suite;
    Suite anytime_suite;
  ]

let run_suite (Suite s) ~quick ~out =
  let mode = if quick then s.name ^ "-quick" else s.name in
  let rows =
    List.of_seq
      (Seq.map
         (fun row ->
           let why = s.failure row in
           s.print ~ok:(why = None) row;
           flush stdout;
           (row, why))
         (s.rows ~quick))
  in
  let failures =
    List.filter_map (fun (row, why) -> Option.map (fun why -> (s.label row, why)) why) rows
  in
  List.iter (fun (label, why) -> Printf.printf "FAIL %s: %s\n" label why) failures;
  if failures = [] then begin
    Option.iter
      (fun path ->
        Json.write path
          (Schema.wrap ~bench:s.name ~jobs:s.jobs
             ~extra:(s.header ~quick @ if quick then [ ("quick", Json.Bool true) ] else [])
             (List.map (fun (row, _) -> s.to_json row) rows));
        Printf.printf "wrote %s\n" path)
      out;
    Printf.printf "%s: all %d rows ok\n" mode (List.length rows)
  end
  else
    Printf.printf "%s: %d of %d rows failed, nothing written\n" mode
      (List.length failures) (List.length rows);
  exit (List.length failures)

let usage () =
  Printf.eprintf
    "usage: bench [tables | SUITE | SUITE-quick] [OUT] [--profile FILE]\n\
     SUITE is one of %s\n"
    (String.concat ", " (List.map (fun (Suite s) -> s.name) suites));
  exit 2

let () =
  (* `--profile FILE` anywhere on the line samples the whole run and
     writes folded stacks at exit - suite runs terminate via [exit], so
     the writer hangs off [at_exit]. *)
  let rec strip_profile acc = function
    | [] -> (List.rev acc, None)
    | "--profile" :: file :: rest -> (List.rev acc @ rest, Some file)
    | [ "--profile" ] ->
      prerr_endline "bench: --profile needs a file argument";
      exit 2
    | arg :: rest -> strip_profile (arg :: acc) rest
  in
  let args, profile = strip_profile [] (List.tl (Array.to_list Sys.argv)) in
  Parmon.install ();
  (match profile with
  | None -> ()
  | Some file ->
    Profile.start ();
    at_exit (fun () ->
        if Profile.running () then begin
          let report = Profile.stop () in
          Profile.write_folded file report;
          Printf.eprintf "profile: wrote %s (%d samples @ %d Hz)\n%!" file
            report.Profile.samples report.Profile.hz
        end));
  let mode, out = match args with [] -> ("tables", []) | mode :: out -> (mode, out) in
  let suite =
    List.find_map
      (fun (Suite s as suite) ->
        if mode = s.name then Some (suite, false, Some ("BENCH_" ^ s.name ^ ".json"))
        else if mode = s.name ^ "-quick" then Some (suite, true, None)
        else None)
      suites
  in
  match (mode, out, suite) with
  | "tables", [], _ -> print_tables ()
  | _, [], Some (suite, quick, default_out) -> run_suite suite ~quick ~out:default_out
  | _, [ path ], Some (suite, quick, _) -> run_suite suite ~quick ~out:(Some path)
  | _ -> usage ()
