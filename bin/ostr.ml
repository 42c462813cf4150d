(* ostr - synthesis of self-testable controllers (Hellebrand & Wunderlich,
   ED&TC 1994).  Command-line driver around the stc_* libraries. *)

module Machine = Stc_fsm.Machine
module Kiss = Stc_fsm.Kiss
module Reach = Stc_fsm.Reach
module Equiv = Stc_fsm.Equiv
module Dot = Stc_fsm.Dot
module Ostr_core = Stc_core.Ostr
module Solver = Stc_core.Solver
module Anytime = Stc_core.Anytime
module Realization = Stc_core.Realization
module Partition = Stc_partition.Partition
module Pla = Stc_logic.Pla
module Suite = Stc_benchmarks.Suite
module Experiments = Stc_report.Experiments
module Arch = Stc_faultsim.Arch
module Session = Stc_faultsim.Session
module Trace = Stc_obs.Trace
module Metrics = Stc_obs.Metrics
module Progress = Stc_obs.Progress
module Profile = Stc_obs.Profile
module Json = Stc_obs.Json
module Lint = Stc_analysis.Lint
module Verify = Stc_analysis.Verify
module Context = Stc_analysis.Context
module Diagnostic = Stc_analysis.Diagnostic
module Pass = Stc_analysis.Pass

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Machine resolution: benchmark/zoo name or KISS2 file path           *)
(* ------------------------------------------------------------------ *)

let load_machine spec =
  if Sys.file_exists spec then Ok (Kiss.parse_file spec)
  else
    match Experiments.machine_named spec with
    | Some m -> Ok m
    | None -> (
      match Stc_fsm.Generate.of_spec spec with
      | Some m -> Ok m
      | None ->
        Error
          (Printf.sprintf
             "%S is neither a file, a known machine (benchmarks: %s), nor a \
              generator spec (random:<n>x<k>[@seed], planted:<n>x<k>[@seed])"
             spec
             (String.concat ", " Suite.names)))

let machine_arg =
  let doc =
    "Machine to process: a KISS2 file path, a benchmark name (bbara, ..., \
     tbk) or a zoo name (fig5, shiftreg4, serial_adder, counter8, toggle, \
     parity)."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"MACHINE" ~doc)

let timeout_arg =
  let doc = "Wall-clock limit for the OSTR search, in seconds." in
  Arg.(value & opt float 120.0 & info [ "timeout" ] ~docv:"SECONDS" ~doc)

let jobs_arg =
  let doc =
    "Domains to fan the work over - the OSTR search, or the minimizer \
     and the collapsed fault list when synthesizing and fault-grading \
     (default 1: deterministic sequential run; 0 means one per core)."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let resolve_jobs jobs =
  if jobs <= 0 then Domain.recommended_domain_count () else jobs

let names_arg =
  let doc = "Comma-separated machine names (default: the usual set)." in
  Arg.(value & opt (some string) None & info [ "names" ] ~docv:"NAMES" ~doc)

let split_names = Option.map (String.split_on_char ',')

let or_die = function
  | Ok v -> v
  | Error msg ->
    prerr_endline ("ostr: " ^ msg);
    exit 1

(* ------------------------------------------------------------------ *)
(* Observability: --trace / --metrics / --progress / --profile         *)
(* ------------------------------------------------------------------ *)

type obs = {
  trace : string option;
  metrics : string option;
  progress : bool;
  profile : string option;
}

let obs_term =
  let trace =
    let doc =
      "Write a span trace to $(docv): Chrome trace_event JSON (loadable in \
       Perfetto / chrome://tracing), or JSONL when $(docv) ends in .jsonl."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let metrics =
    let doc =
      "Write a JSON metrics snapshot (counters, gauges, histograms) to \
       $(docv) when the command finishes."
    in
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)
  in
  let progress =
    let doc =
      "Periodically report search progress (nodes/sec, incumbent cost, \
       memo-hit and dedupe rates, per-domain queue depth) on stderr."
    in
    Arg.(value & flag & info [ "progress" ] ~doc)
  in
  let profile =
    let doc =
      "Sample every domain's span stack while the command runs and write \
       folded stacks (flamegraph.pl / speedscope format) to $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "profile" ] ~docv:"FILE" ~doc)
  in
  Term.(
    const (fun trace metrics progress profile ->
        { trace; metrics; progress; profile })
    $ trace $ metrics $ progress $ profile)

(* Enable the requested observability sinks around [f], and flush them
   even when [f] dies - a trace of a crashed run is the useful one. *)
let with_obs obs f =
  if obs.trace <> None then Trace.set_enabled true;
  if obs.metrics <> None then Metrics.set_enabled true;
  if obs.progress then Progress.set_enabled true;
  Trace.reset ();
  Metrics.reset ();
  Option.iter (fun _ -> Profile.start ()) obs.profile;
  Fun.protect
    ~finally:(fun () ->
      Option.iter
        (fun path ->
          if Profile.running () then begin
            let report = Profile.stop () in
            Profile.write_folded path report;
            Format.eprintf "wrote profile %s (%d samples at %d Hz)@." path
              report.Stc_obs.Profile.samples report.Stc_obs.Profile.hz
          end)
        obs.profile;
      Option.iter
        (fun path ->
          Trace.write path;
          Format.eprintf "wrote trace %s (%d events)@." path
            (List.length (Trace.events ())))
        obs.trace;
      Option.iter
        (fun path ->
          Metrics.write path;
          Format.eprintf "wrote metrics %s@." path)
        obs.metrics)
    f

(* ------------------------------------------------------------------ *)
(* info                                                                *)
(* ------------------------------------------------------------------ *)

let info_cmd =
  let run spec obs =
    let m = or_die (load_machine spec) in
    with_obs obs @@ fun () ->
    Format.printf "%a@." Machine.pp m;
    Format.printf "states: %d, inputs: %d, outputs: %d@." m.Machine.num_states
      m.Machine.num_inputs m.Machine.num_outputs;
    Format.printf "connected: %b, strongly connected: %b, reduced: %b@."
      (Reach.is_connected m)
      (Reach.is_strongly_connected m)
      (Equiv.is_reduced m);
    Format.printf "equivalence classes: %d@." (Equiv.num_classes m);
    Format.printf "conventional BIST flip-flops: %d@."
      (Machine.flipflops_conventional m)
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Print a machine's transition table and statistics.")
    Term.(const run $ machine_arg $ obs_term)

(* ------------------------------------------------------------------ *)
(* minimize                                                            *)
(* ------------------------------------------------------------------ *)

let minimize_cmd =
  let run spec obs =
    let m = or_die (load_machine spec) in
    with_obs obs @@ fun () ->
    let reduced = Equiv.minimize (Reach.trim m) in
    print_string (Kiss.print reduced)
  in
  Cmd.v
    (Cmd.info "minimize"
       ~doc:"Trim unreachable states, merge equivalent states, emit KISS2.")
    Term.(const run $ machine_arg $ obs_term)

(* ------------------------------------------------------------------ *)
(* solve                                                               *)
(* ------------------------------------------------------------------ *)

let solve_cmd =
  let run spec timeout jobs verbose obs =
    let m = or_die (load_machine spec) in
    with_obs obs @@ fun () ->
    let outcome = Ostr_core.run ~timeout ~jobs:(resolve_jobs jobs) m in
    Format.printf "%a@." Ostr_core.pp_summary outcome;
    Format.printf "pi  (S1): %s@." (Partition.to_string outcome.Ostr_core.solution.Solver.pi);
    Format.printf "rho (S2): %s@." (Partition.to_string outcome.Ostr_core.solution.Solver.rho);
    if verbose then begin
      Format.printf "%a@." Realization.pp_factors outcome.Ostr_core.realization;
      Format.printf "product machine:@.%a@." Machine.pp
        outcome.Ostr_core.realization.Realization.product
    end
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Also print the factor tables.")
  in
  Cmd.v
    (Cmd.info "solve"
       ~doc:"Solve problem OSTR: find the optimal self-testable realization.")
    Term.(const run $ machine_arg $ timeout_arg $ jobs_arg $ verbose $ obs_term)

(* ------------------------------------------------------------------ *)
(* anytime                                                             *)
(* ------------------------------------------------------------------ *)

let print_anytime_result (m : Machine.t) verbose (r : Anytime.result) =
  let open Anytime in
  let best = r.best in
  Format.printf "tier: %a@." pp_tier r.stats.tier;
  Option.iter
    (fun (e : Solver.stats) ->
      Format.printf "exact tier: %d nodes investigated in %.2f s%s@."
        e.Solver.investigated e.Solver.elapsed
        (if e.Solver.timed_out then " (budget hit, handed off)" else ""))
    r.stats.exact;
  (match r.stats.tier with
  | Exact -> ()
  | Stochastic _ ->
    Format.printf
      "stochastic tier: %d rounds, %d evals (%d feasible), %d SA acceptances, \
       rng fingerprint %016x@."
      r.stats.rounds r.stats.evals r.stats.feasible r.stats.sa_accepted
      r.stats.rng_fingerprint;
    List.iter
      (fun p ->
        Format.printf "  round %-4d evals %-7d %6.2f s  %d bits@." p.round
          p.evals p.elapsed p.cost.Solver.bits)
      r.stats.trajectory);
  Format.printf
    "best: %d bits (factors %d x %d states; conventional doubling needs %d \
     bits)@."
    best.Solver.cost.Solver.bits
    (Partition.num_classes best.Solver.pi)
    (Partition.num_classes best.Solver.rho)
    (2 * Machine.bits_for m.Machine.num_states);
  Format.printf "elapsed: %.2f s%s@." r.stats.elapsed
    (if r.stats.timed_out then " (wall budget hit)" else "");
  if verbose || m.Machine.num_states <= 64 then begin
    Format.printf "pi  (S1): %s@." (Partition.to_string best.Solver.pi);
    Format.printf "rho (S2): %s@." (Partition.to_string best.Solver.rho)
  end

let anytime_cmd =
  let run spec budget seed jobs evals beam moves split_ratio sa_steps force
      full_eval verbose obs =
    let m = or_die (load_machine spec) in
    with_obs obs @@ fun () ->
    let config =
      {
        Anytime.default_config with
        seed;
        budget;
        jobs = resolve_jobs jobs;
        max_evals = evals;
        beam_width = beam;
        moves_per_candidate = moves;
        split_ratio;
        sa_steps;
        incremental = not full_eval;
      }
    in
    print_anytime_result m verbose (Anytime.solve ~config ~force m)
  in
  let budget =
    Arg.(
      value & opt float 60.0
      & info [ "budget" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock budget: the exact tier gets half, the stochastic \
             tier the rest.  Deterministic eval/round caps are the primary \
             stops; the budget is a safety net.")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Master RNG seed.  Equal seeds give bit-identical results at any \
             $(b,--jobs) value.")
  in
  let evals =
    Arg.(
      value
      & opt int Anytime.default_config.Anytime.max_evals
      & info [ "evals" ] ~docv:"N"
          ~doc:"Total proposal budget (beam + annealing).")
  in
  let beam =
    Arg.(
      value
      & opt int Anytime.default_config.Anytime.beam_width
      & info [ "beam" ] ~docv:"N" ~doc:"Beam width (survivors per round).")
  in
  let moves =
    Arg.(
      value
      & opt int Anytime.default_config.Anytime.moves_per_candidate
      & info [ "moves" ] ~docv:"N"
          ~doc:"Proposals per beam survivor per round.")
  in
  let split_ratio =
    Arg.(
      value
      & opt int Anytime.default_config.Anytime.split_ratio
      & info [ "split-ratio" ] ~docv:"N"
          ~doc:
            "1 in $(docv) proposals is a singleton split, the rest are block \
             merges; 0 disables splits.  Changing it changes the consumed \
             RNG streams (and so the fingerprint).")
  in
  let sa_steps =
    Arg.(
      value
      & opt int Anytime.default_config.Anytime.sa_steps
      & info [ "sa-steps" ] ~docv:"N"
          ~doc:"Metropolis steps per annealing chain.")
  in
  let full_eval =
    Arg.(
      value & flag
      & info [ "full-eval" ]
          ~doc:
            "Evaluate every proposal with the full-recompute closure instead \
             of the incremental delta engine.  Results are bit-identical; \
             this is the equivalence oracle and the slow baseline for \
             benchmarks.")
  in
  let force =
    Arg.(
      value & flag
      & info [ "force-stochastic" ]
          ~doc:"Skip the exact tier even when the machine is small.")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "v"; "verbose" ]
          ~doc:"Print the factor partitions even for large machines.")
  in
  Cmd.v
    (Cmd.info "anytime"
       ~doc:
         "Anytime OSTR search: exact DFS under a budget, then seeded beam \
          search + simulated annealing over partition pairs.  Scales to \
          10^3-10^4-state machines (try planted:1024x4@1)."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Runs the exact Mm-lattice search under a node/wall budget and \
              hands off to a stochastic tier when the budget fires (or \
              immediately, for machines whose basis would be too large to \
              build).  The stochastic tier is a seeded beam search over \
              partition-pair merges/splits closed to symmetric pairs, with \
              the fused meet-subseteq admissibility kernel as the \
              feasibility gate, followed by simulated-annealing polish.  \
              Results are reproducible: equal seeds give bit-identical \
              output at any --jobs value.";
         ])
    Term.(
      const run $ machine_arg $ budget $ seed $ jobs_arg $ evals $ beam
      $ moves $ split_ratio $ sa_steps $ force $ full_eval $ verbose
      $ obs_term)

(* ------------------------------------------------------------------ *)
(* realize                                                             *)
(* ------------------------------------------------------------------ *)

let realize_cmd =
  let run spec timeout out_dir obs =
    let m = or_die (load_machine spec) in
    with_obs obs @@ fun () ->
    let ctx = Context.of_machine ~timeout m in
    let write name text =
      let path = Filename.concat out_dir name in
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      Format.printf "wrote %s@." path
    in
    if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
    write (m.Machine.name ^ "_pipeline.kiss")
      (Kiss.print ctx.Context.realization.Realization.product);
    List.iter
      (fun (b : Context.block) ->
        let label = b.Context.block_label in
        let cubes, literals = Stc_logic.Cover.cost b.Context.minimized in
        let cubes0, literals0 = Stc_logic.Cover.cost b.Context.on in
        Format.printf "%s: %d cubes, %d literals (from %d/%d)@." label cubes
          literals cubes0 literals0;
        write
          (Printf.sprintf "%s_%s.pla" m.Machine.name label)
          (Pla.print ~name:label b.Context.minimized))
      ctx.Context.blocks
  in
  let out_dir =
    Arg.(value & opt string "." & info [ "o"; "output" ] ~docv:"DIR"
           ~doc:"Output directory.")
  in
  Cmd.v
    (Cmd.info "realize"
       ~doc:
         "Synthesize the fig. 4 pipeline realization: product machine as \
          KISS2 plus minimized PLAs for C1, C2 and the output block.")
    Term.(const run $ machine_arg $ timeout_arg $ out_dir $ obs_term)

(* ------------------------------------------------------------------ *)
(* dot                                                                 *)
(* ------------------------------------------------------------------ *)

let dot_cmd =
  let run spec clusters timeout obs =
    let m = or_die (load_machine spec) in
    with_obs obs @@ fun () ->
    if clusters then begin
      let outcome = Ostr_core.run ~timeout m in
      let pi = outcome.Ostr_core.solution.Solver.pi in
      print_string (Dot.render ~pi_classes:(Partition.class_map pi) m)
    end
    else print_string (Dot.render m)
  in
  let clusters =
    Arg.(value & flag
         & info [ "clusters" ]
             ~doc:"Group states by the S1 classes of the OSTR optimum.")
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit the machine as a Graphviz digraph.")
    Term.(const run $ machine_arg $ clusters $ timeout_arg $ obs_term)

(* ------------------------------------------------------------------ *)
(* table1 / table2 / area / faultcov                                   *)
(* ------------------------------------------------------------------ *)

let table1_cmd =
  let run timeout jobs names obs =
    with_obs obs @@ fun () ->
    let entries =
      Experiments.table1 ~timeout ~jobs:(resolve_jobs jobs)
        ?names:(split_names names) ()
    in
    print_string (Experiments.render_table1 entries)
  in
  Cmd.v
    (Cmd.info "table1"
       ~doc:"Reproduce Table 1: OSTR factors and flip-flop counts.")
    Term.(const run $ timeout_arg $ jobs_arg $ names_arg $ obs_term)

let table2_cmd =
  let run timeout jobs names obs =
    with_obs obs @@ fun () ->
    let entries =
      Experiments.table1 ~timeout ~jobs:(resolve_jobs jobs)
        ?names:(split_names names) ()
    in
    print_string (Experiments.render_table2 entries)
  in
  Cmd.v
    (Cmd.info "table2"
       ~doc:"Reproduce Table 2: search-space size vs nodes investigated.")
    Term.(const run $ timeout_arg $ jobs_arg $ names_arg $ obs_term)

let area_cmd =
  let run timeout jobs names obs =
    with_obs obs @@ fun () ->
    let entries =
      Experiments.area ~timeout ~jobs:(resolve_jobs jobs)
        ?names:(split_names names) ()
    in
    print_string (Experiments.render_area entries)
  in
  Cmd.v
    (Cmd.info "area"
       ~doc:
         "Two-level cost of the monolithic block C vs the factored blocks \
          C1+C2+Lambda (section 4's hardware-saving discussion).")
    Term.(const run $ timeout_arg $ jobs_arg $ names_arg $ obs_term)

let faultcov_cmd =
  let run cycles jobs names obs =
    with_obs obs @@ fun () ->
    let entries =
      Experiments.coverage ~cycles ~jobs:(resolve_jobs jobs)
        ?names:(split_names names) ()
    in
    print_string (Experiments.render_coverage entries)
  in
  let cycles =
    Arg.(value & opt int 1024
         & info [ "cycles" ] ~docv:"N" ~doc:"Self-test session length.")
  in
  Cmd.v
    (Cmd.info "faultcov"
       ~doc:
         "Stuck-at fault coverage of the fig. 2/3/4 structures under their \
          BIST sessions.")
    Term.(const run $ cycles $ jobs_arg $ names_arg $ obs_term)

let testlen_cmd =
  let run cycles jobs names obs =
    with_obs obs @@ fun () ->
    let entries =
      Experiments.strategies ~cycles ~jobs:(resolve_jobs jobs)
        ?names:(split_names names) ()
    in
    print_string (Experiments.render_strategies entries)
  in
  let cycles =
    Arg.(value & opt int 1024
         & info [ "cycles" ] ~docv:"N" ~doc:"Pattern / sequence budget.")
  in
  Cmd.v
    (Cmd.info "testlen"
       ~doc:
         "Compare test strategies: random sequential testing through the \
          primary pins, full scan, and the fig. 4 two-session BIST \
          (section 1's motivation, quantified).")
    Term.(const run $ cycles $ jobs_arg $ names_arg $ obs_term)

let extensions_cmd =
  let run timeout names obs =
    with_obs obs @@ fun () ->
    let entries = Experiments.extensions ~timeout ?names:(split_names names) () in
    print_string (Experiments.render_extensions entries)
  in
  Cmd.v
    (Cmd.info "extensions"
       ~doc:
         "Run the state-splitting extension (the paper's future work) \
          against the 2-stage baseline.")
    Term.(const run $ timeout_arg $ names_arg $ obs_term)

let decompose_cmd =
  let run timeout names obs =
    with_obs obs @@ fun () ->
    let entries =
      Experiments.decomposition ~timeout ?names:(split_names names) ()
    in
    print_string (Experiments.render_decomposition entries)
  in
  Cmd.v
    (Cmd.info "decompose"
       ~doc:
         "Compare the OSTR pipeline against classical parallel/serial FSM \
          decomposition (the [16,3,15] techniques the paper distinguishes \
          itself from; decomposed submachines keep feedback loops).")
    Term.(const run $ timeout_arg $ names_arg $ obs_term)

let aliasing_cmd =
  let run cycles jobs names obs =
    with_obs obs @@ fun () ->
    let entries =
      Experiments.aliasing ~cycles ~jobs:(resolve_jobs jobs)
        ?names:(split_names names) ()
    in
    print_string (Experiments.render_aliasing entries)
  in
  let cycles =
    Arg.(value & opt int 512
         & info [ "cycles" ] ~docv:"N" ~doc:"Patterns per session.")
  in
  Cmd.v
    (Cmd.info "aliasing"
       ~doc:
         "Measure real MISR aliasing on the fig. 4 structure (quantifies \
          the grader's ideal-compaction assumption).")
    Term.(const run $ cycles $ jobs_arg $ names_arg $ obs_term)

(* ------------------------------------------------------------------ *)
(* selftest: narrated two-session BIST demo                            *)
(* ------------------------------------------------------------------ *)

let selftest_cmd =
  let run spec cycles jobs obs =
    let m = or_die (load_machine spec) in
    let jobs = resolve_jobs jobs in
    with_obs obs @@ fun () ->
    let built = (Context.of_machine ~cycles ~jobs m).Context.fig4 in
    Format.printf "pipeline structure of %s: %d flip-flops, %d gates@."
      m.Machine.name built.Arch.flipflops
      (Stc_netlist.Netlist.num_gates built.Arch.netlist);
    let reports =
      Session.run_each ~jobs built.Arch.netlist
        (List.mapi
           (fun k session -> (Printf.sprintf "session %d" (k + 1), session))
           built.Arch.sessions)
    in
    List.iteri
      (fun k ((stimuli, observed), report) ->
        Format.printf
          "session %d: %d cycles, %d observed nets, coverage %.1f%% (%d/%d)@."
          (k + 1) (Array.length stimuli) (Array.length observed)
          (100.0 *. report.Session.coverage)
          report.Session.detected report.Session.total)
      (List.combine built.Arch.sessions reports);
    let merged = Session.merge ~label:built.Arch.label reports in
    Format.printf "both sessions combined: %.1f%% (%d/%d)@."
      (100.0 *. merged.Session.coverage)
      merged.Session.detected merged.Session.total
  in
  let cycles =
    Arg.(value & opt int 1024
         & info [ "cycles" ] ~docv:"N" ~doc:"Patterns per session.")
  in
  Cmd.v
    (Cmd.info "selftest"
       ~doc:"Run the two-session self-test of the pipeline structure.")
    Term.(const run $ machine_arg $ cycles $ jobs_arg $ obs_term)

(* ------------------------------------------------------------------ *)
(* lint / scoap: static analysis                                       *)
(* ------------------------------------------------------------------ *)

let lint_cmd =
  let run spec timeout jobs werror json_out conventional list_passes obs =
    let jobs = resolve_jobs jobs in
    if list_passes then
      List.iter
        (fun p -> Format.printf "%-12s %s@." p.Pass.name p.Pass.doc)
        (Pass.all ())
    else begin
      let name, diags =
        if Sys.file_exists spec then begin
          (* FSM lint scans the raw text, so a file is not parsed here *)
          let name = Filename.remove_extension (Filename.basename spec) in
          let ic = open_in spec in
          let len = in_channel_length ic in
          let text = really_input_string ic len in
          close_in ic;
          let _ctx, diags =
            with_obs obs @@ fun () ->
            Lint.lint_kiss_text ~timeout ~conventional ~jobs ~name text
          in
          (name, diags)
        end
        else
          let m = or_die (load_machine spec) in
          let _ctx, diags =
            with_obs obs @@ fun () ->
            Lint.lint_machine ~timeout ~conventional ~jobs m
          in
          (m.Machine.name, diags)
      in
      Format.printf "%a" Diagnostic.pp_report diags;
      Option.iter
        (fun path ->
          Json.write path (Diagnostic.report_to_json ~subject:name diags);
          Format.eprintf "wrote lint report %s@." path)
        json_out;
      if Diagnostic.fails ~werror diags then exit 1
    end
  in
  let werror =
    Arg.(value & flag
         & info [ "werror" ] ~doc:"Exit nonzero on warnings, not just errors.")
  in
  let json_out =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Also write the sorted report as JSON to $(docv).")
  in
  let conventional =
    Arg.(value & flag
         & info [ "conventional" ]
             ~doc:
               "Also analyze the conventional fig. 1 structure (slow on \
                large machines: its monolithic block C must be minimized).")
  in
  let list_passes =
    Arg.(value & flag
         & info [ "list-passes" ]
             ~doc:"List the registered analysis passes and exit.")
  in
  let machine =
    (* Like [machine_arg] but optional so --list-passes works alone. *)
    Arg.(value & pos 0 string "" & info [] ~docv:"MACHINE"
           ~doc:
             "Machine to lint: a KISS2 file path, a benchmark name, a zoo \
              name or a generator spec.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static analysis: lint the FSM, the minimized covers and the \
          synthesized netlists, and statically prove the fig. 4 \
          feedback-free pipeline property.")
    Term.(
      const run $ machine $ timeout_arg $ jobs_arg $ werror $ json_out
      $ conventional $ list_passes $ obs_term)

(* ------------------------------------------------------------------ *)
(* verify: formal verification                                          *)
(* ------------------------------------------------------------------ *)

let verify_cmd =
  let run spec timeout jobs werror json_out all_archs cec redundant prove obs =
    let m = or_die (load_machine spec) in
    let jobs = resolve_jobs jobs in
    let select =
      match
        (if cec then [ "cec" ] else [])
        @ (if prove then [ "net-prove" ] else [])
        @ (if redundant then [ "sat-redundant" ] else [])
      with
      | [] -> None (* no mode flag: run the whole family *)
      | chosen -> Some chosen
    in
    let diags =
      with_obs obs @@ fun () ->
      let ctx =
        Context.of_machine ~timeout ~conventional:all_archs ~all_archs ~jobs m
      in
      Verify.run ?select ctx
    in
    Format.printf "%a" Diagnostic.pp_report diags;
    Option.iter
      (fun path ->
        Json.write path
          (Diagnostic.report_to_json ~subject:m.Machine.name diags);
        Format.eprintf "wrote verify report %s@." path)
      json_out;
    if Diagnostic.fails ~werror diags then exit 1
  in
  let werror =
    Arg.(value & flag
         & info [ "werror" ] ~doc:"Exit nonzero on warnings, not just errors.")
  in
  let json_out =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Also write the sorted report as JSON to $(docv).")
  in
  let all_archs =
    Arg.(value & flag
         & info [ "all-archs" ]
             ~doc:
               "Also verify the fig. 1/2/3 structures (each must minimize \
                the monolithic block C - slow on large machines).  Default: \
                the fig. 4 pipeline only.")
  in
  let cec =
    Arg.(value & flag
         & info [ "cec" ]
             ~doc:
               "Equivalence checking only: minimized blocks vs their on/dc \
                specification (the minimizer's cover checker), netlists vs \
                the FSM tables (every input point evaluated when a group \
                spans at most 2^22 points, lowest failing point as the \
                witness; SAT above that).")
  in
  let redundant =
    Arg.(value & flag
         & info [ "redundant" ]
             ~doc:
               "Untestable-fault proofs only: random-pattern simulation \
                settles most testable classes, then every class left is \
                graded on all input points (netlists of at most 2^22 \
                points: undetected = provably redundant) or gets one \
                cone-sized good-vs-faulty SAT miter (UNSAT = provably \
                redundant).")
  in
  let prove =
    Arg.(value & flag
         & info [ "prove" ]
             ~doc:
               "Pipeline-property proofs only: register-feedback \
                certificates (upgrades the structural NET010/NET011), \
                decided by flipping each register bit on every input point \
                (at most 2^22 points, lowest witness) or by a SAT miter.")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Formal verification: equivalence proofs (--cec), \
          untestable-fault proofs (--redundant) and pipeline-property \
          proofs (--prove); all three by default.  Netlist obligations \
          over at most 2^22 input points are decided by evaluating every \
          point, wider ones by SAT.")
    Term.(
      const run $ machine_arg $ timeout_arg $ jobs_arg $ werror $ json_out
      $ all_archs $ cec $ redundant $ prove $ obs_term)

let scoap_cmd =
  let run timeout names obs =
    with_obs obs @@ fun () ->
    let entries = Experiments.scoap ~timeout ?names:(split_names names) () in
    print_string (Experiments.render_scoap entries)
  in
  Cmd.v
    (Cmd.info "scoap"
       ~doc:
         "SCOAP testability metrics (CC0/CC1 controllability, CO \
          observability) of the conventional fig. 1 structure vs the \
          decomposed fig. 4 pipeline.")
    Term.(const run $ timeout_arg $ names_arg $ obs_term)

(* ------------------------------------------------------------------ *)
(* export-benchmarks                                                   *)
(* ------------------------------------------------------------------ *)

let export_cmd =
  let run out_dir obs =
    with_obs obs @@ fun () ->
    if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
    List.iter
      (fun spec ->
        let m = Suite.machine spec in
        let path = Filename.concat out_dir (spec.Suite.name ^ ".kiss") in
        let oc = open_out path in
        output_string oc (Kiss.print m);
        close_out oc;
        Format.printf "wrote %s@." path)
      Suite.all
  in
  let out_dir =
    Arg.(value & opt string "benchmarks"
         & info [ "o"; "output" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  Cmd.v
    (Cmd.info "export-benchmarks"
       ~doc:"Write all 13 benchmark stand-ins as KISS2 files.")
    Term.(const run $ out_dir $ obs_term)

let () =
  Stc_obs.Parmon.install ();
  let doc = "synthesis of self-testable controllers (ED&TC 1994 reproduction)" in
  let main =
    Cmd.group
      (Cmd.info "ostr" ~version:"1.0.0" ~doc)
      [
        info_cmd; minimize_cmd; solve_cmd; anytime_cmd; realize_cmd; dot_cmd; table1_cmd;
        table2_cmd; area_cmd; faultcov_cmd; testlen_cmd; extensions_cmd;
        decompose_cmd; aliasing_cmd; selftest_cmd; lint_cmd; verify_cmd;
        scoap_cmd; export_cmd;
      ]
  in
  exit (Cmd.eval main)
