module Machine = Stc_fsm.Machine
module Zoo = Stc_fsm.Zoo
module Generate = Stc_fsm.Generate
module Partition = Stc_partition.Partition
module Solver = Stc_core.Solver
module Anytime = Stc_core.Anytime
module Suite = Stc_benchmarks.Suite
module Metrics = Stc_obs.Metrics
module Rng = Stc_util.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let qcheck = QCheck_alcotest.to_alcotest

(* Small deterministic budgets so the whole file runs in seconds.  No
   wall budget: every stop below is a counter, so results are exactly
   reproducible. *)
let small_config =
  {
    Anytime.default_config with
    Anytime.beam_width = 4;
    moves_per_candidate = 12;
    max_rounds = 40;
    max_evals = 800;
    patience = 8;
    sa_chains = 2;
    sa_steps = 100;
  }

let suite_machine name =
  match Suite.find name with
  | Some spec -> Suite.machine spec
  | None -> Alcotest.failf "unknown suite machine %s" name

(* The jobs-invariance contract: equal cost, equal factor partitions,
   equal XOR fingerprint of the consumed RNG streams. *)
let identical (a : Anytime.result) (b : Anytime.result) =
  Solver.compare_cost a.Anytime.best.Solver.cost b.Anytime.best.Solver.cost = 0
  && a.Anytime.stats.Anytime.rng_fingerprint
     = b.Anytime.stats.Anytime.rng_fingerprint
  && Partition.compare a.Anytime.best.Solver.pi b.Anytime.best.Solver.pi = 0
  && Partition.compare a.Anytime.best.Solver.rho b.Anytime.best.Solver.rho = 0

(* ------------------------------------------------------------------ *)
(* Determinism                                                         *)
(* ------------------------------------------------------------------ *)

let test_seeded_twice_identical () =
  let m = suite_machine "dk16" in
  let r1 = Anytime.search ~config:small_config m in
  let r2 = Anytime.search ~config:small_config m in
  check_bool "same seed, same run" true (identical r1 r2);
  let r3 =
    Anytime.search ~config:{ small_config with Anytime.seed = 2 } m
  in
  check_bool "different seed, different streams" true
    (r1.Anytime.stats.Anytime.rng_fingerprint
    <> r3.Anytime.stats.Anytime.rng_fingerprint)

let test_jobs_invariance () =
  let m = suite_machine "dk16" in
  let r1 = Anytime.search ~config:small_config m in
  List.iter
    (fun jobs ->
      let rn =
        Anytime.search ~config:{ small_config with Anytime.jobs = jobs } m
      in
      check_bool
        (Printf.sprintf "jobs=%d matches jobs=1" jobs)
        true (identical r1 rn))
    [ 2; 4 ]

let test_stats_deterministic () =
  let m = suite_machine "dk512" in
  let r1 = Anytime.search ~config:small_config m in
  let r2 =
    Anytime.search ~config:{ small_config with Anytime.jobs = 3 } m
  in
  check_int "evals agree" r1.Anytime.stats.Anytime.evals
    r2.Anytime.stats.Anytime.evals;
  check_int "feasible agree" r1.Anytime.stats.Anytime.feasible
    r2.Anytime.stats.Anytime.feasible;
  check_int "rounds agree" r1.Anytime.stats.Anytime.rounds
    r2.Anytime.stats.Anytime.rounds;
  check_int "SA acceptances agree" r1.Anytime.stats.Anytime.sa_accepted
    r2.Anytime.stats.Anytime.sa_accepted

(* ------------------------------------------------------------------ *)
(* Incremental closure engine vs the full-recompute oracle             *)
(* ------------------------------------------------------------------ *)

(* The headline contract of the delta evaluator: flipping [incremental]
   changes nothing observable — cost, factors, fingerprint, stats. *)
let test_incremental_matches_full () =
  let machines =
    [ ("dk16", suite_machine "dk16");
      ( "planted:96x4@1",
        match Generate.of_spec "planted:96x4@1" with
        | Some m -> m
        | None -> Alcotest.fail "spec should parse" ) ]
  in
  List.iter
    (fun (name, m) ->
      let inc = Anytime.search ~config:small_config m in
      let full =
        Anytime.search
          ~config:{ small_config with Anytime.incremental = false }
          m
      in
      check_bool (name ^ ": incremental = full oracle") true
        (identical inc full);
      check_int (name ^ ": evals agree") inc.Anytime.stats.Anytime.evals
        full.Anytime.stats.Anytime.evals;
      check_int (name ^ ": feasible agree")
        inc.Anytime.stats.Anytime.feasible full.Anytime.stats.Anytime.feasible)
    machines

(* Jobs invariance across the evaluator switch: the per-domain
   transposition tables and memo caches must be invisible, so even
   incremental jobs=4 equals the full oracle at jobs=1. *)
let test_incremental_jobs_cross () =
  let m = suite_machine "dk16" in
  let full1 =
    Anytime.search
      ~config:{ small_config with Anytime.incremental = false }
      m
  in
  List.iter
    (fun jobs ->
      let inc =
        Anytime.search ~config:{ small_config with Anytime.jobs = jobs } m
      in
      check_bool
        (Printf.sprintf "incremental jobs=%d = full jobs=1" jobs)
        true (identical full1 inc))
    [ 2; 4 ]

(* The closure_* observability contract.  Incremental mode sends every
   fresh proposal, splits included, through the engine: no oracle
   closures, and each engine run either survives (and is counted
   feasible) or is rejected inside it.  Oracle mode never touches the
   engine. *)
let test_closure_metrics () =
  Metrics.set_enabled true;
  Metrics.reset ();
  let m = suite_machine "dk16" in
  ignore (Anytime.search ~config:small_config m);
  let counter name =
    match Metrics.find name with
    | Some (Metrics.Counter n) -> n
    | _ -> Alcotest.failf "%s not recorded" name
  in
  check_bool "engine closures ran" true (counter "anytime.closure_delta" > 0);
  check_int "no oracle closures (splits go through the engine)" 0
    (counter "anytime.closure_full");
  check_bool "engine rejections counted" true
    (counter "anytime.closure_rejected" > 0);
  check_int "engine survivors = feasible proposals"
    (counter "anytime.feasible")
    (counter "anytime.closure_delta" - counter "anytime.closure_rejected");
  check_bool "union events counted" true (counter "anytime.closure_dirty" > 0);
  check_bool "tt hits counted" true (counter "anytime.closure_tt_hits" > 0);
  check_bool "every eval is an engine run, a tt hit, or degenerate" true
    (counter "anytime.closure_delta" + counter "anytime.closure_tt_hits"
    <= counter "anytime.evals");
  (* on a planted machine the closed-form splits mostly pull the state
     back into its block *)
  Metrics.reset ();
  let planted =
    match Generate.of_spec "planted:128x4@3" with
    | Some m -> m
    | None -> Alcotest.fail "planted spec did not parse"
  in
  ignore (Anytime.search ~config:small_config planted);
  check_int "planted: engine survivors = feasible proposals"
    (counter "anytime.feasible")
    (counter "anytime.closure_delta" - counter "anytime.closure_rejected");
  check_bool "planted: collapsed splits counted" true
    (counter "anytime.split_collapsed" > 0);
  (* with the full oracle forced, the engine never runs *)
  Metrics.reset ();
  ignore
    (Anytime.search
       ~config:{ small_config with Anytime.incremental = false }
       m);
  check_int "oracle path never runs the engine" 0
    (counter "anytime.closure_delta");
  check_int "oracle path rejects nothing in the engine" 0
    (counter "anytime.closure_rejected");
  check_bool "oracle path counts full closures" true
    (counter "anytime.closure_full" > 0);
  Metrics.set_enabled false

(* --split-ratio plumbing: 0 disables splits (still valid and
   deterministic), other ratios change the consumed streams. *)
let test_split_ratio () =
  let m = suite_machine "dk16" in
  let run ratio =
    Anytime.search ~config:{ small_config with Anytime.split_ratio = ratio } m
  in
  let merges_only = run 0 in
  check_bool "merges-only run is reproducible" true
    (identical merges_only (run 0));
  check_bool "merges-only validates" true
    (Solver.validate m merges_only.Anytime.best = Ok ());
  let default = run 6 and splitty = run 2 in
  check_bool "ratio 6 = default config" true
    (identical default (Anytime.search ~config:small_config m));
  check_bool "ratio changes the streams" true
    (default.Anytime.stats.Anytime.rng_fingerprint
     <> splitty.Anytime.stats.Anytime.rng_fingerprint
    || default.Anytime.stats.Anytime.rng_fingerprint
       <> merges_only.Anytime.stats.Anytime.rng_fingerprint);
  (* merges-only under the incremental engine still matches the oracle *)
  check_bool "merges-only incremental = full" true
    (identical merges_only
       (Anytime.search
          ~config:
            { small_config with
              Anytime.split_ratio = 0;
              incremental = false
            }
          m))

(* ------------------------------------------------------------------ *)
(* Quality                                                             *)
(* ------------------------------------------------------------------ *)

let test_fig5_reaches_optimum () =
  let m = Zoo.paper_fig5 () in
  let exact = Solver.solve m in
  let r = Anytime.search ~config:small_config m in
  check_int "stochastic tier finds the fig. 5 optimum"
    exact.Solver.best.Solver.cost.Solver.bits
    r.Anytime.best.Solver.cost.Solver.bits

let test_trajectory_monotone () =
  let m = suite_machine "tbk" in
  let r = Anytime.search ~config:small_config m in
  let tr = r.Anytime.stats.Anytime.trajectory in
  check_bool "trajectory nonempty" true (tr <> []);
  (* improvements strictly lower the cost; the final appended
     end-of-run point may only repeat the incumbent *)
  let rec improving = function
    | a :: [ last ] ->
      Solver.compare_cost last.Anytime.cost a.Anytime.cost <= 0
    | a :: (b :: _ as rest) ->
      Solver.compare_cost b.Anytime.cost a.Anytime.cost < 0 && improving rest
    | _ -> true
  in
  check_bool "costs improve along the trajectory" true (improving tr);
  let last = List.nth tr (List.length tr - 1) in
  check_int "last point is the incumbent" 0
    (Solver.compare_cost last.Anytime.cost r.Anytime.best.Solver.cost)

let test_never_worse_than_exact =
  QCheck.Test.make ~count:15
    ~name:"stochastic cost >= exact optimum on small machines"
    QCheck.(pair (int_bound 1000) (int_range 4 8))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let m =
        Generate.random ~rng ~name:"q" ~num_states:n ~num_inputs:4
          ~num_outputs:4 ()
      in
      let exact = Solver.solve m in
      let r = Anytime.search ~config:small_config m in
      Solver.compare_cost exact.Solver.best.Solver.cost
        r.Anytime.best.Solver.cost
      <= 0)

(* ------------------------------------------------------------------ *)
(* Tier dispatch                                                       *)
(* ------------------------------------------------------------------ *)

let test_exact_tier () =
  let m = Zoo.paper_fig5 () in
  let r = Anytime.solve ~config:small_config m in
  check_bool "small machine stays exact" true (r.Anytime.stats.Anytime.tier = Anytime.Exact);
  check_bool "exact stats attached" true (r.Anytime.stats.Anytime.exact <> None);
  let exact = Solver.solve m in
  check_int "same optimum" exact.Solver.best.Solver.cost.Solver.bits
    r.Anytime.best.Solver.cost.Solver.bits

let test_budget_handoff () =
  Metrics.set_enabled true;
  Metrics.reset ();
  let m = suite_machine "dk16" in
  (* a 10-node budget cannot finish dk16's 49k-node search: the exact
     incumbent is handed to the stochastic tier as a seed *)
  let r =
    Anytime.solve
      ~config:{ small_config with Anytime.exact_max_nodes = 10 }
      m
  in
  (match r.Anytime.stats.Anytime.tier with
  | Anytime.Stochastic Anytime.Budget_exhausted -> ()
  | t -> Alcotest.failf "expected budget hand-off, got %a" Anytime.pp_tier t);
  check_bool "exact attempt recorded" true
    (r.Anytime.stats.Anytime.exact <> None);
  (match Metrics.find "solver.anytime_engaged" with
  | Some (Metrics.Counter n) ->
    check_bool "engagement counter bumped" true (n >= 1)
  | _ -> Alcotest.fail "solver.anytime_engaged not recorded");
  Metrics.set_enabled false

let test_too_large_skips_exact () =
  let m = suite_machine "dk16" in
  let r =
    Anytime.solve
      ~config:{ small_config with Anytime.exact_max_states = 8 }
      m
  in
  (match r.Anytime.stats.Anytime.tier with
  | Anytime.Stochastic Anytime.Too_large -> ()
  | t -> Alcotest.failf "expected too-large dispatch, got %a" Anytime.pp_tier t);
  check_bool "exact tier never ran" true (r.Anytime.stats.Anytime.exact = None)

let test_force_stochastic () =
  let m = Zoo.paper_fig5 () in
  let r = Anytime.solve ~config:small_config ~force:true m in
  match r.Anytime.stats.Anytime.tier with
  | Anytime.Stochastic Anytime.Forced -> ()
  | t -> Alcotest.failf "expected forced tier, got %a" Anytime.pp_tier t

(* ------------------------------------------------------------------ *)
(* Scale (one mid-size planted machine, tiny budget)                   *)
(* ------------------------------------------------------------------ *)

let test_planted_beats_trivial () =
  let m =
    match Generate.of_spec "planted:128x4@3" with
    | Some m -> m
    | None -> Alcotest.fail "spec should parse"
  in
  let r =
    Anytime.solve ~config:{ small_config with Anytime.exact_max_states = 64 } m
  in
  check_bool "nontrivial factorization" true
    (not (Solver.is_trivial m r.Anytime.best));
  check_bool "beats doubling the machine" true
    (r.Anytime.best.Solver.cost.Solver.bits
    < 2 * Machine.bits_for m.Machine.num_states)

let () =
  Alcotest.run "stc_anytime"
    [
      ( "determinism",
        [
          Alcotest.test_case "seeded twice identical" `Quick
            test_seeded_twice_identical;
          Alcotest.test_case "jobs invariance" `Quick test_jobs_invariance;
          Alcotest.test_case "stats deterministic" `Quick
            test_stats_deterministic;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "incremental = full oracle" `Quick
            test_incremental_matches_full;
          Alcotest.test_case "jobs cross-invariance" `Quick
            test_incremental_jobs_cross;
          Alcotest.test_case "closure metrics" `Quick test_closure_metrics;
          Alcotest.test_case "split ratio" `Quick test_split_ratio;
        ] );
      ( "quality",
        [
          Alcotest.test_case "fig5 optimum" `Quick test_fig5_reaches_optimum;
          Alcotest.test_case "trajectory monotone" `Quick
            test_trajectory_monotone;
          qcheck test_never_worse_than_exact;
        ] );
      ( "tiers",
        [
          Alcotest.test_case "exact tier" `Quick test_exact_tier;
          Alcotest.test_case "budget hand-off" `Quick test_budget_handoff;
          Alcotest.test_case "too-large dispatch" `Quick
            test_too_large_skips_exact;
          Alcotest.test_case "forced" `Quick test_force_stochastic;
        ] );
      ( "scale",
        [
          Alcotest.test_case "planted beats trivial" `Quick
            test_planted_beats_trivial;
        ] );
    ]
