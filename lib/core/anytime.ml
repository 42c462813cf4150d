module Partition = Stc_partition.Partition
module Pair = Stc_partition.Pair
module Machine = Stc_fsm.Machine
module Rng = Stc_util.Rng
module Parallel = Stc_util.Parallel
module Clock = Stc_util.Clock
module Metrics = Stc_obs.Metrics
module Trace = Stc_obs.Trace

(* Stochastic anytime tier: seeded beam search + simulated annealing over
   symmetric partition pairs.  See the .mli for the contract; the
   load-bearing invariant throughout is that every random decision comes
   from a per-task substream indexed by a deterministic counter, and
   every cross-domain result lands in an index-addressed slot, so the
   whole search is a pure function of (machine, config) regardless of
   how many domains execute it. *)

let m_engaged = Metrics.counter "solver.anytime_engaged"
let m_evals = Metrics.counter "anytime.evals"
let m_feasible = Metrics.counter "anytime.feasible"
let m_rounds = Metrics.counter "anytime.rounds"
let m_sa_accepted = Metrics.counter "anytime.sa_accepted"
let m_closure_delta = Metrics.counter "anytime.closure_delta"
let m_closure_full = Metrics.counter "anytime.closure_full"
let m_closure_rejected = Metrics.counter "anytime.closure_rejected"
let m_closure_dirty = Metrics.counter "anytime.closure_dirty"
let m_closure_tt_hits = Metrics.counter "anytime.closure_tt_hits"
let m_split_collapsed = Metrics.counter "anytime.split_collapsed"
let g_best_bits = Metrics.gauge "anytime.best_bits"

type engage_reason = Forced | Budget_exhausted | Too_large

type tier = Exact | Stochastic of engage_reason

type config = {
  seed : int;
  beam_width : int;
  moves_per_candidate : int;
  split_ratio : int;
  max_rounds : int;
  max_evals : int;
  patience : int;
  sa_chains : int;
  sa_steps : int;
  exact_max_nodes : int;
  exact_max_states : int;
  budget : float;
  jobs : int;
  incremental : bool;
}

let default_config =
  {
    seed = 1;
    beam_width = 8;
    moves_per_candidate = 24;
    split_ratio = 6;
    max_rounds = 256;
    max_evals = 20_000;
    patience = 16;
    sa_chains = 4;
    sa_steps = 400;
    exact_max_nodes = 50_000;
    exact_max_states = 300;
    budget = infinity;
    jobs = 1;
    incremental = true;
  }

type frontier_point = {
  round : int;
  evals : int;
  elapsed : float;
  cost : Solver.cost;
}

type stats = {
  tier : tier;
  exact : Solver.stats option;
  rounds : int;
  evals : int;
  feasible : int;
  sa_accepted : int;
  elapsed : float;
  timed_out : bool;
  rng_fingerprint : int;
  trajectory : frontier_point list;
}

type result = { best : Solver.solution; stats : stats }

let pp_tier ppf = function
  | Exact -> Format.pp_print_string ppf "exact"
  | Stochastic Forced -> Format.pp_print_string ppf "stochastic(forced)"
  | Stochastic Budget_exhausted ->
    Format.pp_print_string ppf "stochastic(budget)"
  | Stochastic Too_large -> Format.pp_print_string ppf "stochastic(too-large)"

(* ------------------------------------------------------------------ *)
(* Move evaluation                                                     *)
(* ------------------------------------------------------------------ *)

type ctx = {
  n : int;
  next : int array array;
  equiv : Partition.t;  (* state equivalence: the admissibility bound *)
}

let make_ctx machine =
  {
    n = machine.Machine.num_states;
    next = machine.Machine.next;
    equiv = Solver.equivalence_partition machine;
  }

(* One-step move descriptor.  Generation — the only consumer of the RNG
   — is separated from evaluation so a transposition-table hit can skip
   the closure without perturbing the stream: the draw sequence is a
   pure function of the parent, never of how (or whether) the proposal
   gets evaluated. *)
type move = Pair.move =
  | Merge of { on_pi : bool; c : int; d : int }
      (** merge blocks [c] and [d] of the chosen side *)
  | Split of { on_pi : bool; s : int }
      (** singleton-split element [s] out of its block *)

(* Draw-for-draw the historical generator: split with probability
   [1/split_ratio] (never when [split_ratio <= 0], and then without the
   arm draw), otherwise merge.  Each arm consumes exactly the draws the
   old materializing generator did; the old split-and-compare degenerate
   test is the singleton test here. *)
let gen_move ctx ~split_ratio rng (parent : Solver.solution) =
  Trace.span ~cat:"anytime" "move_gen" @@ fun () ->
  if split_ratio > 0 && Rng.int rng split_ratio = 0 then begin
    (* Escape move: singleton-split one element on one side; evaluation
       re-opens the other side with the matching extremal operator.
       Deliberately a long jump — it abandons the untouched side — which
       is what lets the beam leave a basin the merges cannot. *)
    let on_pi = Rng.bool rng in
    let side = if on_pi then parent.Solver.pi else parent.Solver.rho in
    if Partition.is_identity side then None
    else begin
      let s = Rng.int rng ctx.n in
      if Partition.class_size side (Partition.class_of side s) = 1 then None
      else Some (Split { on_pi; s })
    end
  end
  else begin
    (* Upward move: merge two random blocks on one side.  The closure
       keeps the proposal a symmetric pair by construction, so the only
       feasibility question left is the meet bound. *)
    let on_pi = Rng.bool rng in
    let side = if on_pi then parent.Solver.pi else parent.Solver.rho in
    let k = Partition.num_classes side in
    if k < 2 then None
    else begin
      let c = Rng.int rng k in
      let d =
        let d = Rng.int rng (k - 1) in
        if d >= c then d + 1 else d
      in
      Some (Merge { on_pi; c; d })
    end
  end

(* Full-recompute closure: materialize the moved side, re-close from
   scratch and gate on the fused [meet_subseteq] kernel — exactly the
   historical evaluator, kept as the equivalence oracle for
   [Pair.close_merge]. *)
let close_full memo ~equiv (parent : Solver.solution) mv =
  let pi, rho =
    match mv with
    | Merge { on_pi; c; d } ->
      let side = if on_pi then parent.Solver.pi else parent.Solver.rho in
      let side' = Partition.merge_classes side c d in
      if on_pi then Pair.close memo side' parent.Solver.rho
      else Pair.close memo parent.Solver.pi side'
    | Split { on_pi; s } ->
      let side = if on_pi then parent.Solver.pi else parent.Solver.rho in
      let side' = Partition.split_singleton side s in
      if on_pi then Pair.close memo side' (Pair.Memo.m memo side')
      else Pair.close memo (Pair.Memo.big_m memo side') side'
  in
  if Partition.meet_subseteq pi rho equiv then Some (pi, rho) else None

(* Per-domain proposal transposition table.  Beam siblings share a
   parent and the move space is only quadratic in its class counts, so
   a round of [beam * moves] draws repeats (parent, move) pairs often;
   the table replays the cached evaluation result before any closure
   work.  Invisible to the search semantics at any [jobs]: the cached
   value is exactly what re-evaluation would produce, and generation
   has already consumed the stream. *)
module TT = Hashtbl.Make (struct
  type t = Partition.t * Partition.t * move

  let equal (p1, r1, m1) (p2, r2, m2) =
    m1 = m2 && Partition.equal p1 p2 && Partition.equal r1 r2

  let hash (p, r, m) = Hashtbl.hash (Partition.hash p, Partition.hash r, m)
end)

(* One domain's working state: the m/M memo plus the transposition
   table, both keyed on hash-consed partitions local to that domain. *)
type local = { memo : Pair.Memo.t; tt : Solver.solution option TT.t }

let make_local ctx () =
  { memo = Pair.Memo.create ~next:ctx.next; tt = TT.create 256 }

(* Evaluate one proposal: generate, consult the table, close and gate
   in one step (the engine, or the oracle when [incremental] is off),
   then polish + cost the survivors.  The spans are the frames the
   profiler attributes anytime flamegraphs to. *)
let eval_move ctx ~split_ratio ~incremental { memo; tt } rng
    (parent : Solver.solution) =
  Metrics.incr m_evals;
  match gen_move ctx ~split_ratio rng parent with
  | None -> None
  | Some mv -> (
    let key = (parent.Solver.pi, parent.Solver.rho, mv) in
    match TT.find_opt tt key with
    | Some r ->
      Metrics.incr m_closure_tt_hits;
      r
    | None ->
      let closed =
        if incremental then begin
          Trace.span ~cat:"anytime" "closure_delta" @@ fun () ->
          Metrics.incr m_closure_delta;
          let { Pair.closed; dirty; collapsed } =
            Pair.close_merge memo ~equiv:ctx.equiv ~pi:parent.Solver.pi
              ~rho:parent.Solver.rho mv
          in
          Metrics.add m_closure_dirty dirty;
          if collapsed then Metrics.incr m_split_collapsed;
          if Option.is_none closed then Metrics.incr m_closure_rejected;
          closed
        end
        else begin
          Trace.span ~cat:"anytime" "closure_full" @@ fun () ->
          Metrics.incr m_closure_full;
          close_full memo ~equiv:ctx.equiv parent mv
        end
      in
      let r =
        match closed with
        | None -> None
        | Some (pi, rho) ->
          Metrics.incr m_feasible;
          let pi, rho =
            Trace.span ~cat:"anytime" "polish" @@ fun () ->
            (* A merge's closure coarsens the closed parent, so its
               M-images derive from the parent's cached ones. *)
            let from =
              match mv with
              | Merge _ when incremental ->
                Some (parent.Solver.pi, parent.Solver.rho)
              | _ -> None
            in
            Pair.polish ?from memo ~equiv:ctx.equiv pi rho
          in
          let cost = Solver.cost_of ~pi ~rho in
          Some { Solver.pi; rho; cost }
      in
      TT.add tt key r;
      r)

(* Total deterministic order on candidates: lexicographic cost, then
   structural partition order — domain-independent, so selection and
   deduplication never depend on evaluation timing. *)
let cand_compare (a : Solver.solution) (b : Solver.solution) =
  let c = Solver.compare_cost a.Solver.cost b.Solver.cost in
  if c <> 0 then c
  else
    let c = Partition.compare a.Solver.pi b.Solver.pi in
    if c <> 0 then c else Partition.compare a.Solver.rho b.Solver.rho

let dedupe_sorted cands =
  let sorted = List.sort cand_compare cands in
  let rec go = function
    | a :: b :: rest ->
      if cand_compare a b = 0 then go (a :: rest) else a :: go (b :: rest)
    | l -> l
  in
  go sorted

let rec take k = function
  | [] -> []
  | _ when k <= 0 -> []
  | x :: rest -> x :: take (k - 1) rest

(* Scalar relaxation of the lexicographic cost for Metropolis: bits
   dominate, factor states break ties at sub-bit scale, imbalance at
   sub-tie scale.  Only differences matter. *)
let energy ctx (s : Solver.solution) =
  float_of_int s.Solver.cost.Solver.bits
  +. (float_of_int s.Solver.cost.Solver.factor_states
     /. float_of_int (4 * ctx.n))
  +. (0.01 *. s.Solver.cost.Solver.imbalance
      /. (1.0 +. s.Solver.cost.Solver.imbalance))

(* ------------------------------------------------------------------ *)
(* The stochastic search                                               *)
(* ------------------------------------------------------------------ *)

let run_stochastic ~reason ~config ~seeds machine =
  Trace.span ~cat:"anytime" "stochastic" @@ fun () ->
  let start = Clock.now () in
  let ctx = make_ctx machine in
  let jobs = max 1 config.jobs in
  let moves = max 1 config.moves_per_candidate in
  (* Master stream: never advanced, only [substream]ed by task index. *)
  let root_rng = Rng.create config.seed in
  let main_memo = Pair.Memo.create ~next:ctx.next in
  let root =
    (* (M(identity), identity) is always an admissible symmetric pair:
       the same root the exact DFS records first. *)
    let id = Partition.identity ctx.n in
    let pi, rho =
      Pair.polish main_memo ~equiv:ctx.equiv (Pair.Memo.big_m main_memo id) id
    in
    { Solver.pi; rho; cost = Solver.cost_of ~pi ~rho }
  in
  let seeds =
    List.filter
      (fun s ->
        Pair.admissible ~next:ctx.next ~equiv:ctx.equiv s.Solver.pi
          s.Solver.rho)
      seeds
  in
  let beam0 = take config.beam_width (dedupe_sorted (root :: seeds)) in
  let best0 = List.hd beam0 in
  let evals = ref 0 in
  let feasible = ref 0 in
  let fingerprint = ref 0 in
  let timed_out = ref false in
  let trajectory =
    ref
      [ { round = 0; evals = 0; elapsed = Clock.now () -. start;
          cost = best0.Solver.cost } ]
  in
  let over_budget () =
    config.budget < infinity && Clock.now () -. start > config.budget
  in
  (* Beam generations.  Each round fans [beam * moves] proposals over the
     domains; task i draws from substream (#evals-so-far + i) and lands
     in slot i, so the round's outcome is independent of [jobs]. *)
  let rec beam_loop beam best round stagnation =
    let beam_arr = Array.of_list beam in
    let ntasks = Array.length beam_arr * moves in
    if
      round >= config.max_rounds
      || stagnation >= config.patience
      || ntasks = 0
      || !evals + ntasks > config.max_evals
    then (best, round)
    else if over_budget () then begin
      timed_out := true;
      (best, round)
    end
    else begin
      Metrics.incr m_rounds;
      let results = Array.make ntasks None in
      let fps = Array.make ntasks 0 in
      let base = !evals in
      Trace.span ~cat:"anytime" "beam_round" (fun () ->
          Parallel.iter_range_local ~jobs ~local:(make_local ctx) ntasks
            (fun local i ->
              let rng = Rng.substream root_rng (base + i) in
              results.(i) <-
                eval_move ctx ~split_ratio:config.split_ratio
                  ~incremental:config.incremental local rng
                  beam_arr.(i / moves);
              fps.(i) <- Rng.fingerprint rng));
      evals := !evals + ntasks;
      Array.iter (fun v -> fingerprint := !fingerprint lxor v) fps;
      let fresh = List.filter_map Fun.id (Array.to_list results) in
      feasible := !feasible + List.length fresh;
      let beam' = take config.beam_width (dedupe_sorted (beam @ fresh)) in
      let best' = List.hd beam' in
      let improved = cand_compare best' best < 0 in
      (* [improved] includes the structural tie-breaks (it drives the
         stagnation counter); the frontier only records genuine cost
         improvements *)
      if Solver.compare_cost best'.Solver.cost best.Solver.cost < 0 then begin
        Metrics.set_gauge g_best_bits best'.Solver.cost.Solver.bits;
        trajectory :=
          { round = round + 1; evals = !evals;
            elapsed = Clock.now () -. start; cost = best'.Solver.cost }
          :: !trajectory
      end;
      beam_loop beam' best' (round + 1) (if improved then 0 else stagnation + 1)
    end
  in
  let best, rounds = beam_loop beam0 best0 0 0 in
  (* Annealing polish: a fixed number of independent Metropolis chains
     (not one per domain — the chain count must not depend on [jobs]),
     each walking from the beam incumbent under its own substream. *)
  let chains = max 0 config.sa_chains in
  let sa_steps =
    if chains = 0 then 0
    else min config.sa_steps (max 0 ((config.max_evals - !evals) / chains))
  in
  let sa_results = Array.make (max 1 chains) None in
  if sa_steps > 0 && not (over_budget ()) then begin
    let sa_base = !evals in
    Trace.span ~cat:"anytime" "sa" (fun () ->
        Parallel.iter_range_local ~jobs ~local:(make_local ctx) chains
          (fun local c ->
            let rng = Rng.substream root_rng (sa_base + c) in
            let current = ref best in
            let chain_best = ref best in
            let accepted = ref 0 in
            let chain_feasible = ref 0 in
            let t0 = 2.0 and t1 = 0.02 in
            for k = 0 to sa_steps - 1 do
              let temp =
                t0
                *. ((t1 /. t0)
                   ** (float_of_int k /. float_of_int (max 1 (sa_steps - 1))))
              in
              match
                eval_move ctx ~split_ratio:config.split_ratio
                  ~incremental:config.incremental local rng !current
              with
              | None -> ()
              | Some cand ->
                incr chain_feasible;
                let d = energy ctx cand -. energy ctx !current in
                if d <= 0.0 || Rng.float rng < exp (-.d /. temp) then begin
                  incr accepted;
                  current := cand;
                  if cand_compare cand !chain_best < 0 then chain_best := cand
                end
            done;
            sa_results.(c) <-
              Some (!chain_best, !accepted, !chain_feasible,
                    Rng.fingerprint rng)));
    evals := !evals + (chains * sa_steps)
  end
  else if over_budget () then timed_out := true;
  let sa_accepted = ref 0 in
  let best =
    Array.fold_left
      (fun acc r ->
        match r with
        | None -> acc
        | Some (b, acc_n, feas, fp) ->
          sa_accepted := !sa_accepted + acc_n;
          feasible := !feasible + feas;
          fingerprint := !fingerprint lxor fp;
          if cand_compare b acc < 0 then b else acc)
      best sa_results
  in
  Metrics.add m_sa_accepted !sa_accepted;
  Metrics.set_gauge g_best_bits best.Solver.cost.Solver.bits;
  (match Solver.validate machine best with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Anytime.search: internal error: " ^ msg));
  let final =
    { round = rounds; evals = !evals; elapsed = Clock.now () -. start;
      cost = best.Solver.cost }
  in
  {
    best;
    stats =
      {
        tier = Stochastic reason;
        exact = None;
        rounds;
        evals = !evals;
        feasible = !feasible;
        sa_accepted = !sa_accepted;
        elapsed = Clock.now () -. start;
        timed_out = !timed_out;
        rng_fingerprint = !fingerprint;
        trajectory = List.rev (final :: !trajectory);
      };
  }

let search ?(config = default_config) ?(seeds = []) machine =
  run_stochastic ~reason:Forced ~config ~seeds machine

(* ------------------------------------------------------------------ *)
(* The anytime driver                                                  *)
(* ------------------------------------------------------------------ *)

let solve ?(config = default_config) ?(force = false) machine =
  Trace.span ~cat:"anytime" "anytime" @@ fun () ->
  let start = Clock.now () in
  let n = machine.Machine.num_states in
  let engage reason ~exact ~seeds =
    Metrics.incr m_engaged;
    Trace.instant ~cat:"anytime" "anytime_engaged";
    let remaining =
      if config.budget = infinity then infinity
      else Float.max 0.5 (config.budget -. (Clock.now () -. start))
    in
    let r =
      run_stochastic ~reason
        ~config:{ config with budget = remaining }
        ~seeds machine
    in
    { r with stats = { r.stats with exact; elapsed = Clock.now () -. start } }
  in
  if force then engage Forced ~exact:None ~seeds:[]
  else if n > config.exact_max_states then
    (* The basis alone is n(n-1)/2 interned partitions — never built. *)
    engage Too_large ~exact:None ~seeds:[]
  else begin
    let exact_timeout =
      if config.budget = infinity then infinity else 0.5 *. config.budget
    in
    (* Sequential on purpose: the hand-off incumbent must be reproducible
       for the stochastic tier to be; fan-out lives in the beam/SA
       loops. *)
    let r =
      Trace.span ~cat:"anytime" "exact_tier" @@ fun () ->
      Solver.solve ~timeout:exact_timeout ~max_nodes:config.exact_max_nodes
        ~jobs:1 machine
    in
    if r.Solver.stats.Solver.timed_out then
      engage Budget_exhausted ~exact:(Some r.Solver.stats)
        ~seeds:[ r.Solver.best ]
    else
      {
        best = r.Solver.best;
        stats =
          {
            tier = Exact;
            exact = Some r.Solver.stats;
            rounds = 0;
            evals = 0;
            feasible = 0;
            sa_accepted = 0;
            elapsed = Clock.now () -. start;
            timed_out = false;
            rng_fingerprint = 0;
            trajectory = [];
          };
      }
  end
