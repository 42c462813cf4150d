module Partition = Stc_partition.Partition
module Machine = Stc_fsm.Machine
module Equiv = Stc_fsm.Equiv
module Pair = Stc_partition.Pair
module Clock = Stc_util.Clock
module Trace = Stc_obs.Trace
module Metrics = Stc_obs.Metrics
module Progress = Stc_obs.Progress

(* Observability handles (no-ops unless the registry / tracer is enabled;
   per-domain shards keep the hot-loop bumps contention-free).  The
   per-domain totals of these counters equal the summed [stats] of the
   run - `ostr solve --metrics` relies on that. *)
let m_investigated = Metrics.counter "solver.investigated"
let m_deduped = Metrics.counter "solver.deduped"
let m_pruned = Metrics.counter "solver.pruned"
let m_solutions = Metrics.counter "solver.solutions"
let m_memo_hits = Metrics.counter "solver.memo_hits"
let g_best_bits = Metrics.gauge "solver.best_bits"
let g_effective_jobs = Metrics.gauge "solver.effective_jobs"

(* Minimum top-level branches per requested domain before the fan-out
   pays for itself.  BENCH_solver.json showed every corpus machine slower
   at jobs=2 than sequential on a box where [recommended_domain_count]
   is 1 (dk16: 0.59 s seq vs 0.66 s par): spawn/join overhead plus
   duplicated transposition work swamp a basis of a few hundred
   branches.  Below the threshold — or whenever the hardware offers a
   single core — the solver silently degrades to the sequential fast
   path, which also restores run-to-run deterministic stats. *)
let par_basis_threshold = 64

type cost = { bits : int; imbalance : float; factor_states : int }

let compare_cost a b =
  let c = Int.compare a.bits b.bits in
  if c <> 0 then c
  else
    let c = Int.compare a.factor_states b.factor_states in
    if c <> 0 then c else Float.compare a.imbalance b.imbalance

type solution = { pi : Partition.t; rho : Partition.t; cost : cost }

let is_trivial (machine : Machine.t) sol =
  Partition.num_classes sol.pi = machine.num_states
  && Partition.num_classes sol.rho = machine.num_states

type stats = {
  basis_size : int;
  search_space : float;
  investigated : int;
  deduped : int;
  pruned : int;
  solutions : int;
  memo_hits : int;
  elapsed : float;
  timed_out : bool;
}

type result = { best : solution; stats : stats }

let cost_of ~pi ~rho =
  let k1 = Partition.num_classes pi and k2 = Partition.num_classes rho in
  let bits = Machine.bits_for k1 + Machine.bits_for k2 in
  let hi = float_of_int (max k1 k2) and lo = float_of_int (min k1 k2) in
  { bits; imbalance = (hi /. lo) -. 1.0; factor_states = k1 + k2 }

let equivalence_partition machine = Partition.of_class_map (Equiv.classes machine)

let validate (machine : Machine.t) sol =
  let next = machine.next in
  let equiv = equivalence_partition machine in
  if not (Pair.is_pair ~next sol.pi sol.rho) then
    Error "(pi, rho) is not a partition pair"
  else if not (Pair.is_pair ~next sol.rho sol.pi) then
    Error "(rho, pi) is not a partition pair"
  else if not (Partition.subseteq (Partition.meet sol.pi sol.rho) equiv) then
    Error "pi /\\ rho does not refine state equivalence"
  else Ok ()

exception Timeout

module PTbl = Hashtbl.Make (struct
  type t = Partition.t

  let equal = Partition.equal
  let hash = Partition.hash
end)

(* Besides the single best solution, keep a small pool of the best distinct
   candidates as starting points for the final hill climb. *)
let pool_capacity = 16

(* Transposition-table entry.  [Open] nodes were expanded from branch
   index [lowest] on and keep their m-image, so a re-arrival below
   [lowest] expands without recomputing it.  [Closed] nodes are never
   expanded again: pruned by Lemma 1, or the root, whose branches the
   fan-out hands out.  [Closed] acts as [lowest = 0] - no arrival sits
   below index 0.  [Viable] nodes passed Lemma 1 in a parent's phase 1
   and wait for their first visit. *)
type node = Closed | Viable | Open of { lowest : int; m_pi : Partition.t }

(* Per-domain search state.  Everything here is owned by exactly one domain
   during the parallel walk and merged after the joins. *)
type worker = {
  memo : Pair.Memo.t;
  (* Transposition table over the Mm-sub-lattice. *)
  seen : node PTbl.t;
  (* Survivor stack: an expanding node pushes the branch indices of its
     children that passed Lemma 1 (and the children themselves) above its
     ancestors' entries, visits them, and pops them again. *)
  mutable live : int array;
  mutable kids : Partition.t array;
  mutable top : int;
  mutable investigated : int;
  mutable deduped : int;
  mutable pruned : int;
  mutable solutions : int;
  (* Sorted best-first, at most [pool_capacity] entries. *)
  mutable pool : solution list;
}

let new_worker ~next () =
  {
    memo = Pair.Memo.create ~next;
    seen = PTbl.create 4096;
    live = [||];
    kids = [||];
    top = 0;
    investigated = 0;
    deduped = 0;
    pruned = 0;
    solutions = 0;
    pool = [];
  }

(* Growth copies into fresh arrays, so a slice of the old [live] array that
   a caller still holds keeps its contents. *)
let push_survivor w j kid =
  if w.top = Array.length w.live then begin
    let cap = max 64 (2 * w.top) in
    let live = Array.make cap 0 and kids = Array.make cap kid in
    Array.blit w.live 0 live 0 w.top;
    Array.blit w.kids 0 kids 0 w.top;
    w.live <- live;
    w.kids <- kids
  end;
  w.live.(w.top) <- j;
  w.kids.(w.top) <- kid;
  w.top <- w.top + 1

(* Bounded insertion sort keyed by [compare_cost]: O(pool_capacity) per
   candidate instead of the former sort of the whole pool. *)
let pool_add w sol =
  let known existing =
    Partition.equal existing.pi sol.pi && Partition.equal existing.rho sol.rho
  in
  if not (List.exists known w.pool) then begin
    let rec insert slots l =
      if slots = 0 then []
      else
        match l with
        | [] -> [ sol ]
        | x :: rest ->
          if compare_cost sol.cost x.cost < 0 then sol :: keep (slots - 1) l
          else x :: insert (slots - 1) rest
    and keep slots l =
      match l with
      | [] -> []
      | x :: rest -> if slots = 0 then [] else x :: keep (slots - 1) rest
    in
    w.pool <- insert pool_capacity w.pool
  end

let solve ?(timeout = infinity) ?(prune = true) ?(max_nodes = max_int)
    ?(jobs = 1) ?(sequential_fallback = true) (machine : Machine.t) =
  Trace.span ~cat:"solver" "solve" @@ fun () ->
  let requested_jobs = max 1 jobs in
  let next = machine.next in
  let n = machine.num_states in
  let equiv = equivalence_partition machine in
  (* [basis_m.(j)] = m(basis.(j)): m is join-homomorphic, so a child's
     m-image is its parent's joined with the branch's. *)
  let basis, basis_m =
    Trace.span ~cat:"solver" "basis" (fun () ->
        let basis = Array.of_list (Pair.basis ~next) in
        (basis, Array.map (Pair.m ~next) basis))
  in
  let num_basis = Array.length basis in
  let jobs =
    if
      requested_jobs > 1 && sequential_fallback
      && (Domain.recommended_domain_count () <= 1
         || num_basis < par_basis_threshold * requested_jobs)
    then 1
    else requested_jobs
  in
  Metrics.set_gauge g_effective_jobs jobs;
  let start = Clock.now () in
  (* Shared between domains: the incumbent best (pruning bound for the
     recording path), the global node budget, and the cancellation flag
     raised by whichever worker first exhausts a budget. *)
  let best = Atomic.make (None : solution option) in
  let node_count = Atomic.make 0 in
  let cancelled = Atomic.make false in
  let timed_out = Atomic.make false in
  (* Top-level branch cursor for the domain fan-out and the number of
     branches the root's Lemma-1 pass leaves (declared here so the
     progress reporter can render the remaining queue depth). *)
  let next_branch = Atomic.make 0 in
  let branches = ref num_basis in
  let rec offer_best sol =
    let current = Atomic.get best in
    let better =
      match current with
      | None -> true
      | Some b -> compare_cost sol.cost b.cost < 0
    in
    if better then begin
      if Atomic.compare_and_set best current (Some sol) then
        Metrics.set_gauge g_best_bits sol.cost.bits
      else offer_best sol
    end
  in
  let workers_ref = ref ([] : worker list) in
  let progress =
    Progress.create
      ~label:("solve " ^ machine.name)
      ~render:(fun () ->
        let elapsed = Float.max 1e-9 (Clock.now () -. start) in
        let nodes = Atomic.get node_count in
        let investigated, deduped, hits, misses =
          List.fold_left
            (fun (i, d, h, ms) w ->
              ( i + w.investigated,
                d + w.deduped,
                h + Pair.Memo.hits w.memo,
                ms + Pair.Memo.misses w.memo ))
            (0, 0, 0, 0) !workers_ref
        in
        let pct a b =
          if a + b = 0 then 0.0
          else 100.0 *. float_of_int a /. float_of_int (a + b)
        in
        let best_bits =
          match Atomic.get best with
          | None -> "-"
          | Some b -> string_of_int b.cost.bits
        in
        Printf.sprintf
          "%d nodes (%.0f/s)  best %s bits  memo-hit %.1f%%  dedupe %.1f%%  \
           queue %d/%d  domains %d"
          nodes
          (float_of_int nodes /. elapsed)
          best_bits (pct hits misses)
          (pct deduped investigated)
          (max 0 (!branches - Atomic.get next_branch))
          !branches
          (List.length !workers_ref))
      ()
  in
  let best_cost () =
    match Atomic.get best with None -> None | Some b -> Some b.cost
  in
  let record w candidate_pi candidate_rho =
    if Pair.admissible ~next ~equiv candidate_pi candidate_rho then begin
      w.solutions <- w.solutions + 1;
      Metrics.incr m_solutions;
      let candidate_pi, candidate_rho =
        Pair.polish w.memo ~equiv candidate_pi candidate_rho
      in
      let cost = cost_of ~pi:candidate_pi ~rho:candidate_rho in
      let sol = { pi = candidate_pi; rho = candidate_rho; cost } in
      pool_add w sol;
      (* The shared incumbent prunes nothing from the lattice walk (cost is
         not monotone along joins) but keeps every domain's [best] the true
         global one, so post-search refinement starts from the optimum. *)
      match best_cost () with
      | Some b when compare_cost cost b >= 0 -> ()
      | _ -> offer_best sol
    end
  in
  (* The depth-first walk of the paper visits every subset of the basis;
     but distinct subsets routinely join to the same partition, and the
     whole subtree under a node is a function of (join, from_index) only.
     [w.seen] therefore maps each join pi to the lowest [from_index] it has
     been expanded with:

     - arriving at (pi, i) with [seen pi <= i] adds nothing - the earlier
       expansion already covered children [j >= seen pi  >=  j >= i] and,
       recursively, everything below them - so the node is deduped;
     - arriving with [i < seen pi] only needs the children in
       [i .. seen pi - 1]; the candidate solutions at pi itself were
       recorded by the first arrival.

     Each (pi, j) join is thus computed at most once, collapsing the
     2^|MM| subset tree to the Mm-sub-lattice it generates.  Lemma-1
     pruning marks pi [Closed], so pruned nodes are never touched
     again.

     Non-viability is upward-closed (DESIGN.md section 11): once
     pi \/ b_j fails Lemma 1, so does every join above pi that adds b_j.
     An expansion therefore tests its children first and hands each
     survivor only the surviving indices above its own, a sorted slice
     [live.(lo .. hi - 1)]; an index dead at a node is never joined again
     in its subtree.  Every skipped child is non-viable (or, for a basis
     element equal to the identity, the node itself), so it would have
     recorded and expanded nothing: the viable nodes, their order and
     their [lowest] indices are those of the full walk, and an
     [Open {lowest}] entry still covers every viable child from [lowest]
     on. *)
  let arrive w =
    (* The root always runs to completion so that the trivial solution is
       recorded even under a zero timeout. *)
    if Atomic.get node_count > 0 then begin
      Progress.tick progress;
      if Atomic.get cancelled then raise Timeout;
      if Atomic.get node_count >= max_nodes then raise Timeout;
      if Clock.now () -. start > timeout then raise Timeout
    end;
    Atomic.incr node_count;
    w.investigated <- w.investigated + 1;
    Metrics.incr m_investigated
  in
  let dedup w =
    w.deduped <- w.deduped + 1;
    Metrics.incr m_deduped
  in
  (* First visit of a viable pi, whose m-image is [m_a \/ m_b]: record the
     Mm-pair (M(pi), pi), then (m(pi), pi), whose intersection with pi is
     minimal among all pairs bracketed by the Mm-pair (Theorem 2
     discussion).  Returns m(pi). *)
  let evaluate w pi m_a m_b =
    let m_pi = Partition.join m_a m_b in
    let big_m_pi = Pair.Memo.big_m w.memo pi in
    record w big_m_pi pi;
    if not (Partition.equal m_pi big_m_pi) then record w m_pi pi;
    m_pi
  in
  (* Phase 1 of an expansion of pi: push every child pi \/ b_j, for j in
     [live.(lo .. hi - 1)] below [upto], that is still live.  The first
     arrival at a child tests Lemma 1: if m(pi \/ b_j) /\ (pi \/ b_j) does
     not refine equivalence, no successor can yield an admissible pair
     with right member above it, and neither candidate at the child is
     admissible either (DESIGN.md section 11) - so a pruned child costs
     one fused test and builds nothing.  A child that passes is [Viable]
     until its first visit records it. *)
  let push_children w pi m_pi upto live lo hi =
    let p = ref lo in
    while !p < hi && live.(!p) < upto do
      let j = live.(!p) in
      let child = Partition.join pi basis.(j) in
      (match PTbl.find_opt w.seen child with
      | Some Closed -> dedup w
      | Some (Open _ | Viable) -> push_survivor w j child
      | None ->
        arrive w;
        if
          (not prune)
          || Partition.join_meet_subseteq m_pi basis_m.(j) child equiv
        then begin
          PTbl.replace w.seen child Viable;
          push_survivor w j child
        end
        else begin
          w.pruned <- w.pruned + 1;
          Metrics.incr m_pruned;
          PTbl.replace w.seen child Closed
        end);
      incr p
    done
  in
  let rec visit w pi m_a m_b from_index live lo hi =
    match PTbl.find_opt w.seen pi with
    | Some (Open { lowest; m_pi }) when from_index < lowest ->
      arrive w;
      expand w pi m_pi from_index lowest live lo hi
    | Some (Open _ | Closed) -> dedup w
    | Some Viable | None ->
      (* [None]: a top-level branch in a domain other than the one that
         ran the root's phase 1. *)
      expand w pi (evaluate w pi m_a m_b) from_index num_basis live lo hi
  (* Phase 2 visits the survivors in index order; [w.live] is re-read
     after each visit because a deeper phase 1 may have grown it. *)
  and expand w pi m_pi from_index upto live lo hi =
    PTbl.replace w.seen pi (Open { lowest = from_index; m_pi });
    let base = w.top in
    push_children w pi m_pi upto live lo hi;
    let stop = w.top in
    for p = base to stop - 1 do
      let j = w.live.(p) in
      visit w w.kids.(p) m_pi basis_m.(j) (j + 1) w.live (p + 1) stop
    done;
    w.top <- base
  in
  let on_timeout f =
    try f ()
    with Timeout ->
      Atomic.set cancelled true;
      Atomic.set timed_out true
  in
  (* Root node, handled in the calling domain before any fan-out.  It is
     always viable: m(identity) = identity.  Its phase 1 runs here too, so
     every domain reads the one root live list whatever [jobs] is. *)
  let root = Partition.identity n in
  let main_worker = new_worker ~next () in
  workers_ref := [ main_worker ];
  let m_root, root_live, root_kids =
    Trace.span ~cat:"solver" "root" (fun () ->
        arrive main_worker;
        let m_root = evaluate main_worker root root root in
        PTbl.replace main_worker.seen root Closed;
        on_timeout (fun () ->
            push_children main_worker root m_root num_basis
              (Array.init num_basis Fun.id) 0 num_basis);
        let k = main_worker.top in
        main_worker.top <- 0;
        ( m_root,
          Array.sub main_worker.live 0 k,
          Array.sub main_worker.kids 0 k ))
  in
  let num_branches = Array.length root_live in
  branches := num_branches;
  (* Fan the surviving top-level branches out over domains: a shared
     atomic cursor hands branch [root_live.(p)] (= subtree rooted at that
     basis element) to the next free worker.  Each domain dedupes against
     its own transposition table; overlap across domains costs repeated
     work, never correctness. *)
  let run_worker w =
    on_timeout @@ fun () ->
    Trace.span ~cat:"solver" "dfs" @@ fun () ->
    let rec loop () =
      let p = Atomic.fetch_and_add next_branch 1 in
      if p < num_branches && not (Atomic.get cancelled) then begin
        let j = root_live.(p) in
        visit w root_kids.(p) m_root basis_m.(j) (j + 1) root_live (p + 1)
          num_branches;
        loop ()
      end
    in
    loop ()
  in
  let workers =
    if jobs = 1 || num_branches <= 1 then begin
      (* Sequential fast path: identical traversal order (hence identical
         stats) on every run, no domain overhead. *)
      run_worker main_worker;
      [ main_worker ]
    end
    else begin
      let extras =
        List.init
          (min (jobs - 1) (num_branches - 1))
          (fun _ -> new_worker ~next ())
      in
      workers_ref := main_worker :: extras;
      let domains =
        List.map (fun w -> Domain.spawn (fun () -> run_worker w)) extras
      in
      run_worker main_worker;
      List.iter Domain.join domains;
      main_worker :: extras
    end
  in
  let best =
    match Atomic.get best with
    | Some sol -> sol
    | None ->
      (* The root always records (M(identity), identity); unreachable. *)
      assert false
  in
  (* Post-search greedy first-improvement climb over {!Pair.close_merge}
     moves: the candidates (M(pi), pi) / (m(pi), pi) can miss the optimum,
     which may even lie outside the lattice Theorem 2 searches. *)
  let memo = main_worker.memo in
  let close (pi, rho) mv = (Pair.close_merge memo ~equiv ~pi ~rho mv).closed in
  let exception Better of solution in
  let attempt sol p mv =
    match close p mv with
    | None -> ()
    | Some (pi, rho) ->
      let polish () = Pair.polish ~from:p memo ~equiv pi rho in
      let pi, rho = Trace.span ~cat:"solver" "polish" polish in
      let cost = cost_of ~pi ~rho in
      if compare_cost cost sol.cost < 0 then raise (Better { pi; rho; cost })
  in
  let side on_pi (pi, rho) = if on_pi then pi else rho in
  (* Class merges: c descending, and for each c, d descending. *)
  let merges sol on_pi =
    let k = Partition.num_classes (side on_pi (sol.pi, sol.rho)) in
    for c = k - 1 downto 0 do
      for d = k - 1 downto c + 1 do
        attempt sol (sol.pi, sol.rho) (Pair.Merge { on_pi; c; d })
      done
    done
  in
  (* Exchanges: split [s] out of the other side, then merge its block here
     with each block whose representative it was not with before. *)
  let exchanges sol on_pi =
    let p = (sol.pi, sol.rho) in
    let before = side on_pi p and there = side (not on_pi) p in
    for s = 0 to n - 1 do
      if Partition.class_size there (Partition.class_of there s) > 1 then
        match close p (Pair.Split { on_pi = not on_pi; s }) with
        | None -> ()
        | Some q ->
          let here = side on_pi q in
          let c = Partition.class_of here s in
          let reps = Partition.representatives here in
          for d = 0 to Array.length reps - 1 do
            if d <> c && not (Partition.same before s reps.(d)) then
              attempt sol q (Pair.Merge { on_pi; c; d })
          done
    done
  in
  let rec climb sol =
    try
      List.iter (merges sol) [ true; false ];
      List.iter (exchanges sol) [ true; false ];
      sol
    with Better sol -> climb sol
  in
  let pool =
    Trace.span ~cat:"solver" "merge" (fun () ->
        List.concat_map (fun w -> w.pool) workers)
  in
  let better a b = if compare_cost b.cost a.cost < 0 then b else a in
  let best =
    Trace.span ~cat:"solver" "hill_climb" (fun () ->
        List.fold_left (fun b sol -> better b (climb sol)) (climb best) pool)
  in
  (match validate machine best with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Solver.solve: internal error: " ^ msg));
  let sum f = List.fold_left (fun acc w -> acc + f w) 0 workers in
  Metrics.add m_memo_hits (sum (fun w -> Pair.Memo.hits w.memo));
  Progress.force progress;
  {
    best;
    stats =
      {
        basis_size = num_basis;
        search_space = Float.pow 2.0 (float_of_int num_basis);
        investigated = sum (fun w -> w.investigated);
        deduped = sum (fun w -> w.deduped);
        pruned = sum (fun w -> w.pruned);
        solutions = sum (fun w -> w.solutions);
        memo_hits = sum (fun w -> Pair.Memo.hits w.memo);
        elapsed = Clock.now () -. start;
        timed_out = Atomic.get timed_out;
      };
  }
