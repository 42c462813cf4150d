(* Untestable-fault proofs over the collapsed fault list.  See prove.mli. *)

module N = Stc_netlist.Netlist
module Engine = Stc_faultsim.Engine
module Exhaustive = Stc_faultsim.Exhaustive
module Rng = Stc_util.Rng
module Metrics = Stc_obs.Metrics
module Trace = Stc_obs.Trace

type verdict = {
  total_faults : int;
  total_classes : int;
  redundant : N.fault list;
  redundant_classes : int;
  unobservable_classes : int;
}

let m_sim_detected = Metrics.counter "sat.redundant.sim_detected"

let sorted_unique a = Array.of_list (List.sort_uniq compare (Array.to_list a))

(* Grade every active class against [p] and retire the detected ones: a
   detected class has a concrete test, so it is testable.  Returns how
   many classes [p] settled. *)
let grade_round eng ~jobs ~observed ~active p g =
  let verdicts =
    Engine.grade eng ~jobs ~need_cycles:false p g ~observed ~active
  in
  let fresh = ref 0 in
  Array.iteri
    (fun c v ->
      if active.(c) && v <> Engine.Undetected then begin
        active.(c) <- false;
        incr fresh
      end)
    verdicts;
  Metrics.add m_sim_detected !fresh;
  !fresh

(* Stage 1.  Random patterns, [round_batches] words per input per round,
   graded against every class still undetected.  Rounds go on while they
   detect something new and the patterns drawn so far number fewer than
   2^inputs.  Returns the undetected classes as [true]. *)
let round_batches = 8

let seed = 0x5a7

let simulate eng ~jobs ~observed =
  let net = Engine.netlist eng in
  let nclasses = Array.length (Engine.collapsed eng).N.representatives in
  let active = Array.make nclasses true in
  let rng = Rng.create seed in
  let ninputs = Array.length net.N.inputs in
  let full = (1 lsl N.word_bits) - 1 in
  let rec round drawn =
    let p =
      {
        Engine.cycles = round_batches * N.word_bits;
        words =
          Array.init round_batches (fun _ ->
              Array.init ninputs (fun _ ->
                  Int64.to_int (Rng.bits64 rng) land full));
        masks = Array.make round_batches full;
      }
    in
    let fresh = grade_round eng ~jobs ~observed ~active p (Engine.golden eng p) in
    let drawn = drawn + p.Engine.cycles in
    if fresh > 0 && (ninputs >= N.word_bits || drawn < 1 lsl ninputs) then
      round drawn
  in
  round 0;
  active

(* The observed gates in the output cone of [fault]'s site: none means
   the fault cannot reach an observed gate, so it is unobservable. *)
let observed_cone ~readers ~is_observed net (fault : N.fault) =
  Array.to_list (N.cone ~readers net fault.N.gate)
  |> List.filter (fun g -> is_observed.(g))

(* The dense stage, for netlists of at most [Exhaustive.max_points]
   input points: every class the random rounds left is graded on every
   point, one slice at a time, until none is left.  A class still
   undetected then has no test at all: it is untestable, and
   unobservable when its cone reaches no observed gate. *)
let exhaustive eng ~jobs ~observed ~is_observed active =
  let net = Engine.netlist eng in
  let cl = Engine.collapsed eng in
  let left = ref (Array.fold_left (fun n a -> if a then n + 1 else n) 0 active) in
  let all = Array.init (Array.length net.N.inputs) Fun.id in
  let g = Engine.golden_buffer eng ~batches:Exhaustive.slice_words in
  Exhaustive.iter (Exhaustive.space net all) (fun ~first:_ p ->
      Engine.golden_into eng p g;
      left := !left - grade_round eng ~jobs ~observed ~active p g;
      !left > 0);
  let readers = N.readers net in
  let unobservable =
    Array.mapi
      (fun c undetected ->
        undetected
        && observed_cone ~readers ~is_observed net
             cl.N.faults.(cl.N.representatives.(c))
           = [])
      active
  in
  (active, unobservable)

(* Stage 2.  One fresh solver per surviving class, holding the good
   circuit's fanin of the observed gates the fault can reach and the
   faulty copy of that region.  A gate's faulty literal is its good one
   unless it is the fault site or reads a gate whose literals differ, so
   the faulty copy is exactly the fault's output cone.  [good]/[bad] are
   per-domain scratch: every support gate is written before it is read.
   Returns [None] when the fault reaches no observed gate, else whether
   the miter is unsatisfiable. *)
let prove_class ~readers ~is_observed (net : N.t) (good, bad) fault =
  let obs = observed_cone ~readers ~is_observed net fault in
  if obs = [] then None
  else begin
    let s = Solver.create () in
    let const b = if b then Solver.true_lit s else Solver.false_lit s in
    let support = N.fanin_cone net obs in
    Array.iteri
      (fun g gate ->
        if support.(g) then begin
          (good.(g) <-
             match gate with
             | N.Input _ -> Solver.pos (Solver.new_var s)
             | _ -> Cnf.add_gate s gate ~read:(fun _ x -> good.(x)));
          bad.(g) <-
            (if g = fault.N.gate && fault.N.pin = None then
               const fault.N.stuck_at
             else if
               g = fault.N.gate
               || Array.exists (fun x -> bad.(x) <> good.(x)) (N.operands gate)
             then
               Cnf.add_gate s gate ~read:(fun k x ->
                   if g = fault.N.gate && fault.N.pin = Some k then
                     const fault.N.stuck_at
                   else bad.(x))
             else good.(g))
        end)
      net.N.gates;
    let diffs =
      List.filter_map
        (fun o ->
          if bad.(o) = good.(o) then None
          else Some (Cnf.mk_xor s bad.(o) good.(o)))
        obs
    in
    Some
      (diffs = []
      ||
      (Solver.add_clause s diffs;
       Solver.solve s = Solver.Unsat))
  end

(* Stage 2: one SAT miter per class the random rounds left. *)
let prove eng ~jobs ~is_observed survivors =
  let net = Engine.netlist eng in
  let cl = Engine.collapsed eng in
  let nclasses = Array.length cl.N.classes in
  let survivors =
    List.filter (fun c -> survivors.(c)) (List.init nclasses Fun.id)
    |> Array.of_list
  in
  let untestable = Array.make nclasses false in
  let unobservable = Array.make nclasses false in
  let readers = N.readers net in
  let n = N.num_gates net in
  Stc_util.Parallel.iter_range_local ~jobs
    ~local:(fun () -> (Array.make n 0, Array.make n 0))
    (Array.length survivors)
    (fun scratch i ->
      let ci = survivors.(i) in
      let fault = cl.N.faults.(cl.N.representatives.(ci)) in
      match prove_class ~readers ~is_observed net scratch fault with
      | None ->
        (* the fault cannot reach any observed net: trivially untestable *)
        untestable.(ci) <- true;
        unobservable.(ci) <- true
      | Some unsat -> untestable.(ci) <- unsat);
  (untestable, unobservable)

let redundant ?(jobs = 1) ?observed (net : N.t) =
  Trace.span ~cat:"sat" "sat.redundant" @@ fun () ->
  let observed =
    match observed with
    | Some o -> sorted_unique o
    | None -> sorted_unique (Array.map snd net.N.outputs)
  in
  let is_observed = Array.make (N.num_gates net) false in
  Array.iter (fun g -> is_observed.(g) <- true) observed;
  let eng = Engine.create ~protected:observed net in
  let survivors =
    Trace.span ~cat:"sat" "sat.redundant.simulate" @@ fun () ->
    simulate eng ~jobs ~observed
  in
  let dense = Exhaustive.fits (Array.length net.N.inputs) in
  Exhaustive.decided ~dense;
  let untestable, unobservable =
    if dense then
      Trace.span ~cat:"sat" "sat.redundant.exhaustive" @@ fun () ->
      exhaustive eng ~jobs ~observed ~is_observed survivors
    else
      Trace.span ~cat:"sat" "sat.redundant.prove" @@ fun () ->
      prove eng ~jobs ~is_observed survivors
  in
  let cl = Engine.collapsed eng in
  let nclasses = Array.length cl.N.classes in
  let redundant_classes = ref 0 and unobservable_classes = ref 0 in
  let idxs = ref [] in
  for ci = nclasses - 1 downto 0 do
    if untestable.(ci) then begin
      incr redundant_classes;
      Array.iter (fun fi -> idxs := fi :: !idxs) cl.N.classes.(ci)
    end;
    if unobservable.(ci) then incr unobservable_classes
  done;
  let idxs = List.sort_uniq compare !idxs in
  {
    total_faults = Array.length cl.N.faults;
    total_classes = nclasses;
    redundant = List.map (fun fi -> cl.N.faults.(fi)) idxs;
    redundant_classes = !redundant_classes;
    unobservable_classes = !unobservable_classes;
  }
