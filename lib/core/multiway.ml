module Machine = Stc_fsm.Machine
module Pair = Stc_partition.Pair
module Trace = Stc_obs.Trace
module Metrics = Stc_obs.Metrics

let m_investigated = Metrics.counter "multiway.investigated"

type chain = {
  parts : Partition.t array;
  bits : int;
  factor_states : int;
}

let is_chain ~next parts =
  let m = Array.length parts in
  if m < 2 then invalid_arg "Multiway.is_chain: need at least 2 stages";
  let ok = ref true in
  for k = 0 to m - 1 do
    if not (Pair.is_pair ~next parts.(k) parts.((k + 1) mod m)) then ok := false
  done;
  !ok

let meet_all parts =
  Array.fold_left Partition.meet parts.(0)
    (Array.sub parts 1 (Array.length parts - 1))

let admissible machine parts =
  is_chain ~next:machine.Machine.next parts
  && Partition.subseteq (meet_all parts) (Solver.equivalence_partition machine)

let cost_of parts =
  let classes = Array.map Partition.num_classes parts in
  let bits = Array.fold_left (fun acc k -> acc + Machine.bits_for k) 0 classes in
  let states = Array.fold_left ( + ) 0 classes in
  let hi = Array.fold_left max 1 classes and lo = Array.fold_left min max_int classes in
  (bits, states, float_of_int hi /. float_of_int lo)

let compare_cost (b1, s1, i1) (b2, s2, i2) =
  let c = Int.compare b1 b2 in
  if c <> 0 then c
  else
    let c = Int.compare s1 s2 in
    if c <> 0 then c else Float.compare i1 i2

exception Timeout

let solve ?(timeout = 60.0) ~stages (machine : Machine.t) =
  if stages < 2 then invalid_arg "Multiway.solve: stages >= 2";
  Trace.span ~cat:"solver" "multiway" @@ fun () ->
  let next = machine.next in
  let n = machine.num_states in
  let equiv = Solver.equivalence_partition machine in
  let basis = Array.of_list (Pair.basis ~next) in
  let num_basis = Array.length basis in
  let start = Stc_util.Clock.now () in
  let admissible_parts parts =
    Partition.subseteq (meet_all parts) equiv && is_chain ~next parts
  in
  (* Round-robin coarsening: c_k <- M(c_(k+1)) while the chain stays
     admissible (for stages = 2 this is [Pair.polish]). *)
  let polish_chain parts =
    let parts = Array.copy parts in
    let improved = ref true in
    while !improved do
      improved := false;
      for k = 0 to stages - 1 do
        let coarser = Pair.big_m ~next parts.((k + 1) mod stages) in
        if not (Partition.equal coarser parts.(k)) then begin
          let candidate = Array.copy parts in
          candidate.(k) <- coarser;
          if admissible_parts candidate then begin
            parts.(k) <- coarser;
            improved := true
          end
        end
      done
    done;
    parts
  in
  let best = ref [| |] and best_cost = ref (max_int, max_int, infinity) in
  let record parts =
    if admissible_parts parts then begin
      let parts = polish_chain parts in
      let cost = cost_of parts in
      if compare_cost cost !best_cost < 0 then begin
        best := parts;
        best_cost := cost
      end
    end
  in
  (* Trivial chain: identity everywhere. *)
  record (Array.make stages (Partition.identity n));
  let investigated = ref 0 in
  let rec visit pi from_index =
    if !investigated > 0 && Stc_util.Clock.elapsed ~since:start > timeout then
      raise Timeout;
    incr investigated;
    Metrics.incr m_investigated;
    (* Forward m-closure chain from pi. *)
    let parts = Array.make stages pi in
    for k = 1 to stages - 1 do
      parts.(k) <- Pair.m ~next parts.(k - 1)
    done;
    (* Valid ring iff the wrap-around condition holds. *)
    if Partition.subseteq (Pair.m ~next parts.(stages - 1)) pi then record parts;
    (* Lemma-1 analogue: every component is monotone in pi, so once the
       meet escapes the equivalence it stays out on all successors. *)
    if Partition.subseteq (meet_all parts) equiv then
      for j = from_index to num_basis - 1 do
        visit (Partition.join pi basis.(j)) (j + 1)
      done
  in
  (try visit (Partition.identity n) 0 with Timeout -> ());
  (* Greedy class-merge hill climb, as in the pair solver: the forward
     m-closure chains are as fine as possible on the later stages, and
     admissible chains with coarser intermediate stages (e.g. the three
     2-class stages of a 3-bit shift register) are reachable only by
     merging.  [close_chain] restores the chain property after a merge by
     joining each stage with the m-image of its predecessor. *)
  let close_chain parts =
    let parts = Array.copy parts in
    let stable = ref false in
    while not !stable do
      stable := true;
      for k = 0 to stages - 1 do
        let succ = (k + 1) mod stages in
        let grown = Partition.join parts.(succ) (Pair.m ~next parts.(k)) in
        if not (Partition.equal grown parts.(succ)) then begin
          parts.(succ) <- grown;
          stable := false
        end
      done
    done;
    parts
  in
  let try_merge parts k (s, t) =
    let seeded = Array.copy parts in
    seeded.(k) <- Partition.join parts.(k) (Partition.pair_relation ~n s t);
    let closed = close_chain seeded in
    if admissible_parts closed then begin
      let closed = polish_chain closed in
      let cost = cost_of closed in
      if compare_cost cost !best_cost < 0 then Some (closed, cost) else None
    end
    else None
  in
  let rec hill_climb () =
    let improved = ref None in
    let k = ref 0 in
    while !improved = None && !k < stages do
      let reps = Partition.representatives !best.(!k) in
      let classes = Array.length reps in
      let c = ref 0 in
      while !improved = None && !c < classes do
        let d = ref (!c + 1) in
        while !improved = None && !d < classes do
          (match try_merge !best !k (reps.(!c), reps.(!d)) with
          | Some (parts, cost) -> improved := Some (parts, cost)
          | None -> ());
          incr d
        done;
        incr c
      done;
      incr k
    done;
    match !improved with
    | Some (parts, cost) ->
      best := parts;
      best_cost := cost;
      hill_climb ()
    | None -> ()
  in
  hill_climb ();
  let bits, factor_states, _ = !best_cost in
  { parts = !best; bits; factor_states }

let factor_tables (machine : Machine.t) parts =
  let next = machine.next in
  let stages = Array.length parts in
  let tables =
    Array.init stages (fun k ->
        Array.make_matrix (Partition.num_classes parts.(k)) machine.num_inputs
          (-1))
  in
  for s = 0 to machine.num_states - 1 do
    for k = 0 to stages - 1 do
      let x = Partition.class_of parts.(k) s in
      for i = 0 to machine.num_inputs - 1 do
        let y = Partition.class_of parts.((k + 1) mod stages) next.(s).(i) in
        if tables.(k).(x).(i) >= 0 then assert (tables.(k).(x).(i) = y)
        else tables.(k).(x).(i) <- y
      done
    done
  done;
  tables

let realize (machine : Machine.t) parts =
  if not (admissible machine parts) then
    invalid_arg "Multiway.realize: not an admissible chain";
  let stages = Array.length parts in
  let classes = Array.map Partition.num_classes parts in
  let total = Array.fold_left ( * ) 1 classes in
  if total > 1 lsl 20 then invalid_arg "Multiway.realize: product too large";
  let tables = factor_tables machine parts in
  (* Mixed-radix index, stage 0 most significant. *)
  let index tuple =
    let acc = ref 0 in
    for k = 0 to stages - 1 do
      acc := (!acc * classes.(k)) + tuple.(k)
    done;
    !acc
  in
  let tuple_of idx =
    let tuple = Array.make stages 0 in
    let rest = ref idx in
    for k = stages - 1 downto 0 do
      tuple.(k) <- !rest mod classes.(k);
      rest := !rest / classes.(k)
    done;
    tuple
  in
  let alpha =
    Array.init machine.num_states (fun s ->
        index (Array.init stages (fun k -> Partition.class_of parts.(k) s)))
  in
  let witness = Array.make total (-1) in
  for s = machine.num_states - 1 downto 0 do
    witness.(alpha.(s)) <- s
  done;
  let next = Array.make_matrix total machine.num_inputs 0 in
  let output = Array.make_matrix total machine.num_inputs 0 in
  for idx = 0 to total - 1 do
    let tuple = tuple_of idx in
    let w = witness.(idx) in
    for i = 0 to machine.num_inputs - 1 do
      let next_tuple =
        Array.init stages (fun k ->
            let src = (k + stages - 1) mod stages in
            tables.(src).(tuple.(src)).(i))
      in
      next.(idx).(i) <- index next_tuple;
      output.(idx).(i) <- (if w >= 0 then machine.output.(w).(i) else 0)
    done
  done;
  let product =
    Machine.make
      ~name:(machine.name ^ "_ring")
      ~num_states:total ~num_inputs:machine.num_inputs
      ~num_outputs:machine.num_outputs ~next ~output
      ~reset:alpha.(machine.reset) ~input_names:machine.input_names
      ~output_names:machine.output_names ()
  in
  (product, alpha)

let realizes machine parts =
  let product, alpha = realize machine parts in
  let ok = ref true in
  for s = 0 to machine.Machine.num_states - 1 do
    for i = 0 to machine.Machine.num_inputs - 1 do
      if
        product.Machine.next.(alpha.(s)).(i)
        <> alpha.(machine.Machine.next.(s).(i))
      then ok := false;
      if product.Machine.output.(alpha.(s)).(i) <> machine.Machine.output.(s).(i)
      then ok := false
    done
  done;
  !ok
