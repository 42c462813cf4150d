module Partition = Stc_partition.Partition
module Machine = Stc_fsm.Machine
module Pair = Stc_partition.Pair

let is_closed ~next pi = Pair.is_pair ~next pi pi

let closure ~next pi =
  let rec go pi =
    let grown = Partition.join pi (Pair.m ~next pi) in
    if Partition.equal grown pi then pi else go grown
  in
  go pi

let closed_partitions ~next =
  let n = Array.length next in
  let base =
    let seen = Hashtbl.create 64 in
    for s = 0 to n - 1 do
      for t = s + 1 to n - 1 do
        let c = closure ~next (Partition.pair_relation ~n s t) in
        if not (Hashtbl.mem seen c) then Hashtbl.replace seen c ()
      done
    done;
    Hashtbl.fold (fun p () acc -> p :: acc) seen []
  in
  let seen = Hashtbl.create 64 in
  let queue = Queue.create () in
  let add p =
    if not (Hashtbl.mem seen p) then begin
      if Hashtbl.length seen > 50_000 then
        invalid_arg "Decompose.closed_partitions: lattice too large";
      Hashtbl.replace seen p ();
      Queue.add p queue
    end
  in
  add (Partition.identity n);
  while not (Queue.is_empty queue) do
    let p = Queue.take queue in
    (* Joins of closed partitions are closed. *)
    List.iter (fun b -> add (Partition.join p b)) base
  done;
  Hashtbl.fold (fun p () acc -> p :: acc) seen []
  |> List.sort Partition.compare

type parallel = { pi1 : Partition.t; pi2 : Partition.t; bits : int }

let cost pi1 pi2 =
  let k1 = Partition.num_classes pi1 and k2 = Partition.num_classes pi2 in
  let hi = float_of_int (max k1 k2) and lo = float_of_int (min k1 k2) in
  (Machine.bits_for k1 + Machine.bits_for k2, k1 + k2, (hi /. lo) -. 1.0)

let nontrivial_partition n pi =
  let k = Partition.num_classes pi in
  k > 1 && k < n

let parallel (machine : Machine.t) =
  Stc_obs.Trace.span ~cat:"solver" "decompose.parallel" @@ fun () ->
  let next = machine.next in
  let n = machine.num_states in
  let equiv = Solver.equivalence_partition machine in
  let closed =
    List.filter (nontrivial_partition n) (closed_partitions ~next)
  in
  let best = ref None in
  List.iter
    (fun pi1 ->
      List.iter
        (fun pi2 ->
          if Partition.subseteq (Partition.meet pi1 pi2) equiv then begin
            let c = cost pi1 pi2 in
            match !best with
            | Some (_, _, c') when c' <= c -> ()
            | _ -> best := Some (pi1, pi2, c)
          end)
        closed)
    closed;
  Option.map (fun (pi1, pi2, (bits, _, _)) -> { pi1; pi2; bits }) !best

type serial = { head : Partition.t; tail_states : int; bits : int }

let max_block_size pi =
  List.fold_left (fun acc block -> max acc (List.length block)) 1
    (Partition.blocks pi)

let serial (machine : Machine.t) =
  Stc_obs.Trace.span ~cat:"solver" "decompose.serial" @@ fun () ->
  let next = machine.next in
  let n = machine.num_states in
  let closed = closed_partitions ~next in
  let evaluate pi =
    let head_classes = Partition.num_classes pi in
    let tail_states = max_block_size pi in
    (Machine.bits_for head_classes + Machine.bits_for tail_states,
     head_classes + tail_states)
  in
  let candidates = List.filter (nontrivial_partition n) closed in
  let best =
    List.fold_left
      (fun acc pi ->
        let c = evaluate pi in
        match acc with
        | Some (_, c') when c' <= c -> acc
        | _ -> Some (pi, c))
      None candidates
  in
  Option.map
    (fun (head, (bits, _)) -> { head; tail_states = max_block_size head; bits })
    best
