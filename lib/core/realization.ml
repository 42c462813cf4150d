module Partition = Stc_partition.Partition
module Machine = Stc_fsm.Machine
module Pair = Stc_partition.Pair

type t = {
  spec : Machine.t;
  pi : Partition.t;
  rho : Partition.t;
  delta1 : int array array;
  delta2 : int array array;
  product : Machine.t;
  alpha : int array;
  filler_output : int;
  filled : int;
}

let build (machine : Machine.t) ~pi ~rho =
  Stc_obs.Trace.span ~cat:"synth" "realization" @@ fun () ->
  let next = machine.next in
  let n = machine.num_states and k = machine.num_inputs in
  if Partition.size pi <> n || Partition.size rho <> n then
    invalid_arg "Realization.build: partition size mismatch";
  if not (Pair.is_symmetric_pair ~next pi rho) then
    invalid_arg "Realization.build: (pi, rho) is not a symmetric partition pair";
  let equiv = Solver.equivalence_partition machine in
  if not (Partition.subseteq (Partition.meet pi rho) equiv) then
    invalid_arg "Realization.build: pi /\\ rho does not refine state equivalence";
  let k1 = Partition.num_classes pi and k2 = Partition.num_classes rho in
  (* delta1 and delta2 are well defined because the pair is symmetric; we
     nevertheless assert agreement over whole blocks as a safety net. *)
  let delta1 = Array.make_matrix k1 k 0 and delta2 = Array.make_matrix k2 k 0 in
  let seen1 = Array.make k1 false and seen2 = Array.make k2 false in
  for s = 0 to n - 1 do
    let c1 = Partition.class_of pi s and c2 = Partition.class_of rho s in
    for i = 0 to k - 1 do
      let d1 = Partition.class_of rho next.(s).(i)
      and d2 = Partition.class_of pi next.(s).(i) in
      if seen1.(c1) then assert (delta1.(c1).(i) = d1) else delta1.(c1).(i) <- d1;
      if seen2.(c2) then assert (delta2.(c2).(i) = d2) else delta2.(c2).(i) <- d2
    done;
    seen1.(c1) <- true;
    seen2.(c2) <- true
  done;
  (* Representative spec state for each (c1, c2) intersection, if any. *)
  let witness = Array.make (k1 * k2) (-1) in
  for s = n - 1 downto 0 do
    witness.((Partition.class_of pi s * k2) + Partition.class_of rho s) <- s
  done;
  let filler_output = 0 in
  let filled = ref 0 in
  let product_next = Array.make_matrix (k1 * k2) k 0 in
  let product_out = Array.make_matrix (k1 * k2) k 0 in
  for c1 = 0 to k1 - 1 do
    for c2 = 0 to k2 - 1 do
      let p = (c1 * k2) + c2 in
      let w = witness.(p) in
      if w < 0 then incr filled;
      for i = 0 to k - 1 do
        product_next.(p).(i) <- (delta2.(c2).(i) * k2) + delta1.(c1).(i);
        product_out.(p).(i) <-
          (if w >= 0 then machine.output.(w).(i) else filler_output)
      done
    done
  done;
  let alpha =
    Array.init n (fun s ->
        (Partition.class_of pi s * k2) + Partition.class_of rho s)
  in
  let state_names =
    Array.init (k1 * k2) (fun p -> Printf.sprintf "p%d_%d" (p / k2) (p mod k2))
  in
  let product =
    Machine.make
      ~name:(machine.name ^ "_pipeline")
      ~num_states:(k1 * k2) ~num_inputs:k ~num_outputs:machine.num_outputs
      ~next:product_next ~output:product_out ~reset:alpha.(machine.reset)
      ~state_names ~input_names:machine.input_names
      ~output_names:machine.output_names ()
  in
  {
    spec = machine;
    pi;
    rho;
    delta1;
    delta2;
    product;
    alpha;
    filler_output;
    filled = !filled;
  }

let of_solution machine (solution : Solver.solution) =
  build machine ~pi:solution.pi ~rho:solution.rho

let realizes r =
  let m = r.spec and p = r.product in
  let ok = ref true in
  for s = 0 to m.Machine.num_states - 1 do
    for i = 0 to m.Machine.num_inputs - 1 do
      if p.Machine.next.(r.alpha.(s)).(i) <> r.alpha.(m.Machine.next.(s).(i)) then
        ok := false;
      if p.Machine.output.(r.alpha.(s)).(i) <> m.Machine.output.(s).(i) then
        ok := false
    done
  done;
  !ok

let num_s1 r = Partition.num_classes r.pi

let num_s2 r = Partition.num_classes r.rho

let flipflops r = Machine.bits_for (num_s1 r) + Machine.bits_for (num_s2 r)

let spec_transitions r =
  r.spec.Machine.num_states * r.spec.Machine.num_inputs

let factor_transitions r =
  (num_s1 r + num_s2 r) * r.spec.Machine.num_inputs

let pp_factors ppf r =
  let open Format in
  fprintf ppf "@[<v>";
  let m = r.spec in
  let class_name partition c =
    (* Name a class after its smallest member, as the paper writes [1]pi. *)
    match Partition.members partition c with
    | s :: _ -> Printf.sprintf "[%s]" m.Machine.state_names.(s)
    | [] -> assert false
  in
  let print_table title table side other =
    fprintf ppf "%s@," title;
    fprintf ppf "%8s" "";
    for i = 0 to m.Machine.num_inputs - 1 do
      fprintf ppf "  %-8s" m.Machine.input_names.(i)
    done;
    fprintf ppf "@,";
    Array.iteri
      (fun c row ->
        fprintf ppf "%8s" (class_name side c);
        Array.iter (fun d -> fprintf ppf "  %-8s" (class_name other d)) row;
        fprintf ppf "@,")
      table
  in
  print_table "delta1 : S/pi x I -> S/rho" r.delta1 r.pi r.rho;
  print_table "delta2 : S/rho x I -> S/pi" r.delta2 r.rho r.pi;
  fprintf ppf "@]"
