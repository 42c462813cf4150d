module Netlist = Stc_netlist.Netlist
module Rng = Stc_util.Rng
module Tables = Stc_encoding.Tables

type result = {
  total : int;
  detected : int;
  coverage : float;
  detection_cycles : int array;
  cycles : int;
}

let lane_mask = (1 lsl Netlist.word_bits) - 1

(* Spread bit [k] (MSB first, width [w]) of [code] to all lanes. *)
let code_bit_word ~width code k =
  if code land (1 lsl (width - 1 - k)) <> 0 then lane_mask else 0

let run ?(seed = 20240705) ?(jobs = 1) ?(naive = false) ~cycles ~state_width
    ~reset_code (net : Netlist.t) =
  let num_inputs = Array.length net.Netlist.inputs in
  if num_inputs <= state_width then
    invalid_arg "Seqtest.run: netlist has no primary inputs beside the state";
  let primary = num_inputs - state_width in
  let num_outputs = Array.length net.Netlist.outputs in
  if num_outputs <= state_width then
    invalid_arg "Seqtest.run: netlist has no primary outputs beside next-state";
  let ns_gates =
    Array.init state_width (fun k -> snd net.Netlist.outputs.(k))
  in
  let po_gates =
    Array.init (num_outputs - state_width) (fun k ->
        snd net.Netlist.outputs.(state_width + k))
  in
  (* One independent random input stream per lane: pre-draw a word per
     primary input per cycle. *)
  let rng = Rng.create seed in
  let stimulus =
    Array.init cycles (fun _ ->
        Array.init primary (fun _ ->
            Int64.to_int (Int64.logand (Rng.bits64 rng) 0x3FFFFFFFFFFFFFFFL)
            land lane_mask))
  in
  let initial_state =
    Array.init state_width (code_bit_word ~width:state_width reset_code)
  in
  let num_gates = Netlist.num_gates net in
  let simulate ?fault ~values ~inputs ~observe () =
    (* [observe cycle values] may stop the run by returning true.
       [values] and [inputs] are the caller's buffers (one set per
       domain) - the loop allocates nothing per cycle. *)
    let state = Array.copy initial_state in
    let stopped = ref None in
    let cycle = ref 0 in
    while !stopped = None && !cycle < cycles do
      Array.blit stimulus.(!cycle) 0 inputs 0 primary;
      Array.blit state 0 inputs primary state_width;
      Netlist.eval_into ?fault net ~values ~inputs;
      if observe !cycle values then stopped := Some !cycle
      else begin
        Array.iteri (fun k g -> state.(k) <- values.(g) land lane_mask) ns_gates;
        incr cycle
      end
    done;
    !stopped
  in
  (* Golden primary-output trace. *)
  let golden = Array.make cycles [||] in
  let gvalues = Array.make num_gates 0 in
  let ginputs = Array.make num_inputs 0 in
  ignore
    (simulate ~values:gvalues ~inputs:ginputs
       ~observe:(fun cycle values ->
         golden.(cycle) <- Array.map (fun g -> values.(g)) po_gates;
         false)
       ());
  let first_detect ~values ~inputs fault =
    simulate ~fault ~values ~inputs
      ~observe:(fun cycle values ->
        let g = golden.(cycle) in
        let differs = ref false in
        Array.iteri
          (fun k gate ->
            if (values.(gate) lxor g.(k)) land lane_mask <> 0 then
              differs := true)
          po_gates;
        !differs)
      ()
  in
  let total, detected, detections =
    if naive then begin
      let faults = Netlist.fault_sites net in
      let detections = ref [] and detected = ref 0 in
      List.iter
        (fun fault ->
          match first_detect ~values:gvalues ~inputs:ginputs fault with
          | Some cycle ->
            incr detected;
            detections := cycle :: !detections
          | None -> ())
        faults;
      (List.length faults, !detected, !detections)
    end
    else begin
      (* Both the primary outputs and the fed-back next-state lines must
         stay distinct under collapsing: equivalent faults then share the
         exact same state evolution and first-detection cycle, so one
         simulation per class is exact for every member. *)
      let cl =
        Netlist.collapse ~protected:(Array.append ns_gates po_gates) net
      in
      let num_classes = Array.length cl.Netlist.representatives in
      let hits = Array.make num_classes None in
      Stc_util.Parallel.iter_range_local ~jobs
        ~local:(fun () -> (Array.make num_gates 0, Array.make num_inputs 0))
        num_classes
        (fun (values, inputs) c ->
          hits.(c) <-
            first_detect ~values ~inputs
              cl.Netlist.faults.(cl.Netlist.representatives.(c)));
      let detections = ref [] and detected = ref 0 in
      Array.iteri
        (fun c hit ->
          match hit with
          | Some cycle ->
            let members = Array.length cl.Netlist.classes.(c) in
            detected := !detected + members;
            for _ = 1 to members do
              detections := cycle :: !detections
            done
          | None -> ())
        hits;
      (Array.length cl.Netlist.faults, !detected, !detections)
    end
  in
  let detection_cycles = Array.of_list detections in
  Array.sort compare detection_cycles;
  {
    total;
    detected;
    coverage =
      (if total = 0 then 1.0 else float_of_int detected /. float_of_int total);
    detection_cycles;
    cycles;
  }

let run_conventional ?seed ?jobs ?naive ?(cycles = 2048) ~cover
    (enc : Tables.encoded) =
  let built = Arch.conventional ~cover enc in
  let code = enc.Tables.state_code in
  run ?seed ?jobs ?naive ~cycles ~state_width:code.Stc_encoding.Code.width
    ~reset_code:
      code.Stc_encoding.Code.codes.(enc.Tables.machine.Stc_fsm.Machine.reset)
    built.Arch.netlist

let cycles_to_coverage result fraction =
  if result.detected = 0 then None
  else begin
    let index =
      min (result.detected - 1)
        (int_of_float (ceil (fraction *. float_of_int result.detected)) - 1)
    in
    let index = max 0 index in
    Some (result.detection_cycles.(index) + 1)
  end
