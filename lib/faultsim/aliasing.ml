module Netlist = Stc_netlist.Netlist
module Misr = Stc_bist.Misr

type report = {
  total : int;
  stream_detected : int;
  signature_detected : int;
  aliased : int;
  aliasing_rate : float;
  misr_width : int;
}

(* Observed gate values of one cycle, packed MSB-first into a word for the
   MISR (truncated to its width - wider observation buses fold, which only
   makes aliasing more likely, i.e. the measurement conservative). *)
let observe_word values observed ~width =
  let word = ref 0 in
  Array.iteri
    (fun k g ->
      if k < width then word := (!word lsl 1) lor (values.(g) land 1))
    observed;
  !word

let truncate_sessions ?cycles (built : Arch.built) =
  List.map
    (fun (stimuli, observed) ->
      let stimuli =
        match cycles with
        | Some c when c < Array.length stimuli -> Array.sub stimuli 0 c
        | _ -> stimuli
      in
      (stimuli, observed))
    built.Arch.sessions

let misr_width sessions =
  List.fold_left
    (fun acc (_, observed) -> max acc (min 32 (Array.length observed)))
    1 sessions

(* Reference implementation: every fault replays every session with a full
   netlist evaluation per cycle. *)
let measure_naive ~sessions ~width (net : Netlist.t) =
  (* Per fault and session: (stream differs, final signature). *)
  let run_session ?fault (stimuli, observed) =
    let misr = Misr.create ~width ~seed:0 () in
    let trace = Array.make (Array.length stimuli) 0 in
    Array.iteri
      (fun cycle vec ->
        let values = Netlist.eval ?fault net ~inputs:vec in
        let word = observe_word values observed ~width in
        trace.(cycle) <- word;
        ignore (Misr.absorb misr word))
      stimuli;
    (trace, Misr.signature misr)
  in
  let golden = List.map (fun session -> run_session session) sessions in
  let faults = Netlist.fault_sites net in
  let stream_detected = ref 0
  and signature_detected = ref 0
  and aliased = ref 0 in
  List.iter
    (fun fault ->
      let stream = ref false and signature = ref false in
      List.iter2
        (fun session (golden_trace, golden_sig) ->
          let trace, sig_ = run_session ~fault session in
          if trace <> golden_trace then stream := true;
          if sig_ <> golden_sig then signature := true)
        sessions golden;
      if !stream then incr stream_detected;
      if !signature then incr signature_detected;
      if !stream && not !signature then incr aliased)
    faults;
  (List.length faults, !stream_detected, !signature_detected, !aliased)

(* Engine-backed implementation: the packed golden responses are computed
   once per session (instead of once per fault per session) and each
   fault's observed words come from a cone-limited incremental
   re-evaluation of one collapsed representative. *)
let measure_fast ~jobs ~sessions ~width (net : Netlist.t) =
  (* The MISR only sees the first [width] observed gates - truncate the
     observation sets so the engine's difference verdicts line up with the
     stream words exactly. *)
  let sessions =
    List.map
      (fun (stimuli, observed) ->
        let observed =
          if Array.length observed > width then Array.sub observed 0 width
          else observed
        in
        (stimuli, observed))
      sessions
  in
  let protected =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun (_, observed) ->
        Array.iter (fun g -> Hashtbl.replace tbl g ()) observed)
      sessions;
    Array.of_list
      (List.sort compare (Hashtbl.fold (fun g () acc -> g :: acc) tbl []))
  in
  let eng = Engine.create ~protected net in
  let cl = Engine.collapsed eng in
  let w = Netlist.word_bits in
  let packed_sessions =
    List.map
      (fun (stimuli, observed) ->
        let p = Engine.pack stimuli in
        (p, Engine.golden eng p, observed))
      sessions
  in
  let golden_sigs =
    List.map
      (fun (p, g, observed) ->
        let misr = Misr.create ~width ~seed:0 () in
        for c = 0 to p.Engine.cycles - 1 do
          let b = c / w and lane = c mod w in
          let word = ref 0 in
          Array.iter
            (fun gate ->
              word := (!word lsl 1) lor ((g.Engine.values.(b).(gate) lsr lane) land 1))
            observed;
          ignore (Misr.absorb misr !word)
        done;
        Misr.signature misr)
      packed_sessions
  in
  let num_classes = Array.length cl.Netlist.representatives in
  let verdicts = Array.make num_classes (false, false) in
  Stc_util.Parallel.iter_range_local ~jobs
    ~local:(fun () -> Engine.scratch eng)
    num_classes
    (fun scr ci ->
      let fault = cl.Netlist.faults.(cl.Netlist.representatives.(ci)) in
      let stream = ref false and signature = ref false in
      List.iter2
        (fun (p, g, observed) golden_sig ->
          let misr = Misr.create ~width ~seed:0 () in
          let into = Array.make (Array.length observed) 0 in
          for b = 0 to Engine.num_batches p - 1 do
            if Engine.response eng scr g p ~batch:b fault ~observed ~into
            then stream := true;
            let valid = min w (p.Engine.cycles - (b * w)) in
            for lane = 0 to valid - 1 do
              let word = ref 0 in
              Array.iter
                (fun wd -> word := (!word lsl 1) lor ((wd lsr lane) land 1))
                into;
              ignore (Misr.absorb misr !word)
            done
          done;
          if Misr.signature misr <> golden_sig then signature := true)
        packed_sessions golden_sigs;
      verdicts.(ci) <- (!stream, !signature));
  (* Equivalent faults produce identical observed traces, hence identical
     signatures: weight each class verdict by its raw member count. *)
  let stream_detected = ref 0
  and signature_detected = ref 0
  and aliased = ref 0 in
  Array.iteri
    (fun ci (stream, signature) ->
      let members = Array.length cl.Netlist.classes.(ci) in
      if stream then stream_detected := !stream_detected + members;
      if signature then signature_detected := !signature_detected + members;
      if stream && not signature then aliased := !aliased + members)
    verdicts;
  (Array.length cl.Netlist.faults, !stream_detected, !signature_detected,
   !aliased)

let measure ?cycles ?(jobs = 1) ?(naive = false) (built : Arch.built) =
  let net = built.Arch.netlist in
  let sessions = truncate_sessions ?cycles built in
  let width = misr_width sessions in
  let total, stream_detected, signature_detected, aliased =
    if naive then measure_naive ~sessions ~width net
    else measure_fast ~jobs ~sessions ~width net
  in
  {
    total;
    stream_detected;
    signature_detected;
    aliased;
    aliasing_rate =
      (if stream_detected = 0 then 0.0
       else float_of_int aliased /. float_of_int stream_detected);
    misr_width = width;
  }
