module Netlist = Stc_netlist.Netlist
module Trace = Stc_obs.Trace
module Metrics = Stc_obs.Metrics

type stimuli = int array array

type report = {
  label : string;
  total : int;
  detected : int;
  coverage : float;
  undetected : Netlist.fault list;
}

let pack stimuli = Array.to_list (Engine.pack stimuli).Engine.words

(* Same registered counter as the engine's, so naive and optimized runs
   report gate evaluations on a common scale. *)
let m_gate_evals = Metrics.counter "faultsim.gate_evals"

let observe netlist ?fault ~inputs observed =
  let values = Netlist.eval ?fault netlist ~inputs in
  Metrics.add m_gate_evals (Netlist.num_gates netlist);
  Array.map (fun g -> values.(g)) observed

(* Coverage-over-patterns histogram for one session: each detected fault
   contributes its first detection cycle, so the cumulative counts show
   how coverage accumulates as the LFSR stream lengthens. *)
let detect_histogram label =
  let slug =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '-' | '_' -> c
        | _ -> '_')
      label
  in
  Metrics.histogram ("faultsim.detect_cycle." ^ slug)

let observe_detect hist ~cycle = Metrics.observe hist (cycle + 1)

let report ~label ~total ~detected ~undetected =
  {
    label;
    total;
    detected;
    coverage =
      (if total = 0 then 1.0 else float_of_int detected /. float_of_int total);
    undetected;
  }

(* ------------------------------------------------------------------ *)
(* Naive reference grader: full netlist evaluation per fault per batch  *)
(* ------------------------------------------------------------------ *)

let grade_naive ?on_detect netlist ~(packed : Engine.packed) ~observed faults =
  let golden =
    Array.map (fun inputs -> observe netlist ~inputs observed) packed.Engine.words
  in
  let w = Netlist.word_bits in
  let nb = Engine.num_batches packed in
  let undetected = ref [] and detected = ref 0 in
  List.iter
    (fun fault ->
      let rec try_batches b =
        if b >= nb then false
        else begin
          let faulty =
            observe netlist ~fault ~inputs:packed.Engine.words.(b) observed
          in
          let g = golden.(b) and m = packed.Engine.masks.(b) in
          let diff = ref 0 in
          Array.iteri
            (fun k v -> diff := !diff lor ((v lxor g.(k)) land m))
            faulty;
          if !diff <> 0 then begin
            (match on_detect with
            | Some f -> f ~cycle:((b * w) + Engine.first_lane !diff)
            | None -> ());
            true
          end
          else try_batches (b + 1)
        end
      in
      if try_batches 0 then incr detected
      else undetected := fault :: !undetected)
    faults;
  (!detected, List.rev !undetected)

let run_sessions_naive ~label netlist sessions =
  let faults = Netlist.fault_sites netlist in
  let total = List.length faults in
  let remaining = ref faults and detected = ref 0 in
  List.iter2
    (fun session_label (stimuli, observed) ->
      Trace.span ~cat:"faultsim" ("session:" ^ session_label) @@ fun () ->
      let packed = Engine.pack stimuli in
      let hist = detect_histogram session_label in
      let d, undetected =
        grade_naive ~on_detect:(observe_detect hist) netlist ~packed ~observed
          !remaining
      in
      detected := !detected + d;
      remaining := undetected)
    (List.mapi (fun k _ -> Printf.sprintf "%s.s%d" label (k + 1)) sessions)
    sessions;
  report ~label ~total ~detected:!detected ~undetected:!remaining

(* ------------------------------------------------------------------ *)
(* Fast path: collapsed classes + cone-limited eval + fault-parallel    *)
(* ------------------------------------------------------------------ *)

let union_observed sessions =
  List.concat_map (fun (_, observed) -> Array.to_list observed) sessions
  |> List.sort_uniq compare |> Array.of_list

(* The engine that grades [sessions]: every gate any session observes is
   protected, so equivalences never fold a fault across an observation
   point of any of them. *)
let engine_for sessions netlist =
  Trace.span ~cat:"faultsim" "collapse" (fun () ->
      Engine.create ~protected:(union_observed sessions) netlist)

(* Grade one session on [eng], over the classes still [active]; detected
   classes are switched off.  Returns the raw faults it detected. *)
let grade_session eng ~jobs ~need_cycles ~active session_label
    (stimuli, observed) =
  Trace.span ~cat:"faultsim" ("session:" ^ session_label) @@ fun () ->
  let cl = Engine.collapsed eng in
  let p = Engine.pack stimuli in
  let g = Engine.golden eng p in
  let verdicts = Engine.grade eng ~jobs ~need_cycles p g ~observed ~active in
  let hist = detect_histogram session_label in
  let detected = ref 0 in
  Array.iteri
    (fun c verdict ->
      if active.(c) then
        match verdict with
        | Engine.Undetected -> ()
        | Engine.Detected cyc ->
          active.(c) <- false;
          let members = cl.Netlist.classes.(c) in
          detected := !detected + Array.length members;
          (* Equivalent faults share the exact same faulty responses,
             hence the same first-detection cycle: credit each raw
             member so histograms count raw faults. *)
          (match cyc with
          | Some cycle ->
            Array.iter (fun _ -> observe_detect hist ~cycle) members
          | None -> ()))
    verdicts;
  !detected

(* The report of a grading run: raw faults whose class is still active
   are undetected. *)
let report_of eng ~label ~detected active =
  let cl = Engine.collapsed eng in
  let faults = cl.Netlist.faults in
  let undetected = ref [] in
  for i = Array.length faults - 1 downto 0 do
    if active.(cl.Netlist.class_of.(i)) then
      undetected := faults.(i) :: !undetected
  done;
  report ~label ~total:(Array.length faults) ~detected ~undetected:!undetected

let all_active eng =
  Array.make (Array.length (Engine.collapsed eng).Netlist.representatives) true

let run_sessions_fast ~jobs ~need_cycles ~label ~session_labels netlist
    sessions =
  let eng = engine_for sessions netlist in
  let active = all_active eng in
  let detected =
    List.fold_left2
      (fun acc session_label session ->
        acc + grade_session eng ~jobs ~need_cycles ~active session_label session)
      0 session_labels sessions
  in
  report_of eng ~label ~detected active

let defaults ?(jobs = 1) ?(naive = false) ?need_cycles () =
  let need_cycles =
    match need_cycles with Some b -> b | None -> Metrics.enabled ()
  in
  (jobs, naive, need_cycles)

let run ?jobs ?naive ?need_cycles ~label netlist ~stimuli ~observed =
  let jobs, naive, need_cycles = defaults ?jobs ?naive ?need_cycles () in
  if naive then
    Trace.span ~cat:"faultsim" ("session:" ^ label) @@ fun () ->
    let faults = Netlist.fault_sites netlist in
    let packed = Engine.pack stimuli in
    let hist = detect_histogram label in
    let detected, undetected =
      grade_naive ~on_detect:(observe_detect hist) netlist ~packed ~observed
        faults
    in
    report ~label ~total:(List.length faults) ~detected ~undetected
  else
    run_sessions_fast ~jobs ~need_cycles ~label ~session_labels:[ label ]
      netlist
      [ (stimuli, observed) ]

let run_sessions ?jobs ?naive ?need_cycles ~label netlist sessions =
  let jobs, naive, need_cycles = defaults ?jobs ?naive ?need_cycles () in
  Trace.span ~cat:"faultsim" ("sessions:" ^ label) @@ fun () ->
  if naive then run_sessions_naive ~label netlist sessions
  else begin
    let session_labels =
      List.mapi (fun k _ -> Printf.sprintf "%s.s%d" label (k + 1)) sessions
    in
    run_sessions_fast ~jobs ~need_cycles ~label ~session_labels netlist sessions
  end

let run_each ?jobs ?need_cycles netlist sessions =
  let jobs, _, need_cycles = defaults ?jobs ?need_cycles () in
  let eng = engine_for (List.map snd sessions) netlist in
  List.map
    (fun (label, session) ->
      let active = all_active eng in
      let detected =
        grade_session eng ~jobs ~need_cycles ~active label session
      in
      report_of eng ~label ~detected active)
    sessions

let merge ~label = function
  | [] -> invalid_arg "Session.merge: no reports"
  | (first : report) :: rest ->
    let sets =
      List.map
        (fun (r : report) ->
          let tbl = Hashtbl.create (List.length r.undetected) in
          List.iter (fun f -> Hashtbl.replace tbl f ()) r.undetected;
          tbl)
        rest
    in
    let undetected =
      List.filter
        (fun f -> List.for_all (fun tbl -> Hashtbl.mem tbl f) sets)
        first.undetected
    in
    report ~label ~total:first.total
      ~detected:(first.total - List.length undetected)
      ~undetected

let adjusted (r : report) ~redundant =
  let tbl = Hashtbl.create 64 in
  List.iter (fun f -> Hashtbl.replace tbl f ()) redundant;
  let undetected =
    List.filter (fun f -> not (Hashtbl.mem tbl f)) r.undetected
  in
  let excluded = List.length r.undetected - List.length undetected in
  report ~label:r.label ~total:(r.total - excluded) ~detected:r.detected
    ~undetected

let fault_on (fault : Netlist.fault) tags =
  List.find_map
    (fun (name, gates) ->
      if List.mem fault.Netlist.gate gates then Some name else None)
    tags
