module Netlist = Stc_netlist.Netlist
module Metrics = Stc_obs.Metrics
module Clock = Stc_util.Clock
module Word = Stc_bits.Word
module Arena = Stc_bits.Arena
module Parallel = Stc_bits.Parallel

type stimuli = int array array

type packed = {
  cycles : int;
  words : int array array;
  masks : int array;
}

let word_bits = Netlist.word_bits

let pack (stimuli : stimuli) =
  let cycles = Array.length stimuli in
  let w = word_bits in
  let batches = (cycles + w - 1) / w in
  let num_inputs = if cycles = 0 then 0 else Array.length stimuli.(0) in
  let words =
    Array.init batches (fun b ->
        Array.init num_inputs (fun k ->
            let word = ref 0 in
            for lane = 0 to w - 1 do
              let cycle = (b * w) + lane in
              if cycle < cycles && stimuli.(cycle).(k) <> 0 then
                word := !word lor (1 lsl lane)
            done;
            !word))
  in
  let masks =
    Array.init batches (fun b ->
        let valid = min w (cycles - (b * w)) in
        (* (1 lsl 62) - 1 = max_int: exactly the 62 pattern lanes. *)
        (1 lsl valid) - 1)
  in
  { cycles; words; masks }

let num_batches p = Array.length p.words

(* Lowest set bit index = first simulation lane (cycle within the batch)
   where the faulty response differs. *)
let first_lane word =
  if word = 0 then invalid_arg "Engine.first_lane: zero difference word";
  Word.ffs word

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)
(* ------------------------------------------------------------------ *)

let m_raw = Metrics.counter "faultsim.faults.raw"
let m_classes = Metrics.counter "faultsim.faults.classes"
let m_dom_skips = Metrics.counter "faultsim.dominance_skips"
let m_gate_evals = Metrics.counter "faultsim.gate_evals"
let m_one_operand = Metrics.counter "faultsim.one_operand_evals"
let m_cone = Metrics.histogram "faultsim.cone_size"
let m_domain_ms = Metrics.histogram "faultsim.domain_wall_ms"

(* ------------------------------------------------------------------ *)
(* Engine: collapsed fault list plus per-site output cones              *)
(* ------------------------------------------------------------------ *)

type t = {
  net : Netlist.t;
  collapsed : Netlist.collapsed;
  readers : (int * int) array array;
  cones : int array array;  (* by site gate; [||] where no fault lives *)
}

let create ?protected net =
  let collapsed = Netlist.collapse ?protected net in
  let rd = Netlist.readers net in
  let cones = Array.make (Netlist.num_gates net) [||] in
  let seen = Arena.Stamped.create (Netlist.num_gates net) in
  Array.iter
    (fun rep ->
      let g = collapsed.Netlist.faults.(rep).Netlist.gate in
      if Array.length cones.(g) = 0 then begin
        let c = Netlist.cone ~readers:rd ~seen net g in
        cones.(g) <- c;
        Metrics.observe m_cone (Array.length c)
      end)
    collapsed.Netlist.representatives;
  Metrics.add m_raw (Array.length collapsed.Netlist.faults);
  Metrics.add m_classes (Array.length collapsed.Netlist.representatives);
  { net; collapsed; readers = rd; cones }

let netlist t = t.net

let collapsed t = t.collapsed

(* ------------------------------------------------------------------ *)
(* Golden evaluation: once per batch, full netlist, reused buffers      *)
(* ------------------------------------------------------------------ *)

(* Per batch, the value of every gate, and for every And (Or) gate the
   lanes where at least one ([once]) and at least two ([twice]) of its
   operand pins carry the controlling value 0 (1).  When a single pin's
   value changes, the other pins hold a controlling value exactly on
   [twice] where that pin's golden value is controlling and on [once]
   elsewhere - which gives the gate's new value without reading its other
   operands. *)
type golden = {
  values : int array array;
  once : int array array;
  twice : int array array;
}

let all_ones = -1

let controlling_counts (net : Netlist.t) values ~once ~twice =
  let gates = net.Netlist.gates in
  for idx = 0 to Array.length gates - 1 do
    match Array.unsafe_get gates idx with
    | (Netlist.And xs | Netlist.Or xs) as gate ->
      let flip = match gate with Netlist.And _ -> all_ones | _ -> 0 in
      let o = ref 0 and t = ref 0 in
      for k = 0 to Array.length xs - 1 do
        let c = values.(Array.unsafe_get xs k) lxor flip in
        t := !t lor (!o land c);
        o := !o lor c
      done;
      once.(idx) <- !o;
      twice.(idx) <- !t
    | _ -> ()
  done

let golden_buffer t ~batches =
  let n = Netlist.num_gates t.net in
  let rows () = Array.init batches (fun _ -> Array.make n 0) in
  { values = rows (); once = rows (); twice = rows () }

let golden_into t (p : packed) (g : golden) =
  if num_batches p > Array.length g.values then
    invalid_arg "Engine.golden_into: buffer has too few batches";
  let n = Netlist.num_gates t.net in
  Array.iteri
    (fun b inputs ->
      Netlist.eval_into t.net ~values:g.values.(b) ~inputs;
      Metrics.add m_gate_evals n;
      controlling_counts t.net g.values.(b) ~once:g.once.(b) ~twice:g.twice.(b))
    p.words

let golden t (p : packed) : golden =
  let g = golden_buffer t ~batches:(num_batches p) in
  golden_into t p g;
  g

(* ------------------------------------------------------------------ *)
(* Cone-limited incremental faulty evaluation                          *)
(* ------------------------------------------------------------------ *)

(* Per-domain scratch.  [faulty] is the faulty-value overlay over the
   golden buffer, an epoch-stamped arena ([Arena.Stamped]), so clearing
   between faults is O(1).  Under the same epoch, [pending.(g)] marks a
   gate with at least one differing operand; [ndiff.(g)] counts its
   differing operand pins and [dpin.(g)] is one of them. *)
type scratch = {
  faulty : Arena.Stamped.t;
  pending : int array;
  ndiff : int array;
  dpin : int array;
}

let scratch t =
  let n = Netlist.num_gates t.net in
  { faulty = Arena.Stamped.create n; pending = Array.make n 0;
    ndiff = Array.make n 0; dpin = Array.make n 0 }

(* The value of And/Or gate [idx] when exactly one of its pins, reading
   gate [x], changes to [v]: the other pins force the controlled output
   exactly on the lanes where one of them is controlling. *)
let one_operand (g : golden) ~batch ~gv ~idx gate x v =
  let once = g.once.(batch).(idx) and twice = g.twice.(batch).(idx) in
  match gate with
  | Netlist.And _ ->
    let others = (twice land lnot gv.(x)) lor (once land gv.(x)) in
    v land lnot others
  | _ ->
    let others = (twice land gv.(x)) lor (once land lnot gv.(x)) in
    v lor others

(* Evaluate [fault] against one packed batch.  Only gates in the fault
   site's output cone are touched, and of those only the ones with a
   differing fanin are recomputed: a gate whose masked value differs from
   the golden word marks its readers, and the scan of the cone stops once
   no marked gate is left, so a fault effect that dies at controlling
   side-inputs stops costing anything.  An And/Or gate with a single
   differing operand pin is recomputed from [golden]'s controlling-lane
   words instead of its whole fanin.  Returns the OR over observed gates
   of the masked faulty-vs-golden difference; with [stop_early] the scan
   returns at the first observed difference (verdict-only grading does
   not need the exact first lane). *)
let eval_fault t scr (g : golden) ~batch ~mask ~(obs_mark : bool array)
    ~stop_early (fault : Netlist.fault) =
  let gates = t.net.Netlist.gates in
  let rd = t.readers in
  let gv = g.values.(batch) in
  let site = fault.Netlist.gate in
  let cone = t.cones.(site) in
  let fv = scr.faulty in
  let ep = Arena.Stamped.bump fv in
  let stamp = fv.Arena.Stamped.stamp and faulty = fv.Arena.Stamped.data in
  let pending = scr.pending and ndiff = scr.ndiff and dpin = scr.dpin in
  let stuck = if fault.Netlist.stuck_at then all_ones else 0 in
  let evals = ref 1 and one_op = ref 0 in
  let site_val =
    match fault.Netlist.pin with
    | None -> stuck
    | Some fpin ->
      let read k x = if k = fpin then stuck else gv.(x) in
      (match gates.(site) with
      | Netlist.Buf x -> read 0 x
      | Netlist.Not x -> lnot (read 0 x)
      | (Netlist.And xs | Netlist.Or xs) as gate ->
        incr one_op;
        one_operand g ~batch ~gv ~idx:site gate xs.(fpin) stuck
      | Netlist.Xor xs ->
        let acc = ref 0 in
        Array.iteri (fun k x -> acc := !acc lxor read k x) xs;
        !acc
      | Netlist.Mux { sel; a; b } ->
        let s = read 0 sel in
        (lnot s land read 1 a) lor (s land read 2 b)
      | Netlist.Input _ | Netlist.Const _ ->
        (* Pin faults are only enumerated on logic gates. *)
        gv.(site))
  in
  let site_diff = (site_val lxor gv.(site)) land mask in
  let result =
    if site_diff = 0 then
      (* The injected value agrees with the golden one on every valid
         lane: the whole cone is unaffected (lanes are independent). *)
      0
    else begin
      (* Marked readers not yet reached by the scan. *)
      let open_marks = ref 0 in
      let differs x v =
        faulty.(x) <- v;
        stamp.(x) <- ep;
        Array.iter
          (fun (r, pin) ->
            if pending.(r) = ep then ndiff.(r) <- ndiff.(r) + 1
            else begin
              pending.(r) <- ep;
              ndiff.(r) <- 1;
              dpin.(r) <- pin;
              incr open_marks
            end)
          rd.(x)
      in
      differs site site_val;
      let diff_obs = ref (if obs_mark.(site) then site_diff else 0) in
      let nc = Array.length cone in
      let ci = ref 1 in
      while
        !ci < nc && !open_marks > 0 && not (stop_early && !diff_obs <> 0)
      do
        let idx = cone.(!ci) in
        incr ci;
        if pending.(idx) = ep then begin
          decr open_marks;
          let read x = if stamp.(x) = ep then faulty.(x) else gv.(x) in
          let gate = gates.(idx) in
          let v =
            match gate with
            | (Netlist.And xs | Netlist.Or xs) when ndiff.(idx) = 1 ->
              incr one_op;
              let x = xs.(dpin.(idx)) in
              one_operand g ~batch ~gv ~idx gate x faulty.(x)
            | Netlist.Buf x -> read x
            | Netlist.Not x -> lnot (read x)
            | Netlist.And xs ->
              let acc = ref all_ones in
              Array.iter (fun x -> acc := !acc land read x) xs;
              !acc
            | Netlist.Or xs ->
              let acc = ref 0 in
              Array.iter (fun x -> acc := !acc lor read x) xs;
              !acc
            | Netlist.Xor xs ->
              let acc = ref 0 in
              Array.iter (fun x -> acc := !acc lxor read x) xs;
              !acc
            | Netlist.Mux { sel; a; b } ->
              let s = read sel in
              (lnot s land read a) lor (s land read b)
            | Netlist.Input _ | Netlist.Const _ -> gv.(idx)
          in
          incr evals;
          let d = (v lxor gv.(idx)) land mask in
          if d <> 0 then begin
            differs idx v;
            if obs_mark.(idx) then diff_obs := !diff_obs lor d
          end
        end
      done;
      !diff_obs
    end
  in
  Metrics.add m_gate_evals !evals;
  Metrics.add m_one_operand !one_op;
  result

let obs_marks t observed =
  let mark = Array.make (Netlist.num_gates t.net) false in
  Array.iter (fun g -> mark.(g) <- true) observed;
  mark

let response t scr (g : golden) (p : packed) ~batch fault ~observed ~into =
  let gv = g.values.(batch) in
  let obs_mark = obs_marks t observed in
  let diff =
    eval_fault t scr g ~batch ~mask:p.masks.(batch) ~obs_mark ~stop_early:false
      fault
  in
  Array.iteri
    (fun j gate ->
      into.(j) <- Arena.Stamped.get scr.faulty gate ~default:gv.(gate))
    observed;
  diff <> 0

(* ------------------------------------------------------------------ *)
(* Fault-parallel grading                                              *)
(* ------------------------------------------------------------------ *)

type verdict = Undetected | Detected of int option

(* Shard [work] (class ids) over [jobs] domains with chunked grabs; each
   domain owns its scratch buffers and writes disjoint slots of
   [verdicts]. *)
let run_sharded t ~jobs ~verdicts ~grade_one (work : int array) =
  let nw = Array.length work in
  if nw > 0 then
    Parallel.iter_range_local ~jobs
      ~local:(fun () -> (scratch t, Clock.now ()))
      ~finish:(fun (_, t0) ->
        Metrics.observe m_domain_ms
          (int_of_float (1000.0 *. Clock.elapsed ~since:t0)))
      nw
      (fun (scr, _) i ->
        let c = work.(i) in
        verdicts.(c) <- grade_one scr c)

let grade t ~jobs ~need_cycles ?(dominance = true) (p : packed) (g : golden)
    ~observed ~(active : bool array) =
  let cl = t.collapsed in
  let num_classes = Array.length cl.Netlist.representatives in
  let verdicts = Array.make num_classes Undetected in
  let obs_mark = obs_marks t observed in
  let nb = num_batches p in
  let grade_one scr c =
    let fault = cl.Netlist.faults.(cl.Netlist.representatives.(c)) in
    let rec go b =
      if b >= nb then Undetected
      else
        let diff =
          eval_fault t scr g ~batch:b ~mask:p.masks.(b) ~obs_mark
            ~stop_early:(not need_cycles) fault
        in
        if diff <> 0 then
          Detected
            (if need_cycles then Some ((b * word_bits) + first_lane diff)
             else None)
        else go (b + 1)
    in
    go 0
  in
  (* Dominance shortcut: classes whose detection is implied by a dominated
     class are graded after the rest - they only need simulating when
     every dominated class escaped.  Exact first-detect cycles cannot be
     inferred this way, so the shortcut is off when cycles are wanted. *)
  let use_dom = dominance && not need_cycles in
  let deferred = ref [] and phase1 = ref [] in
  for c = num_classes - 1 downto 0 do
    if active.(c) then
      if
        use_dom
        && Array.exists (fun d -> active.(d)) cl.Netlist.dominated_by.(c)
      then deferred := c :: !deferred
      else phase1 := c :: !phase1
  done;
  run_sharded t ~jobs ~verdicts ~grade_one (Array.of_list !phase1);
  let simulate = ref [] in
  List.iter
    (fun c ->
      let implied =
        Array.exists
          (fun d ->
            active.(d) && match verdicts.(d) with Detected _ -> true | Undetected -> false)
          cl.Netlist.dominated_by.(c)
      in
      if implied then begin
        verdicts.(c) <- Detected None;
        Metrics.incr m_dom_skips
      end
      else simulate := c :: !simulate)
    !deferred;
  run_sharded t ~jobs ~verdicts ~grade_one (Array.of_list (List.rev !simulate));
  verdicts
