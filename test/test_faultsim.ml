module N = Stc_netlist.Netlist
module B = Stc_netlist.Netlist.Builder
module Session = Stc_faultsim.Session
module Engine = Stc_faultsim.Engine
module Seqtest = Stc_faultsim.Seqtest
module Aliasing = Stc_faultsim.Aliasing
module Arch = Stc_faultsim.Arch
module Zoo = Stc_fsm.Zoo
module Suite = Stc_benchmarks.Suite
module Metrics = Stc_obs.Metrics
module Rng = Stc_util.Rng
module Cover = Stc_logic.Cover
module Context = Stc_analysis.Context

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let qcheck = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Session plumbing                                                    *)
(* ------------------------------------------------------------------ *)

let test_pack_roundtrip () =
  let cycles = 150 and inputs = 3 in
  let stimuli =
    Array.init cycles (fun c -> Array.init inputs (fun k -> (c + k) land 1))
  in
  let batches = Session.pack stimuli in
  check_int "batch count" 3 (List.length batches);
  List.iteri
    (fun b words ->
      Array.iteri
        (fun k word ->
          for lane = 0 to N.word_bits - 1 do
            let cycle = (b * N.word_bits) + lane in
            if cycle < cycles then
              check_int
                (Printf.sprintf "bit c=%d k=%d" cycle k)
                stimuli.(cycle).(k)
                ((word lsr lane) land 1)
          done)
        words)
    batches

let and_netlist () =
  let b = B.create "and2" in
  let x = B.input b "x" in
  let y = B.input b "y" in
  let a = B.and_ b [ x; y ] in
  B.output b "a" a;
  (B.finish b, a)

let test_run_detects_known_faults () =
  let net, a = and_netlist () in
  (* Exhaustive patterns on 2 inputs. *)
  let stimuli = [| [| 0; 0 |]; [| 0; 1 |]; [| 1; 0 |]; [| 1; 1 |] |] in
  let r = Session.run ~label:"and2" net ~stimuli ~observed:[| a |] in
  (* All 10 faults of an AND with fanin-free inputs are testable
     exhaustively: 2 inputs x 2 + output 2 + 2 pins x 2. *)
  check_int "total" 10 r.Session.total;
  check_int "all detected" 10 r.Session.detected;
  check_bool "coverage 1.0" true (r.Session.coverage = 1.0)

let test_run_misses_unapplied_patterns () =
  let net, a = and_netlist () in
  (* Never applying (1,1) leaves the output stuck-at-0 fault untested. *)
  let stimuli = [| [| 0; 0 |]; [| 0; 1 |]; [| 1; 0 |] |] in
  let r = Session.run ~label:"and2" net ~stimuli ~observed:[| a |] in
  check_bool "some fault escapes" true (r.Session.detected < r.Session.total);
  check_bool "sa0 on output undetected" true
    (List.exists
       (fun (f : N.fault) -> f.N.gate = a && f.N.pin = None && not f.N.stuck_at)
       r.Session.undetected)

let test_run_empty_observation_detects_nothing () =
  let net, _ = and_netlist () in
  let stimuli = [| [| 1; 1 |] |] in
  let r = Session.run ~label:"blind" net ~stimuli ~observed:[||] in
  check_int "nothing detected" 0 r.Session.detected

let test_run_sessions_merges () =
  let net, a = and_netlist () in
  let s1 = [| [| 1; 1 |] |] and s2 = [| [| 0; 1 |]; [| 1; 0 |] |] in
  let merged =
    Session.run_sessions ~label:"merge" net
      [ (s1, [| a |]); (s2, [| a |]) ]
  in
  let alone = Session.run ~label:"alone" net ~stimuli:s1 ~observed:[| a |] in
  check_bool "second session adds detections" true
    (merged.Session.detected > alone.Session.detected);
  check_int "undetected + detected = total" merged.Session.total
    (merged.Session.detected + List.length merged.Session.undetected)

let test_fault_on_tags () =
  let f = { N.gate = 7; pin = None; stuck_at = true } in
  check_bool "found" true
    (Session.fault_on f [ ("a", [ 1; 2 ]); ("b", [ 7 ]) ] = Some "b");
  check_bool "missing" true (Session.fault_on f [ ("a", [ 1 ]) ] = None)

(* ------------------------------------------------------------------ *)
(* Architectures (the fig. 1-4 experiment)                             *)
(* ------------------------------------------------------------------ *)

let shiftreg = Zoo.shift_register ~bits:3

(* Every structure of [m] from the flow, with 1024-cycle sessions. *)
let flow m = Context.of_machine ~conventional:true ~all_archs:true ~cycles:1024 m
let fig label m = Context.structure (flow m) label

let test_fig2_feedback_faults_escape () =
  (* The paper's drawback 3: faults on the feedback lines from R to C are
     not detected by the conventional BIST, since T drives C during the
     self-test. *)
  let built = fig "fig2" shiftreg in
  let report = Arch.grade built in
  let feedback = List.assoc "feedback" built.Arch.tags in
  let r_input = List.assoc "r-input" built.Arch.tags in
  let escaped gate =
    List.length
      (List.filter (fun (f : N.fault) -> f.N.gate = gate) report.Session.undetected)
  in
  List.iter
    (fun g -> check_int "both feedback faults escape" 2 (escaped g))
    feedback;
  List.iter
    (fun g -> check_int "both r faults escape" 2 (escaped g))
    r_input;
  check_bool "coverage below 100%" true (report.Session.coverage < 1.0)

let test_fig4_shiftreg_full_coverage () =
  let built = fig "fig4" shiftreg in
  let report = Arch.grade built in
  check_bool "100% coverage" true (report.Session.coverage = 1.0);
  check_int "3 flip-flops (Table 1)" 3 built.Arch.flipflops

let test_fig3_shiftreg_full_coverage () =
  let built = fig "fig3" shiftreg in
  let report = Arch.grade built in
  check_bool "100% coverage" true (report.Session.coverage = 1.0);
  check_int "6 flip-flops" 6 built.Arch.flipflops

let test_fig4_beats_fig2 () =
  (* The headline comparison, on several machines: the pipeline structure
     has at least the coverage of the conventional BIST and no more
     flip-flops. *)
  List.iter
    (fun machine ->
      let ctx = flow machine in
      let fig2 = Context.structure ctx "fig2" and fig4 = ctx.Context.fig4 in
      let r2 = Arch.grade fig2 and r4 = Arch.grade fig4 in
      check_bool
        (machine.Stc_fsm.Machine.name ^ " coverage")
        true
        (r4.Session.coverage >= r2.Session.coverage);
      check_bool
        (machine.Stc_fsm.Machine.name ^ " flip-flops")
        true
        (fig4.Arch.flipflops <= fig2.Arch.flipflops))
    [ Zoo.paper_fig5 (); shiftreg ]

let test_fig1_has_no_sessions () =
  let built = fig "fig1" shiftreg in
  check_bool "no self-test sessions" true (built.Arch.sessions = []);
  check_int "single register" 3 built.Arch.flipflops;
  check_bool "netlist nonempty" true (N.num_gates built.Arch.netlist > 0)

let test_grade_deterministic () =
  let built = fig "fig4" (Zoo.paper_fig5 ()) in
  let a = Arch.grade built and b = Arch.grade built in
  check_int "same detected" a.Session.detected b.Session.detected;
  check_int "same total" a.Session.total b.Session.total

(* Grading each session on its own and merging the reports must give
   exactly the combined grade, undetected list included.  Merging the
   reports twice over changes nothing: a fault stays undetected only if
   every report leaves it undetected.  Grading the sessions on one shared
   engine ([run_each], finer classes) gives the very same reports. *)
let test_merge_equals_grade () =
  List.iter
    (fun name ->
      let m =
        match Suite.find name with Some s -> Suite.machine s | None -> assert false
      in
      let built = (Context.of_machine ~cycles:1024 m).Context.fig4 in
      let reports =
        List.mapi
          (fun k (stimuli, observed) ->
            Session.run ~label:(Printf.sprintf "session %d" (k + 1))
              built.Arch.netlist ~stimuli ~observed)
          built.Arch.sessions
      in
      let shared =
        Session.run_each built.Arch.netlist
          (List.mapi
             (fun k session -> (Printf.sprintf "session %d" (k + 1), session))
             built.Arch.sessions)
      in
      check_bool (name ^ ": one engine = one engine per session") true
        (shared = reports);
      let merged = Session.merge ~label:built.Arch.label reports in
      let graded = Arch.grade built in
      check_bool (name ^ ": merge = grade") true (merged = graded);
      check_bool (name ^ ": merge is idempotent") true
        (Session.merge ~label:built.Arch.label (reports @ reports) = graded))
    [ "bbara"; "dk27"; "dk512"; "mc"; "shiftreg"; "tav" ]

let test_undetected_by_tag_sums () =
  let built = fig "fig2" (Zoo.paper_fig5 ()) in
  let report = Arch.grade built in
  let sum =
    List.fold_left (fun acc (_, n) -> acc + n) 0
      (Arch.undetected_by_tag built report)
  in
  check_int "tag buckets cover all undetected" (List.length report.Session.undetected) sum

(* The per-cycle scalar loop that generated the fig. 4 session stimuli
   before the word-parallel generator, kept here as its oracle: every
   cycle the pattern generator fills the primary inputs and the
   generating register, the MISR's current signature fills the other
   register, one full netlist evaluation gives the compressed block's
   outputs, and the MISR absorbs them. *)
let fig4_oracle_session (built : Arch.built) ~iw ~w1 ~w2 ~cycles ~generator
    ~seed =
  let net = built.Arch.netlist in
  let outputs prefix =
    Array.of_list
      (List.filter_map
         (fun (name, g) ->
           if String.starts_with ~prefix name then Some g else None)
         (Array.to_list net.N.outputs))
  in
  let bits ~width word =
    Array.init width (fun k -> (word lsr (width - 1 - k)) land 1)
  in
  let gen_width, cap_width, compressed =
    match generator with
    | `R1 -> (w1, w2, outputs "r2n")
    | `R2 -> (w2, w1, outputs "r1n")
  in
  let lfsr =
    Stc_bist.Lfsr.create
      ~width:(min 32 (max 8 (iw + gen_width + 2)))
      ~seed:(max 1 seed) ()
  in
  let field offset width =
    (Stc_bist.Lfsr.state lfsr lsr offset) land ((1 lsl width) - 1)
  in
  let misr = Stc_bist.Misr.create ~width:cap_width ~seed:0 () in
  Array.init cycles (fun _ ->
      let gen_bits = bits ~width:gen_width (field iw gen_width) in
      let cap_bits = bits ~width:cap_width (Stc_bist.Misr.signature misr) in
      let vec =
        Array.concat
          (bits ~width:iw (field 0 iw)
          :: (match generator with
             | `R1 -> [ gen_bits; cap_bits ]
             | `R2 -> [ cap_bits; gen_bits ]))
      in
      let values = N.eval net ~inputs:vec in
      let word =
        Array.fold_left
          (fun acc g -> (acc lsl 1) lor (values.(g) land 1))
          0 compressed
      in
      ignore (Stc_bist.Misr.absorb misr word);
      ignore (Stc_bist.Lfsr.step lfsr);
      vec)

(* Every corpus machine's fig. 4 sessions against the scalar oracle.  The
   stimuli do not depend on the covers being minimized, so the blocks go
   in as their on-sets (s1's minimization alone takes most of a
   minute); 300 cycles end in a partial simulation word. *)
let test_fig4_stimuli_oracle () =
  let cycles = 300 in
  List.iter
    (fun name ->
      let m =
        match Suite.find name with Some s -> Suite.machine s | None -> assert false
      in
      let r = (Stc_core.Ostr.run ~jobs:1 m).Stc_core.Ostr.realization in
      let p = Stc_encoding.Tables.pipeline r in
      let built =
        Arch.pipeline ~cycles
          ~covers:
            Stc_encoding.Tables.(p.c1_on, p.c2_on, p.lambda_on)
          p
      in
      let iw = p.Stc_encoding.Tables.enc.Stc_encoding.Tables.input_width in
      let w1 = p.Stc_encoding.Tables.code1.Stc_encoding.Code.width in
      let w2 = p.Stc_encoding.Tables.code2.Stc_encoding.Code.width in
      let expected =
        [ fig4_oracle_session built ~iw ~w1 ~w2 ~cycles ~generator:`R1
            ~seed:0b101;
          fig4_oracle_session built ~iw ~w1 ~w2 ~cycles ~generator:`R2
            ~seed:0b111 ]
      in
      List.iteri
        (fun k ((stimuli, _), oracle) ->
          check_bool
            (Printf.sprintf "%s session %d stimuli" name (k + 1))
            true (stimuli = oracle))
        (List.combine built.Arch.sessions expected))
    Suite.names

let test_dk27_benchmark_comparison () =
  (* An actual Table-1 machine through the full flow. *)
  let spec = match Suite.find "dk27" with Some s -> s | None -> assert false in
  let machine = Suite.machine spec in
  let ctx = flow machine in
  let fig2 = Context.structure ctx "fig2" and fig4 = ctx.Context.fig4 in
  let r2 = Arch.grade fig2 and r4 = Arch.grade fig4 in
  check_int "fig2 flip-flops = Table 1 conv." spec.Suite.paper.Suite.ff_conventional
    fig2.Arch.flipflops;
  check_int "fig4 flip-flops = Table 1 pipeline" spec.Suite.paper.Suite.ff_pipeline
    fig4.Arch.flipflops;
  check_bool "pipeline coverage at least conventional" true
    (r4.Session.coverage >= r2.Session.coverage)

(* ------------------------------------------------------------------ *)
(* Optimized engine vs the naive reference grader                      *)
(* ------------------------------------------------------------------ *)

let test_first_lane () =
  check_int "bit 0" 0 (Engine.first_lane 1);
  check_int "bit 2" 2 (Engine.first_lane 0b100);
  check_int "mixed" 3 (Engine.first_lane 0b1011000);
  check_bool "zero rejected" true
    (match Engine.first_lane 0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let sorted_faults fs = List.sort compare fs

let check_reports_equal name (a : Session.report) (b : Session.report) =
  check_int (name ^ ": total") a.Session.total b.Session.total;
  check_int (name ^ ": detected") a.Session.detected b.Session.detected;
  check_bool (name ^ ": same undetected set") true
    (sorted_faults a.Session.undetected = sorted_faults b.Session.undetected)

let test_naive_vs_fast_architectures () =
  let dk27 =
    match Suite.find "dk27" with
    | Some s -> Suite.machine s
    | None -> assert false
  in
  List.iter
    (fun machine ->
      let ctx = flow machine in
      List.iter
        (fun arch_name ->
          let built = Context.structure ctx arch_name in
          let naive = Arch.grade ~naive:true built in
          let name =
            Printf.sprintf "%s/%s" machine.Stc_fsm.Machine.name arch_name
          in
          check_reports_equal (name ^ " jobs=1") naive
            (Arch.grade ~jobs:1 built);
          check_reports_equal (name ^ " jobs=2") naive
            (Arch.grade ~jobs:2 built);
          (* Cycle-accurate mode disables dominance skipping - verdicts
             must still be identical. *)
          check_reports_equal (name ^ " need_cycles") naive
            (Arch.grade ~need_cycles:true built))
        [ "fig2"; "fig4" ])
    [ Zoo.paper_fig5 (); shiftreg; dk27 ]

(* Randomized cross-check: arbitrary two-level netlists, random stimuli,
   random observation subsets - the collapsed cone-limited grader must
   reproduce the naive grader's report exactly, serial and sharded.  One
   case in three has 30-80 cubes, so Or gates reach fan-ins above 16 and
   their pin faults are graded too; one in two adds gates that read an
   operand twice, where a single differing gate is two differing pins and
   the grader must fall back to full evaluation. *)
let test_random_netlists_equivalent =
  QCheck.Test.make ~count:60 ~name:"naive and optimized graders agree"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let wide = Rng.int rng 3 = 0 in
      let num_vars = if wide then 4 + Rng.int rng 3 else 2 + Rng.int rng 4 in
      let num_outputs = 1 + Rng.int rng 3 in
      let cube _ =
        let input =
          Array.init num_vars (fun _ ->
              match Rng.int rng 3 with
              | 0 -> Stc_logic.Cube.Zero
              | 1 -> Stc_logic.Cube.One
              | _ -> Stc_logic.Cube.Dc)
        in
        let output = Array.init num_outputs (fun _ -> Rng.bool rng) in
        if not (Array.exists Fun.id output) then output.(0) <- true;
        Stc_logic.Cube.make ~input ~output
      in
      let num_cubes = if wide then 30 + Rng.int rng 51 else 1 + Rng.int rng 6 in
      let cover = Cover.make ~num_vars ~num_outputs (List.init num_cubes cube) in
      let b = B.create "rand" in
      let inputs =
        Array.init num_vars (fun k -> B.input b (Printf.sprintf "x%d" k))
      in
      let outs = B.emit_cover b ~inputs cover in
      Array.iteri (fun o g -> B.output b (Printf.sprintf "y%d" o) g) outs;
      if Rng.bool rng then begin
        let x0 = inputs.(0) and x1 = inputs.(1) in
        B.output b "dup_and" (B.and_ b [ x0; x1; x0 ]);
        B.output b "dup_or"
          (B.or_ b (outs.(0) :: outs.(0) :: Array.to_list inputs))
      end;
      let net = B.finish b in
      let observed =
        Array.of_list
          (List.filteri
             (fun k _ -> k = 0 || Rng.bool rng)
             (Array.to_list (Array.map snd net.N.outputs)))
      in
      let cycles = 1 + Rng.int rng 200 in
      let stimuli =
        Array.init cycles (fun _ ->
            Array.init num_vars (fun _ -> if Rng.bool rng then 1 else 0))
      in
      let naive = Session.run ~naive:true ~label:"na" net ~stimuli ~observed in
      let agree (fast : Session.report) =
        naive.Session.total = fast.Session.total
        && naive.Session.detected = fast.Session.detected
        && sorted_faults naive.Session.undetected
           = sorted_faults fast.Session.undetected
      in
      agree (Session.run ~jobs:1 ~label:"f1" net ~stimuli ~observed)
      && agree (Session.run ~jobs:2 ~label:"f2" net ~stimuli ~observed))

(* A hand-built netlist with a 21-pin Or that reads an inverter twice,
   and a 20-input And: faults on most inputs leave one differing pin at
   the wide gate (the one-operand path), faults on the inverter leave two
   (the full-evaluation fallback), and the inverter reaches no other
   gate, so only that fallback detects its stuck-at-0.  Both paths, and
   the wide gates' own pin faults, must match the naive grader. *)
let test_wide_gates_one_operand () =
  let b = B.create "wide" in
  let xs = List.init 20 (fun k -> B.input b (Printf.sprintf "x%d" k)) in
  let inv = B.not_ b (List.hd xs) in
  let wide_or = B.or_ b (inv :: inv :: List.tl xs) in
  let wide_and = B.and_ b xs in
  let mixed = B.and_ b [ wide_or; List.nth xs 1; wide_or ] in
  B.output b "or" wide_or;
  B.output b "and" wide_and;
  B.output b "mixed" mixed;
  let net = B.finish b in
  let rng = Rng.create 7 in
  (* Sparse ones for the Or, dense ones for the And: both gates then see
     each pin at its sensitizing value in some cycles. *)
  let stimuli =
    Array.init 400 (fun c ->
        Array.init 20 (fun _ ->
            if c mod 2 = 0 then Bool.to_int (Rng.int rng 20 = 0)
            else Bool.to_int (Rng.int rng 20 <> 0)))
  in
  let observed = Array.map snd net.N.outputs in
  let was = Metrics.enabled () in
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled was) @@ fun () ->
  Metrics.reset ();
  let naive = Session.run ~naive:true ~label:"na" net ~stimuli ~observed in
  let fast = Session.run ~jobs:1 ~label:"f1" net ~stimuli ~observed in
  check_reports_equal "jobs=1" naive fast;
  check_reports_equal "jobs=2" naive
    (Session.run ~jobs:2 ~label:"f2" net ~stimuli ~observed);
  check_reports_equal "need_cycles" naive
    (Session.run ~need_cycles:true ~label:"f3" net ~stimuli ~observed);
  check_bool "one-operand evaluations happened" true
    (match Metrics.find "faultsim.one_operand_evals" with
    | Some (Metrics.Counter n) -> n > 0
    | _ -> false)

(* tbk's fig. 4 structure, pinned to the figures the engine produced
   before the offset-indexed fault collapse, the reader-marking grader and
   the word-parallel stimuli: the collapsed classes (representatives and
   dominance included), both sessions' stimuli, and the number of gate
   evaluations with and without exact first-detection cycles. *)
let test_tbk_fig4_pinned () =
  let m =
    match Suite.find "tbk" with Some s -> Suite.machine s | None -> assert false
  in
  let built = (Context.of_machine m).Context.fig4 in
  let net = built.Arch.netlist in
  let digest v = Digest.to_hex (Digest.string (Marshal.to_string v [])) in
  let cl = N.collapse net in
  Alcotest.(check string) "collapse" "33411478fe2392d5888c3d744ecbed09"
    (digest
       ( cl.N.class_of, cl.N.classes, cl.N.representatives,
         cl.N.dominated_by ));
  Alcotest.(check (list string)) "stimuli"
    [ "00d7b16196f381b083983da6214390c1"; "46b1b264f12c2eabef1fd99ca73be5bc" ]
    (List.map (fun (stimuli, _) -> digest stimuli) built.Arch.sessions);
  let was = Metrics.enabled () in
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled was) @@ fun () ->
  let gate_evals need_cycles =
    Metrics.reset ();
    List.iteri
      (fun k (stimuli, observed) ->
        ignore
          (Session.run ~need_cycles ~label:(string_of_int k) net ~stimuli
             ~observed))
      built.Arch.sessions;
    match Metrics.find "faultsim.gate_evals" with
    | Some (Metrics.Counter n) -> n
    | _ -> Alcotest.fail "faultsim.gate_evals missing"
  in
  check_int "gate evals, exact cycles" 123448 (gate_evals true);
  check_int "gate evals, verdicts only" 105390 (gate_evals false)

(* First-detection cycles feed the coverage-over-patterns histograms; in
   cycle-accurate mode the optimized grader must produce the identical
   per-cycle distribution, not just the same verdicts. *)
let test_detect_cycles_exact () =
  let net, a = and_netlist () in
  let rng = Rng.create 42 in
  let stimuli =
    Array.init 100 (fun _ ->
        Array.init 2 (fun _ -> if Rng.bool rng then 1 else 0))
  in
  let was = Metrics.enabled () in
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled was) @@ fun () ->
  let snap () =
    match Metrics.find "faultsim.detect_cycle.cyc" with
    | Some (Metrics.Histogram h) -> h
    | _ -> Alcotest.fail "detect-cycle histogram missing"
  in
  Metrics.reset ();
  let naive =
    Session.run ~naive:true ~label:"cyc" net ~stimuli ~observed:[| a |]
  in
  let h_naive = snap () in
  Metrics.reset ();
  let fast =
    Session.run ~need_cycles:true ~label:"cyc" net ~stimuli ~observed:[| a |]
  in
  let h_fast = snap () in
  check_int "same detected" naive.Session.detected fast.Session.detected;
  check_int "same histogram population" h_naive.Metrics.count
    h_fast.Metrics.count;
  check_bool "identical first-detect distribution" true
    (h_naive.Metrics.counts = h_fast.Metrics.counts
    && h_naive.Metrics.sum = h_fast.Metrics.sum)

let test_seqtest_naive_vs_fast () =
  let ctx = flow shiftreg in
  let cover = (Option.get ctx.Context.block_c).Context.minimized in
  let enc = ctx.Context.tables.Stc_encoding.Tables.enc in
  let naive = Seqtest.run_conventional ~naive:true ~cycles:256 ~cover enc in
  let fast = Seqtest.run_conventional ~cycles:256 ~cover enc in
  let fast2 = Seqtest.run_conventional ~jobs:2 ~cycles:256 ~cover enc in
  check_int "total" naive.Seqtest.total fast.Seqtest.total;
  check_int "detected" naive.Seqtest.detected fast.Seqtest.detected;
  check_bool "identical detection cycles" true
    (naive.Seqtest.detection_cycles = fast.Seqtest.detection_cycles);
  check_bool "identical under jobs=2" true
    (naive.Seqtest.detection_cycles = fast2.Seqtest.detection_cycles)

let test_aliasing_naive_vs_fast () =
  let built = fig "fig4" (Zoo.paper_fig5 ()) in
  let naive = Aliasing.measure ~naive:true ~cycles:128 built in
  let fast = Aliasing.measure ~cycles:128 built in
  let fast2 = Aliasing.measure ~jobs:2 ~cycles:128 built in
  check_int "total" naive.Aliasing.total fast.Aliasing.total;
  check_int "stream" naive.Aliasing.stream_detected fast.Aliasing.stream_detected;
  check_int "signature" naive.Aliasing.signature_detected
    fast.Aliasing.signature_detected;
  check_int "aliased" naive.Aliasing.aliased fast.Aliasing.aliased;
  check_int "stream jobs=2" naive.Aliasing.stream_detected
    fast2.Aliasing.stream_detected;
  check_int "aliased jobs=2" naive.Aliasing.aliased fast2.Aliasing.aliased

let () =
  Alcotest.run "stc_faultsim"
    [
      ( "session",
        [
          Alcotest.test_case "pack roundtrip" `Quick test_pack_roundtrip;
          Alcotest.test_case "detects known faults" `Quick test_run_detects_known_faults;
          Alcotest.test_case "misses unapplied patterns" `Quick
            test_run_misses_unapplied_patterns;
          Alcotest.test_case "empty observation" `Quick
            test_run_empty_observation_detects_nothing;
          Alcotest.test_case "session merge" `Quick test_run_sessions_merges;
          Alcotest.test_case "fault_on tags" `Quick test_fault_on_tags;
        ] );
      ( "architectures",
        [
          Alcotest.test_case "fig2 feedback faults escape" `Quick
            test_fig2_feedback_faults_escape;
          Alcotest.test_case "fig4 shiftreg full coverage" `Quick
            test_fig4_shiftreg_full_coverage;
          Alcotest.test_case "fig3 shiftreg full coverage" `Quick
            test_fig3_shiftreg_full_coverage;
          Alcotest.test_case "fig4 beats fig2" `Quick test_fig4_beats_fig2;
          Alcotest.test_case "fig1 has no sessions" `Quick test_fig1_has_no_sessions;
          Alcotest.test_case "grade deterministic" `Quick test_grade_deterministic;
          Alcotest.test_case "undetected by tag sums" `Quick test_undetected_by_tag_sums;
          Alcotest.test_case "merge of sessions = grade" `Quick test_merge_equals_grade;
          Alcotest.test_case "dk27 comparison" `Quick test_dk27_benchmark_comparison;
          Alcotest.test_case "fig4 stimuli = per-cycle oracle" `Quick
            test_fig4_stimuli_oracle;
        ] );
      ( "engine",
        [
          Alcotest.test_case "first_lane" `Quick test_first_lane;
          Alcotest.test_case "naive vs fast on architectures" `Quick
            test_naive_vs_fast_architectures;
          qcheck test_random_netlists_equivalent;
          Alcotest.test_case "wide gates: one-operand path and fallback"
            `Quick test_wide_gates_one_operand;
          Alcotest.test_case "tbk fig4 pinned" `Quick test_tbk_fig4_pinned;
          Alcotest.test_case "detect cycles exact" `Quick
            test_detect_cycles_exact;
          Alcotest.test_case "seqtest naive vs fast" `Quick
            test_seqtest_naive_vs_fast;
          Alcotest.test_case "aliasing naive vs fast" `Quick
            test_aliasing_naive_vs_fast;
        ] );
    ]
