(* lib/sat suite: the CDCL core against pigeonhole instances and a
   brute-force oracle, the incremental-assumption API, the Tseitin
   encoders against Netlist.eval / cover semantics, and the
   untestable-fault prover against exhaustive simulation (a fault is
   proven redundant iff no input minterm exposes it), with stage
   counters showing which classes simulation settles and which reach
   SAT. *)

module Solver = Stc_sat.Solver
module Cnf = Stc_sat.Cnf
module Prove = Stc_sat.Prove
module N = Stc_netlist.Netlist
module B = Stc_netlist.Netlist.Builder
module Cover = Stc_logic.Cover

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let qcheck = QCheck_alcotest.to_alcotest

let is_sat = function Solver.Sat -> true | Solver.Unsat -> false

(* --- pigeonhole ------------------------------------------------------ *)

(* PHP(p, h): p pigeons into h holes.  Satisfiable iff p <= h; the
   p = h + 1 refutations are the classic resolution-hard family, a good
   workout for clause learning and restarts. *)
let pigeonhole s ~pigeons ~holes =
  let v = Array.init pigeons (fun _ -> Array.init holes (fun _ -> Solver.new_var s)) in
  for p = 0 to pigeons - 1 do
    Solver.add_clause s (List.init holes (fun h -> Solver.pos v.(p).(h)))
  done;
  for h = 0 to holes - 1 do
    for p = 0 to pigeons - 1 do
      for q = p + 1 to pigeons - 1 do
        Solver.add_clause s
          [ Solver.neg_of_var v.(p).(h); Solver.neg_of_var v.(q).(h) ]
      done
    done
  done

let test_pigeonhole () =
  for holes = 1 to 6 do
    let s = Solver.create () in
    pigeonhole s ~pigeons:(holes + 1) ~holes;
    check_bool
      (Printf.sprintf "PHP(%d,%d) unsat" (holes + 1) holes)
      false
      (is_sat (Solver.solve s));
    let s = Solver.create () in
    pigeonhole s ~pigeons:holes ~holes;
    check_bool
      (Printf.sprintf "PHP(%d,%d) sat" holes holes)
      true
      (is_sat (Solver.solve s))
  done

(* --- random 3-SAT vs. brute force ------------------------------------ *)

(* Decode a deterministic instance from a QCheck integer seed: [nv]
   variables, [nc] clauses of 3 literals each. *)
let random_instance seed =
  let rng = Stc_util.Rng.create seed in
  let nv = 2 + Stc_util.Rng.int rng 8 (* 2..9 *) in
  let nc = 1 + Stc_util.Rng.int rng 32 (* 1..32 *) in
  let clause () =
    List.init 3 (fun _ ->
        let v = Stc_util.Rng.int rng nv in
        (2 * v) + Stc_util.Rng.int rng 2)
  in
  (nv, List.init nc (fun _ -> clause ()))

let brute_force_sat nv clauses =
  let lit_true model l =
    let v = (model lsr (l lsr 1)) land 1 = 1 in
    if l land 1 = 0 then v else not v
  in
  let sat = ref false in
  for model = 0 to (1 lsl nv) - 1 do
    if
      (not !sat)
      && List.for_all (List.exists (fun l -> lit_true model l)) clauses
    then sat := true
  done;
  !sat

let test_random_3sat =
  QCheck.Test.make ~count:500 ~name:"CDCL agrees with brute force on 3-SAT"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let nv, clauses = random_instance seed in
      let s = Solver.create () in
      let _vars = Array.init nv (fun _ -> Solver.new_var s) in
      List.iter (Solver.add_clause s) clauses;
      let got = is_sat (Solver.solve s) in
      let want = brute_force_sat nv clauses in
      if got <> want then
        QCheck.Test.fail_reportf "seed %d: solver %b, oracle %b" seed got want;
      (* a Sat verdict must come with a genuine model *)
      if got then
        List.iter
          (fun c ->
            if not (List.exists (fun l -> Solver.value s l) c) then
              QCheck.Test.fail_reportf "seed %d: model violates a clause" seed)
          clauses;
      true)

(* --- incremental assumptions ----------------------------------------- *)

let test_assumptions () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s and c = Solver.new_var s in
  (* a -> b, b -> c *)
  Solver.add_clause s [ Solver.neg_of_var a; Solver.pos b ];
  Solver.add_clause s [ Solver.neg_of_var b; Solver.pos c ];
  check_bool "base sat" true (is_sat (Solver.solve s));
  check_bool "a & ~c unsat" false
    (is_sat (Solver.solve ~assumptions:[ Solver.pos a; Solver.neg_of_var c ] s));
  check_bool "still sat under a alone" true
    (is_sat (Solver.solve ~assumptions:[ Solver.pos a ] s));
  check_bool "implied b" true (Solver.value s (Solver.pos b));
  (* clauses may arrive between solves *)
  Solver.add_clause s [ Solver.neg_of_var c ];
  check_bool "a now contradicts" false
    (is_sat (Solver.solve ~assumptions:[ Solver.pos a ] s));
  check_bool "sat without assumptions" true (is_sat (Solver.solve s))

let test_unsat_core () =
  let s = Solver.create () in
  let v = Array.init 6 (fun _ -> Solver.new_var s) in
  (* chain: v0 -> v1 -> v2 *)
  Solver.add_clause s [ Solver.neg_of_var v.(0); Solver.pos v.(1) ];
  Solver.add_clause s [ Solver.neg_of_var v.(1); Solver.pos v.(2) ];
  let assumptions =
    [
      Solver.pos v.(3);
      Solver.pos v.(0);
      Solver.pos v.(4);
      Solver.neg_of_var v.(2);
      Solver.pos v.(5);
    ]
  in
  check_bool "unsat under assumptions" false
    (is_sat (Solver.solve ~assumptions s));
  let core = Solver.unsat_core s in
  (* the core must be a subset of the assumptions ... *)
  List.iter
    (fun l ->
      check_bool "core lit is an assumption" true (List.mem l assumptions))
    core;
  (* ... that does not mention the irrelevant assumptions ... *)
  check_bool "v3 irrelevant" false (List.mem (Solver.pos v.(3)) core);
  check_bool "v4 irrelevant" false (List.mem (Solver.pos v.(4)) core);
  check_bool "v5 irrelevant" false (List.mem (Solver.pos v.(5)) core);
  (* ... and must itself refute the instance *)
  check_bool "core refutes" false (is_sat (Solver.solve ~assumptions:core s));
  (* contradictory instances report an empty core *)
  let s = Solver.create () in
  let a = Solver.new_var s in
  Solver.add_clause s [ Solver.pos a ];
  Solver.add_clause s [ Solver.neg_of_var a ];
  check_bool "contradiction" false
    (is_sat (Solver.solve ~assumptions:[ Solver.pos a ] s));
  check_int "empty core" 0 (List.length (Solver.unsat_core s))

(* --- Tseitin encoding vs. Netlist.eval ------------------------------- *)

let reference_net () =
  let b = B.create "ref" in
  let a = B.input b "a" in
  let bb = B.input b "b" in
  let c = B.input b "c" in
  let ab = B.and_ b [ a; bb ] in
  let nc = B.not_ b c in
  let f = B.or_ b [ ab; nc ] in
  let g = B.xor_ b [ a; c; bb ] in
  let m = B.mux b ~sel:c ~a:ab ~b:g in
  B.output b "f" f;
  B.output b "g" g;
  B.output b "m" m;
  B.finish b

(* Check the encoding of [net] (with [fault] injected) against eval on
   every input minterm, by solving under input-fixing assumptions. *)
let check_encoding ?fault net =
  let s = Solver.create () in
  let n_in = Array.length net.N.inputs in
  let inputs = Cnf.fresh_inputs s n_in in
  let lits = Cnf.add_netlist s ?fault net ~inputs in
  let outs = Cnf.outputs net lits in
  for v = 0 to (1 lsl n_in) - 1 do
    let in_words = Array.init n_in (fun k -> (v lsr k) land 1) in
    let want = N.eval_outputs ?fault net ~inputs:in_words in
    let assumptions =
      List.init n_in (fun k ->
          if in_words.(k) = 1 then inputs.(k) else Solver.negate inputs.(k))
    in
    check_bool "encoding consistent" true
      (is_sat (Solver.solve ~assumptions s));
    Array.iteri
      (fun o l ->
        check_bool
          (Printf.sprintf "output %d at minterm %d" o v)
          (want.(o) land 1 = 1) (Solver.value s l))
      outs
  done

let test_tseitin_good () = check_encoding (reference_net ())

let test_tseitin_faulty () =
  let net = reference_net () in
  List.iter (fun fault -> check_encoding ~fault net) (N.fault_sites net)

(* --- redundant-fault proofs vs. exhaustive simulation ----------------- *)

(* Oracle: a fault is testable iff some input minterm flips some
   observed gate (default: the primary outputs).  Every SAT verdict must
   agree, in both directions. *)
let exhaustive_testable ?observed net fault =
  let observed =
    match observed with
    | Some o -> o
    | None -> Array.map snd net.N.outputs
  in
  (* minterm [base + lane] rides in bit lane [lane] of every input word *)
  let n_in = Array.length net.N.inputs in
  let total = 1 lsl n_in in
  let testable = ref false in
  let base = ref 0 in
  while (not !testable) && !base < total do
    let lanes = min N.word_bits (total - !base) in
    let inputs =
      Array.init n_in (fun k ->
          let w = ref 0 in
          for lane = 0 to lanes - 1 do
            if ((!base + lane) lsr k) land 1 = 1 then w := !w lor (1 lsl lane)
          done;
          !w)
    in
    let mask = (1 lsl lanes) - 1 in
    let good = N.eval net ~inputs in
    let bad = N.eval ~fault net ~inputs in
    if Array.exists (fun g -> (good.(g) lxor bad.(g)) land mask <> 0) observed
    then testable := true;
    base := !base + lanes
  done;
  !testable

(* A netlist with a genuinely redundant region: f = (a & b) | (a & ~b)
   collapses to a, so several faults in the two-cube implementation are
   untestable. *)
let redundant_net () =
  let b = B.create "red" in
  let a = B.input b "a" in
  let bb = B.input b "b" in
  let nb = B.not_ b bb in
  let t1 = B.and_ b [ a; bb ] in
  let t2 = B.and_ b [ a; nb ] in
  let f = B.or_ b [ t1; t2 ] in
  B.output b "f" f;
  B.finish b

let check_prove_vs_sim ?(jobs = 1) net =
  let v = Prove.redundant ~jobs net in
  let in_list = List.mem in
  List.iter
    (fun fault ->
      let untestable_by_sat = in_list fault v.Prove.redundant in
      let testable_by_sim = exhaustive_testable net fault in
      if untestable_by_sat && testable_by_sim then
        Alcotest.failf "fault on gate %d proven redundant but simulable"
          fault.N.gate;
      if (not untestable_by_sat) && not testable_by_sim then
        Alcotest.failf "fault on gate %d testable by SAT but not by simulation"
          fault.N.gate)
    (N.fault_sites net);
  v

let test_prove_vs_sim () =
  let v = check_prove_vs_sim (redundant_net ()) in
  check_bool "found redundancy" true (List.length v.Prove.redundant > 0);
  ignore (check_prove_vs_sim (reference_net ()))

(* Counter deltas of one [Prove.redundant] run: how many classes the
   simulation stage settled and how many SAT solves the rest took. *)
let with_stage_counters f =
  let module Metrics = Stc_obs.Metrics in
  let read c = Metrics.counter_value (Metrics.counter c) in
  let was = Metrics.enabled () in
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled was) @@ fun () ->
  let d0 = read "sat.redundant.sim_detected" and s0 = read "sat.solves" in
  let v = f () in
  (v, read "sat.redundant.sim_detected" - d0, read "sat.solves" - s0)

(* [redundant_net] past the dense engine's point bound: 21 more inputs
   feed an XOR output, whose every fault any random pattern detects with
   probability 1/2, so the untestable classes are the same. *)
let redundant_net_wide () =
  let b = B.create "red-wide" in
  let a = B.input b "a" in
  let bb = B.input b "b" in
  let nb = B.not_ b bb in
  let t1 = B.and_ b [ a; bb ] in
  let t2 = B.and_ b [ a; nb ] in
  B.output b "f" (B.or_ b [ t1; t2 ]);
  let pads = List.init 21 (fun k -> B.input b (Printf.sprintf "p%d" k)) in
  B.output b "parity" (B.xor_ b pads);
  B.finish b

(* Every redundant class of [redundant_net_wide] survives simulation (no
   pattern detects an untestable fault) and is settled UNSAT by a
   solve of its own. *)
let test_prove_redundant_reach_sat () =
  let net = redundant_net_wide () in
  let v, sim_detected, solves =
    with_stage_counters (fun () -> Prove.redundant net)
  in
  check_bool "found redundancy" true (v.Prove.redundant_classes > 0);
  check_int "none settled structurally" 0 v.Prove.unobservable_classes;
  check_int "simulation settles exactly the testable classes"
    (v.Prove.total_classes - v.Prove.redundant_classes)
    sim_detected;
  check_int "one solve per redundant class" v.Prove.redundant_classes solves

(* Under the bound the same classes are settled by grading on every
   input point, without a solve. *)
let test_prove_redundant_dense () =
  let net = redundant_net () in
  let v, sim_detected, solves =
    with_stage_counters (fun () -> Prove.redundant net)
  in
  let wide = Prove.redundant (redundant_net_wide ()) in
  check_int "same untestable classes" wide.Prove.redundant_classes
    v.Prove.redundant_classes;
  check_int "graded classes detected"
    (v.Prove.total_classes - v.Prove.redundant_classes)
    sim_detected;
  check_int "no solve" 0 solves

(* The output s-a-0 of a 24-input AND has one test in 2^24 patterns:
   random simulation cannot find it, so SAT must, and must call it
   testable.  The inputs also feed an OR, so they are fanout stems and
   every AND/OR pin fault stays a class of its own whose one test SAT
   must find too. *)
let test_prove_wide_and () =
  let b = B.create "and24" in
  let xs = List.init 24 (fun k -> B.input b (Printf.sprintf "x%d" k)) in
  let out = B.and_ b xs in
  B.output b "f" out;
  B.output b "g" (B.or_ b xs);
  let net = B.finish b in
  let v, sim_detected, solves =
    with_stage_counters (fun () -> Prove.redundant net)
  in
  check_bool "s-a-0 testable" false
    (List.mem { N.gate = out; pin = None; stuck_at = false } v.Prove.redundant);
  check_int "no fault redundant" 0 (List.length v.Prove.redundant);
  check_bool "some class left to SAT" true (solves > 0);
  check_int "every undetected class solved" solves
    (v.Prove.total_classes - sim_detected)

(* Random combinational netlists of at most 10 inputs; roughly half the
   cases observe a few internal gates instead of the primary outputs. *)
let random_net seed =
  let rng = Stc_util.Rng.create seed in
  let b = B.create "rand" in
  let n_in = 1 + Stc_util.Rng.int rng 10 in
  let gates =
    ref (Array.init n_in (fun k -> B.input b (Printf.sprintf "i%d" k)))
  in
  let pick () = Stc_util.Rng.pick rng !gates in
  for _ = 1 to 3 + Stc_util.Rng.int rng 20 do
    let ops () = List.init (1 + Stc_util.Rng.int rng 3) (fun _ -> pick ()) in
    let g =
      match Stc_util.Rng.int rng 5 with
      | 0 -> B.and_ b (ops ())
      | 1 -> B.or_ b (ops ())
      | 2 -> B.xor_ b (ops ())
      | 3 -> B.mux b ~sel:(pick ()) ~a:(pick ()) ~b:(pick ())
      | _ -> B.not_ b (pick ())
    in
    gates := Array.append !gates [| g |]
  done;
  B.output b "f" !gates.(Array.length !gates - 1);
  if Stc_util.Rng.bool rng then B.output b "g" (pick ());
  let net = B.finish b in
  let observed =
    if Stc_util.Rng.bool rng then None
    else Some (Array.init (1 + Stc_util.Rng.int rng 3) (fun _ -> pick ()))
  in
  (net, observed)

let test_prove_random_vs_exhaustive =
  QCheck.Test.make ~count:300
    ~name:"Prove.redundant agrees with exhaustive simulation"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let net, observed = random_net seed in
      List.iter
        (fun jobs ->
          let v = Prove.redundant ~jobs ?observed net in
          List.iter
            (fun fault ->
              let proved = List.mem fault v.Prove.redundant in
              if proved = exhaustive_testable ?observed net fault then
                QCheck.Test.fail_reportf
                  "seed %d, jobs %d: gate %d pin %s s-a-%d: prover says %s"
                  seed jobs fault.N.gate
                  (match fault.N.pin with
                  | None -> "out"
                  | Some k -> string_of_int k)
                  (Bool.to_int fault.N.stuck_at)
                  (if proved then "untestable" else "testable"))
            (N.fault_sites net))
        [ 1; 4 ];
      true)

(* The same random netlist decided densely and, padded with unused
   inputs past the point bound, by SAT: the untestable lists agree once
   the pads' own (unobservable) faults are dropped. *)
let test_prove_dense_vs_sat =
  QCheck.Test.make ~count:200 ~name:"dense and SAT untestable lists agree"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let net, observed = random_net seed in
      let wide = Rebuild.copy ~pads:Rebuild.past_bound net in
      let dense = Prove.redundant ?observed net in
      let sat = Prove.redundant ?observed wide in
      let own =
        List.filter (fun f -> f.N.gate < N.num_gates net) sat.Prove.redundant
      in
      dense.Prove.redundant = own
      || QCheck.Test.fail_reportf "seed %d: the engines disagree" seed)

let test_prove_jobs_deterministic () =
  let net = redundant_net () in
  let a = Prove.redundant ~jobs:1 net in
  let b = Prove.redundant ~jobs:4 net in
  check_bool "redundant list independent of jobs" true
    (a.Prove.redundant = b.Prove.redundant);
  check_int "classes agree" a.Prove.redundant_classes b.Prove.redundant_classes

(* --- cover encoder ---------------------------------------------------- *)

let test_cover_encoding () =
  let on =
    Cover.of_strings ~num_vars:3 ~num_outputs:2
      [ "11- 10"; "--0 01"; "001 11" ]
  in
  let s = Solver.create () in
  let inputs = Cnf.fresh_inputs s 3 in
  let outs = Cnf.add_cover s on ~inputs in
  for v = 0 to 7 do
    let bits = Array.init 3 (fun k -> (v lsr (2 - k)) land 1) in
    (* variable 0 is the leftmost position, minterm bit num_vars-1-k *)
    let assumptions =
      List.init 3 (fun k ->
          if bits.(k) = 1 then inputs.(k) else Solver.negate inputs.(k))
    in
    check_bool "cover enc sat" true (is_sat (Solver.solve ~assumptions s));
    let want o =
      Array.exists
        (fun c -> Stc_logic.Cube.matches c v && Stc_logic.Cube.output_bit c o)
        on.Cover.cubes
    in
    Array.iteri
      (fun o l ->
        check_bool
          (Printf.sprintf "cover out %d at %d" o v)
          (want o) (Solver.value s l))
      outs
  done

let () =
  Alcotest.run "sat"
    [
      ( "solver",
        [
          Alcotest.test_case "pigeonhole" `Quick test_pigeonhole;
          qcheck test_random_3sat;
          Alcotest.test_case "assumptions" `Quick test_assumptions;
          Alcotest.test_case "unsat core" `Quick test_unsat_core;
        ] );
      ( "cnf",
        [
          Alcotest.test_case "tseitin good" `Quick test_tseitin_good;
          Alcotest.test_case "tseitin faulty" `Quick test_tseitin_faulty;
          Alcotest.test_case "cover encoding" `Quick test_cover_encoding;
        ] );
      ( "prove",
        [
          Alcotest.test_case "vs exhaustive sim" `Quick test_prove_vs_sim;
          Alcotest.test_case "jobs deterministic" `Quick
            test_prove_jobs_deterministic;
          Alcotest.test_case "redundant faults reach SAT" `Quick
            test_prove_redundant_reach_sat;
          Alcotest.test_case "redundant faults decided densely" `Quick
            test_prove_redundant_dense;
          Alcotest.test_case "wide AND needs SAT" `Quick test_prove_wide_and;
          qcheck test_prove_random_vs_exhaustive;
          qcheck test_prove_dense_vs_sat;
        ] );
    ]
