module Machine = Stc_fsm.Machine
module Zoo = Stc_fsm.Zoo
module Cube = Stc_logic.Cube
module Cover = Stc_logic.Cover
module B = Stc_netlist.Netlist.Builder
module Json = Stc_obs.Json
module D = Stc_analysis.Diagnostic
module Context = Stc_analysis.Context
module Fsm_lint = Stc_analysis.Fsm_lint
module Cover_lint = Stc_analysis.Cover_lint
module Netgraph = Stc_analysis.Netgraph
module Lint = Stc_analysis.Lint

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let codes diags = List.map (fun d -> d.D.code) diags

let has_code code diags = List.exists (fun d -> d.D.code = code) diags

let errors_with code diags =
  List.filter (fun d -> d.D.code = code && d.D.severity = D.Error) diags

(* --- seeded fault: unreachable state ----------------------------------- *)

(* 3-state machine where s2 has no incoming transition: FSM001 must name
   it.  (s0 <-> s1 on both inputs; s2 is an orphan copy of s0.) *)
let orphan_machine () =
  Machine.make ~name:"orphan" ~num_states:3 ~num_inputs:2 ~num_outputs:2
    ~next:[| [| 1; 1 |]; [| 0; 0 |]; [| 1; 1 |] |]
    ~output:[| [| 0; 1 |]; [| 1; 0 |]; [| 0; 1 |] |]
    ()

let test_fsm_unreachable () =
  let diags = Fsm_lint.lint_machine ~subject:"orphan" (orphan_machine ()) in
  let hits =
    List.filter (fun d -> d.D.code = "FSM001") diags
  in
  check_int "one unreachable state" 1 (List.length hits);
  let d = List.hd hits in
  check_bool "severity is warning" true (d.D.severity = D.Warning);
  check_bool "names s2" true (d.D.loc = "state s2")

let test_fsm_clean_machine () =
  (* The toggle FF is reachable, reduced, connected: no FSM001/FSM002. *)
  let diags = Fsm_lint.lint_machine ~subject:"toggle" (Zoo.toggle ()) in
  check_bool "no unreachable" false (has_code "FSM001" diags);
  check_bool "no equivalent states" false (has_code "FSM002" diags)

let test_fsm_equivalent_states () =
  (* s2 behaves exactly like s0 but is reachable: FSM002, not FSM001. *)
  let m =
    Machine.make ~name:"redundant" ~num_states:3 ~num_inputs:2 ~num_outputs:2
      ~next:[| [| 1; 1 |]; [| 2; 0 |]; [| 1; 1 |] |]
      ~output:[| [| 0; 1 |]; [| 1; 0 |]; [| 0; 1 |] |]
      ()
  in
  let diags = Fsm_lint.lint_machine ~subject:"redundant" m in
  check_bool "FSM002 fires" true (has_code "FSM002" diags);
  check_bool "no FSM001" false (has_code "FSM001" diags)

let test_kiss_nondeterministic () =
  (* Two rows bind (s0, input 1) to different successors: FSM005 error. *)
  let text = ".i 1\n.o 1\n.p 3\n1 s0 s1 1\n1 s0 s0 0\n0 s0 s0 0\n" in
  let diags = Lint.lint_kiss_text ~name:"conflict" text |> snd in
  check_bool "FSM005 fires" true
    (errors_with "FSM005" diags <> [])

let test_kiss_incomplete () =
  (* (s1, 1) is unspecified: FSM006 warning, still parseable by policy. *)
  let text = ".i 1\n.o 1\n1 s0 s1 1\n0 s0 s0 0\n0 s1 s0 1\n" in
  let ctx, diags = Lint.lint_kiss_text ~name:"partial" text in
  check_bool "parses" true (ctx <> None);
  check_bool "FSM006 fires" true (has_code "FSM006" diags)

(* --- seeded fault: conflicting cube pair ------------------------------- *)

let cube input output =
  Cube.make
    ~input:(Array.map (function
                | '0' -> Cube.Zero
                | '1' -> Cube.One
                | _ -> Cube.Dc)
              (Array.init (String.length input) (String.get input)))
    ~output:(Array.map (( = ) '1')
               (Array.init (String.length output) (String.get output)))

let test_cover_conflict () =
  (* Specification: f = x1 (on-set {10,11}).  Implementation cube --/1
     also asserts f on the off-set {00,01}: COV001. *)
  let on = Cover.make ~num_vars:2 ~num_outputs:1 [ cube "1-" "1" ] in
  let dc = Cover.make ~num_vars:2 ~num_outputs:1 [] in
  let result = Cover.make ~num_vars:2 ~num_outputs:1 [ cube "--" "1" ] in
  let diags = Cover_lint.check_block ~subject:"blk" ~on ~dc result in
  check_bool "COV001 fires" true (errors_with "COV001" diags <> []);
  check_bool "no COV002" false (has_code "COV002" diags)

let test_cover_uncovered () =
  (* Implementation drops the on-set minterm 11: COV002. *)
  let on = Cover.make ~num_vars:2 ~num_outputs:1 [ cube "1-" "1" ] in
  let dc = Cover.make ~num_vars:2 ~num_outputs:1 [] in
  let result = Cover.make ~num_vars:2 ~num_outputs:1 [ cube "10" "1" ] in
  let diags = Cover_lint.check_block ~subject:"blk" ~on ~dc result in
  check_bool "COV002 fires" true (errors_with "COV002" diags <> []);
  check_bool "no COV001" false (has_code "COV001" diags)

let test_cover_exact_is_clean () =
  let on = Cover.make ~num_vars:2 ~num_outputs:1 [ cube "1-" "1" ] in
  let dc = Cover.make ~num_vars:2 ~num_outputs:1 [ cube "01" "1" ] in
  let result = Cover.make ~num_vars:2 ~num_outputs:1 [ cube "1-" "1" ] in
  check_int "clean" 0
    (List.length (Cover_lint.check_block ~subject:"blk" ~on ~dc result))

let test_cover_duplicate_and_contained () =
  let c = Cover.make ~num_vars:2 ~num_outputs:1
      [ cube "1-" "1"; cube "1-" "1"; cube "11" "1" ]
  in
  let diags = Cover_lint.check_redundancy ~subject:"blk" c in
  check_bool "COV005 duplicate" true (has_code "COV005" diags);
  check_bool "COV004 contained" true (has_code "COV004" diags)

(* COV003 sees the rest of the cover plus dc, never the cube itself. *)
let test_cover_redundant_cube () =
  let mk rows = Cover.make ~num_vars:3 ~num_outputs:1 rows in
  let cov003 ?dc c =
    List.filter_map
      (fun d -> if d.D.code = "COV003" then Some d.D.loc else None)
      (Cover_lint.check_redundancy ~subject:"blk" ?dc c)
  in
  let consensus = mk [ cube "10-" "1"; cube "-11" "1"; cube "1-1" "1" ] in
  check_bool "consensus cube redundant" true (cov003 consensus = [ "cube 2" ]);
  check_bool "irredundant cover clean" true
    (cov003 (mk [ cube "10-" "1"; cube "-11" "1" ]) = []);
  check_bool "dc alone covers" true
    (cov003 ~dc:(mk [ cube "1--" "1" ]) (mk [ cube "11-" "1" ]) = [ "cube 0" ]);
  check_bool "a lone cube is not redundant" true (cov003 (mk [ cube "11-" "1" ]) = [])

(* --- seeded fault: deliberate feedback wire ---------------------------- *)

(* A fig. 1-shaped netlist by naming convention: register bit [r0] whose
   next-state net [ns0] depends on [r0] itself - the R->C->R path the
   prover must reject on a structure that claims to be feedback-free. *)
let feedback_netlist () =
  let b = B.create "seeded" in
  let i0 = B.input b "i0" in
  let r0 = B.input b "r0" in
  let g = B.and_ b [ i0; r0 ] in
  B.output b "ns0" g;
  B.output b "po0" (B.not_ b r0);
  B.finish b

(* The fig. 4 shape: R1 feeds only C1 -> R2, R2 feeds only C2 -> R1. *)
let pipeline_netlist () =
  let b = B.create "pipe" in
  let i0 = B.input b "i0" in
  let r1 = B.input b "r1_0" in
  let r2 = B.input b "r2_0" in
  B.output b "r2n0" (B.and_ b [ i0; r1 ]);
  B.output b "r1n0" (B.or_ b [ i0; r2 ]);
  B.output b "po0" (B.buf b r2);
  B.finish b

let test_prover_rejects_feedback () =
  let diags =
    Netgraph.prove_pipeline ~subject:"seeded" ~required:true
      (feedback_netlist ())
  in
  check_bool "NET010 error" true (errors_with "NET010" diags <> []);
  check_bool "no NET011" false (has_code "NET011" diags)

let test_prover_feedback_note_when_expected () =
  (* Same netlist, but feedback is the expected fig. 1 structure: the
     finding demotes to a note and the run stays error-free. *)
  let diags =
    Netgraph.prove_pipeline ~subject:"seeded" ~required:false
      (feedback_netlist ())
  in
  check_bool "NET010 present" true (has_code "NET010" diags);
  check_int "no errors" 0 (D.count D.Error diags)

let test_prover_certifies_pipeline () =
  let diags =
    Netgraph.prove_pipeline ~subject:"pipe" ~required:true
      (pipeline_netlist ())
  in
  check_bool "NET011 certificate" true (has_code "NET011" diags);
  check_bool "no NET010" false (has_code "NET010" diags)

let test_tarjan_cycles () =
  (* 0 -> 1 -> 2 -> 0, 3 -> 4, 5 self-loop: two genuine cycles. *)
  let succ = function
    | 0 -> [ 1 ]
    | 1 -> [ 2 ]
    | 2 -> [ 0 ]
    | 3 -> [ 4 ]
    | 5 -> [ 5 ]
    | _ -> []
  in
  let cyclic = Netgraph.cyclic_sccs ~n:6 ~succ in
  check_int "two cycles" 2 (List.length cyclic);
  check_bool "ring found" true (List.mem [ 0; 1; 2 ] cyclic);
  check_bool "self-loop found" true (List.mem [ 5 ] cyclic);
  let all = Netgraph.sccs ~n:6 ~succ in
  check_int "six nodes partitioned" 6
    (List.fold_left (fun n c -> n + List.length c) 0 all)

let test_netlist_structure_checks () =
  let b = B.create "floaty" in
  let x = B.input b "x" in
  let _unused = B.input b "y" in
  let dead = B.not_ b x in
  let _dead2 = B.and_ b [ dead; x ] in
  B.output b "o" (B.buf b x);
  let diags = Netgraph.structure ~subject:"floaty" (B.finish b) in
  check_bool "NET002 floating gates" true (has_code "NET002" diags);
  check_bool "NET004 unused input" true (has_code "NET004" diags);
  check_bool "no cycle" false (has_code "NET001" diags)

(* --- end-to-end: prover over the zoo ----------------------------------- *)

let zoo_machines () =
  [
    Zoo.paper_fig5 ();
    Zoo.shift_register ~bits:3;
    Zoo.counter ~modulus:5;
    Zoo.toggle ();
    Zoo.serial_adder ();
    Zoo.parity ();
  ]

let test_zoo_certified () =
  List.iter
    (fun m ->
      let _ctx, diags = Lint.lint_machine m in
      check_int (m.Machine.name ^ " has zero errors") 0
        (D.count D.Error diags);
      check_bool (m.Machine.name ^ " certified") true
        (List.exists
           (fun d -> d.D.code = "NET011" && d.D.severity = D.Info)
           diags))
    (zoo_machines ())

let test_conventional_fails_prover () =
  (* The fig. 1 realization has the R -> C -> R feedback by construction;
     requiring the pipeline property of it must fail. *)
  let ctx = Context.of_machine ~conventional:true (Zoo.paper_fig5 ()) in
  let fig1 =
    List.find (fun t -> t.Context.net_label = "fig1") ctx.Context.netlists
  in
  check_bool "fig1 is not required-feedback-free" false
    fig1.Context.feedback_free;
  let diags =
    Netgraph.prove_pipeline ~subject:"fig5/fig1" ~required:true
      fig1.Context.netlist
  in
  check_bool "NET010 error on fig1" true (errors_with "NET010" diags <> []);
  (* ... while the same machine's fig4 netlist is certified. *)
  let fig4 =
    List.find (fun t -> t.Context.net_label = "fig4") ctx.Context.netlists
  in
  let diags =
    Netgraph.prove_pipeline ~subject:"fig5/fig4" ~required:true
      fig4.Context.netlist
  in
  check_bool "NET011 on fig4" true (has_code "NET011" diags)

(* --- determinism ------------------------------------------------------- *)

let render diags = Format.asprintf "%a" D.pp_report diags

let test_reports_sorted_and_stable () =
  let m = Zoo.paper_fig5 () in
  let _, d1 = Lint.lint_machine m in
  let _, d2 = Lint.lint_machine m in
  (* Output is already in canonical order... *)
  check_bool "sorted" true (D.sort d1 = d1);
  (* ... and byte-stable across runs, in text and in JSON. *)
  check_string "text stable" (render d1) (render d2);
  check_string "json stable"
    (Json.to_string (D.report_to_json ~subject:"fig5" d1))
    (Json.to_string (D.report_to_json ~subject:"fig5" d2))

let test_sort_orders_by_subject_code_loc () =
  let d ~code ~subject ~loc = D.warning ~code ~subject ~loc "m" in
  let a = d ~code:"FSM001" ~subject:"b" ~loc:"x" in
  let b = d ~code:"COV001" ~subject:"b" ~loc:"x" in
  let c = d ~code:"FSM001" ~subject:"a" ~loc:"y" in
  let e = d ~code:"FSM001" ~subject:"a" ~loc:"x" in
  check_bool "ordered" true
    (D.sort [ a; b; c; e ] = [ e; c; b; a ]);
  check_bool "dedup" true (D.sort [ a; a; a ] = [ a ])

let test_json_report_shape () =
  let diags =
    [ D.error ~code:"COV001" ~subject:"m/c1" ~loc:"cube 0" "conflict" ]
  in
  let json = D.report_to_json ~subject:"m" diags in
  let s = Json.to_string json in
  let round = Json.parse_exn s in
  check_bool "machine field" true (Json.member "machine" round <> None);
  check_bool "diagnostics field" true
    (Json.member "diagnostics" round <> None);
  check_bool "summary field" true (Json.member "summary" round <> None)

let test_werror_gate () =
  let w = D.warning ~code:"FSM001" ~subject:"m" ~loc:"s" "w" in
  let e = D.error ~code:"COV001" ~subject:"m" ~loc:"s" "e" in
  let i = D.info ~code:"NET011" ~subject:"m" ~loc:"s" "i" in
  check_bool "info never fails" false (D.fails ~werror:true [ i ]);
  check_bool "warning passes" false (D.fails ~werror:false [ w; i ]);
  check_bool "warning fails under werror" true (D.fails ~werror:true [ w ]);
  check_bool "error always fails" true (D.fails ~werror:false [ e ])

let test_pass_registry () =
  (* Referencing Verify links it, which registers the SAT family. *)
  check_int "verify family size" 3 (List.length Stc_analysis.Verify.builtin);
  let names =
    List.map (fun p -> p.Stc_analysis.Pass.name) (Stc_analysis.Pass.all ())
  in
  check_int "all passes registered" 7 (List.length names);
  List.iter
    (fun n -> check_bool (n ^ " registered") true (List.mem n names))
    [
      "cec"; "cover-lint"; "fsm-lint"; "net-graph"; "net-prove";
      "sat-redundant"; "scoap";
    ];
  check_bool "name-sorted" true (List.sort compare names = names);
  (* The lint front door must ignore the verify family: its report on a
     context never contains a verification code. *)
  let ctx = Context.of_machine (Zoo.toggle ()) in
  let lint = Stc_analysis.Lint.run ctx in
  check_bool "lint excludes verify codes" false
    (List.exists
       (fun d ->
         List.exists
           (fun p -> String.length d.D.code >= 3 && String.sub d.D.code 0 3 = p)
           [ "CEC"; "RED" ]
         || d.D.code = "NET012")
       lint)

let test_verify_family () =
  (* End-to-end: every proof must certify the toggle machine's pipeline
     context, and parallel redundancy grading must not change the
     report. *)
  let ctx = Context.of_machine ~jobs:4 (Zoo.toggle ()) in
  let diags = Stc_analysis.Verify.run ctx in
  check_int "no errors" 0 (D.count D.Error diags);
  check_bool "cec certificate present" true
    (List.exists (fun d -> d.D.code = "CEC003") diags);
  check_bool "netlist certificate present" true
    (List.exists (fun d -> d.D.code = "CEC005") diags);
  check_bool "pipeline certificate present" true
    (List.exists (fun d -> d.D.code = "NET011") diags);
  check_bool "redundancy summary present" true
    (List.exists (fun d -> d.D.code = "RED002") diags);
  let seq = Stc_analysis.Verify.run (Context.of_machine ~jobs:1 (Zoo.toggle ())) in
  check_bool "jobs-invariant" true (seq = diags);
  (match Stc_analysis.Verify.run ~select:[ "no-such-pass" ] ctx with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown pass name accepted");
  let only_cec = Stc_analysis.Verify.run ~select:[ "cec" ] ctx in
  check_bool "selection restricts" false
    (List.exists (fun d -> d.D.code = "RED002") only_cec)

let test_verify_catches_bad_cover () =
  (* Seed a wrong minimized cover into a context block: CEC must refute
     it with a witness instead of certifying. *)
  let ctx = Context.of_machine (Zoo.toggle ()) in
  let b = List.hd ctx.Context.blocks in
  let wrong =
    (* complement of a correct implementation: drops the on-set and
       asserts the off-set wherever the dc-set allows *)
    let n = b.Context.on.Cover.num_vars in
    Cover.make ~num_vars:n ~num_outputs:b.Context.on.Cover.num_outputs
      [ Cube.of_string (String.make n '-' ^ " " ^ String.make
          b.Context.on.Cover.num_outputs '1') ]
  in
  let seeded = { b with Context.minimized = wrong } in
  let diags = Stc_analysis.Cec.check_block ~subject:"seeded" seeded in
  check_bool "off-set violation or dropped minterm reported" true
    (List.exists (fun d -> d.D.code = "CEC001" || d.D.code = "CEC002") diags);
  check_bool "witness included" true
    (List.exists
       (fun d ->
         d.D.severity = D.Error
         && (let msg = d.D.message in
             let has sub =
               let ls = String.length sub and lm = String.length msg in
               let rec go i = i + ls <= lm && (String.sub msg i ls = sub || go (i + 1)) in
               go 0
             in
             has "witness"))
       diags)

let test_scoap_summary_finite () =
  let ctx = Context.of_machine (Zoo.toggle ()) in
  let t = List.hd ctx.Context.netlists in
  let net = t.Context.netlist in
  let s = Stc_analysis.Scoap.summarize net (Stc_analysis.Scoap.analyze net) in
  check_int "everything controllable" 0 s.Stc_analysis.Scoap.uncontrollable;
  check_int "everything observable" 0 s.Stc_analysis.Scoap.unobservable;
  check_bool "cc0 positive" true (s.Stc_analysis.Scoap.cc0_max >= 1)

(* --- the synthesis flow ------------------------------------------------ *)

let benchmark name =
  match Stc_benchmarks.Suite.find name with
  | Some spec -> Stc_benchmarks.Suite.machine spec
  | None -> assert false

(* Figs. 1, 2 and 3 share one minimized block C: a context with every
   structure costs the three fig. 4 blocks plus one minimization. *)
let test_block_c_minimized_once () =
  let module Metrics = Stc_obs.Metrics in
  let calls = Metrics.counter "logic.minimize_calls" in
  let was_enabled = Metrics.enabled () in
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled was_enabled) @@ fun () ->
  List.iter
    (fun m ->
      let before = Metrics.counter_value calls in
      let ctx = Context.of_machine ~conventional:true ~all_archs:true m in
      check_int (m.Machine.name ^ ": minimize calls") 4
        (Metrics.counter_value calls - before);
      check_int (m.Machine.name ^ ": four structures") 4
        (List.length ctx.Context.netlists))
    [ Zoo.paper_fig5 (); benchmark "dk27" ]

(* [jobs] fans the minimizer over domains; the covers, and so the fig. 4
   netlist, must not depend on it. *)
let test_flow_jobs_invariant () =
  List.iter
    (fun name ->
      let m = benchmark name in
      let a = Context.of_machine ~jobs:1 m and b = Context.of_machine ~jobs:2 m in
      List.iter2
        (fun (x : Context.block) (y : Context.block) ->
          check_string
            (name ^ "/" ^ x.Context.block_label)
            (Cover.to_string x.Context.minimized)
            (Cover.to_string y.Context.minimized))
        a.Context.blocks b.Context.blocks;
      let net (ctx : Context.t) =
        Format.asprintf "%a" Stc_netlist.Netlist.pp ctx.Context.fig4.Stc_faultsim.Arch.netlist
      in
      check_string (name ^ ": fig4 netlist") (net a) (net b))
    [ "bbara"; "dk16" ]

(* Digests of the fig. 4 netlist and of its 1024-cycle session stimuli
   and observation points, recorded from the solve / encode / minimize /
   build chain before it was gathered into [Context]. *)
let test_fig4_pinned () =
  let sessions_text (built : Stc_faultsim.Arch.built) =
    let b = Buffer.create 65536 in
    List.iter
      (fun (stimuli, observed) ->
        Array.iter
          (fun v ->
            Array.iter (fun x -> Buffer.add_char b (if x = 0 then '0' else '1')) v;
            Buffer.add_char b '\n')
          stimuli;
        Array.iter (fun g -> Buffer.add_string b (string_of_int g ^ ",")) observed;
        Buffer.add_char b '|')
      built.Stc_faultsim.Arch.sessions;
    Buffer.contents b
  in
  let digest text = Digest.to_hex (Digest.string text) in
  List.iter
    (fun (name, net_digest, sessions_digest) ->
      let built = (Context.of_machine ~cycles:1024 (benchmark name)).Context.fig4 in
      check_string (name ^ ": netlist") net_digest
        (digest (Format.asprintf "%a" Stc_netlist.Netlist.pp built.Stc_faultsim.Arch.netlist));
      check_string (name ^ ": sessions") sessions_digest
        (digest (sessions_text built)))
    [
      ("bbara", "36bbe51a1ef0ecdf75616231e4ac8ca4", "e0a52f5b2dfca8f46f9efb70c2843e83");
      ("dk16", "66a4c8a5253588152b1da456c80994b5", "762686c36e80ac0bd99ebab549e03d1c");
      ("dk512", "c9ed541182672b18d5a2f4bf70873601", "c08dd1a8a1e2ebcb988dde45397b2418");
    ]

(* A wrong C1 cover (one cube dropped: IRREDUNDANT kept each cube for a
   care point only it covers) built into fig. 4: the cover checker
   refutes the block and the SAT proof refutes the netlist. *)
let test_verify_catches_bad_fig4 () =
  let ctx = Context.of_machine (benchmark "dk27") in
  let block label =
    List.find (fun b -> b.Context.block_label = label) ctx.Context.blocks
  in
  let c1 = block "c1" and c2 = block "c2" and lambda = block "lambda" in
  let m = c1.Context.minimized in
  let wrong =
    Cover.make ~num_vars:m.Cover.num_vars ~num_outputs:m.Cover.num_outputs
      (List.tl (Array.to_list m.Cover.cubes))
  in
  let fig4 =
    Stc_faultsim.Arch.pipeline
      ~covers:(wrong, c2.Context.minimized, lambda.Context.minimized)
      ctx.Context.tables
  in
  let seeded =
    {
      ctx with
      Context.blocks = [ { c1 with Context.minimized = wrong }; c2; lambda ];
      fig4;
      netlists =
        [
          {
            Context.net_label = "fig4";
            netlist = fig4.Stc_faultsim.Arch.netlist;
            built = fig4;
            feedback_free = true;
          };
        ];
    }
  in
  let diags = Stc_analysis.Verify.run ~select:[ "cec" ] seeded in
  let on subject code =
    List.exists
      (fun d -> d.D.code = code && d.D.subject = Context.subject ctx subject)
      diags
  in
  check_bool "c1 refuted by the checker" true (on "c1" "CEC001" || on "c1" "CEC002");
  check_bool "c1 not certified" false (on "c1" "CEC003");
  check_bool "c2 certified" true (on "c2" "CEC003");
  check_bool "fig4 refuted by SAT" true (on "fig4" "CEC004");
  check_bool "fig4's c1 group not certified" false
    (List.exists (fun d -> d.D.code = "CEC005" && d.D.loc = "c1") diags)

let () =
  ignore codes;
  Alcotest.run "stc_analysis"
    [
      ( "fsm-lint",
        [
          Alcotest.test_case "seeded unreachable state" `Quick
            test_fsm_unreachable;
          Alcotest.test_case "clean machine" `Quick test_fsm_clean_machine;
          Alcotest.test_case "equivalent states" `Quick
            test_fsm_equivalent_states;
          Alcotest.test_case "nondeterministic kiss" `Quick
            test_kiss_nondeterministic;
          Alcotest.test_case "incomplete kiss" `Quick test_kiss_incomplete;
        ] );
      ( "cover-lint",
        [
          Alcotest.test_case "seeded conflicting cube" `Quick
            test_cover_conflict;
          Alcotest.test_case "uncovered minterm" `Quick test_cover_uncovered;
          Alcotest.test_case "exact cover is clean" `Quick
            test_cover_exact_is_clean;
          Alcotest.test_case "duplicate and contained cubes" `Quick
            test_cover_duplicate_and_contained;
          Alcotest.test_case "COV003 redundant cube" `Quick
            test_cover_redundant_cube;
        ] );
      ( "net-graph",
        [
          Alcotest.test_case "seeded feedback wire rejected" `Quick
            test_prover_rejects_feedback;
          Alcotest.test_case "feedback is a note when expected" `Quick
            test_prover_feedback_note_when_expected;
          Alcotest.test_case "pipeline shape certified" `Quick
            test_prover_certifies_pipeline;
          Alcotest.test_case "tarjan cycles" `Quick test_tarjan_cycles;
          Alcotest.test_case "floating gates and unused inputs" `Quick
            test_netlist_structure_checks;
        ] );
      ( "prover-end-to-end",
        [
          Alcotest.test_case "zoo realizations certified" `Slow
            test_zoo_certified;
          Alcotest.test_case "conventional fig1 fails prover" `Quick
            test_conventional_fails_prover;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "reports sorted and byte-stable" `Quick
            test_reports_sorted_and_stable;
          Alcotest.test_case "sort key subject-code-loc" `Quick
            test_sort_orders_by_subject_code_loc;
          Alcotest.test_case "json report shape" `Quick test_json_report_shape;
          Alcotest.test_case "werror gate" `Quick test_werror_gate;
          Alcotest.test_case "pass registry" `Quick test_pass_registry;
          Alcotest.test_case "scoap summary" `Quick test_scoap_summary_finite;
        ] );
      ( "flow",
        [
          Alcotest.test_case "block C minimized once" `Quick
            test_block_c_minimized_once;
          Alcotest.test_case "jobs-invariant blocks and netlist" `Quick
            test_flow_jobs_invariant;
          Alcotest.test_case "fig4 netlist and sessions pinned" `Quick
            test_fig4_pinned;
        ] );
      ( "verify",
        [
          Alcotest.test_case "family certifies toggle" `Quick
            test_verify_family;
          Alcotest.test_case "cec refutes a wrong cover" `Quick
            test_verify_catches_bad_cover;
          Alcotest.test_case "cec refutes a wrong fig4 c1" `Quick
            test_verify_catches_bad_fig4;
        ] );
    ]
