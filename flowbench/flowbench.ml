(* Helper of the flow benchmark (driven by run.py, see README.md).  Four
   subcommands, each printing one JSON object as its last stdout line:

     flowbench gen WORKLOAD SEED DIR
       build the workload's machines, then write them as KISS2 files into
       DIR and load each once; repeat the writing and loading for at least
       [setup_seconds] and [setup_min_reps] repetitions and report every
       repetition's wall time.
     flowbench trace WORKLOAD TRACE_OUT FILE...
       run the flow in-process, calling each layer's public functions in
       the order the ostr command does, and time every call from here.
       The spans stay in memory and are written to TRACE_OUT at the end;
       every accumulated figure is printed, and run.py keeps the ones
       BENCHMARK.json names.
     flowbench oracle WORKLOAD FILE[=VERIFY_JSON]...
       reference cross-checks that are run outside any timed region.
     flowbench calibrate
       time a fixed amount of plain Stdlib work: the machine's current
       speed, by which run.py rescales the commands' wall times.

   No span or counter is added inside lib/: per-layer numbers are the
   wall time, GC allocation and Stc_obs.Metrics counter deltas measured
   around each call. *)

module Machine = Stc_fsm.Machine
module Kiss = Stc_fsm.Kiss
module Suite = Stc_benchmarks.Suite
module Solver = Stc_core.Solver
module Anytime = Stc_core.Anytime
module Realization = Stc_core.Realization
module Tables = Stc_encoding.Tables
module Cover = Stc_logic.Cover
module Minimize = Stc_logic.Minimize
module Netlist = Stc_netlist.Netlist
module Arch = Stc_faultsim.Arch
module Session = Stc_faultsim.Session
module Context = Stc_analysis.Context
module Verify = Stc_analysis.Verify
module Diagnostic = Stc_analysis.Diagnostic
module Metrics = Stc_obs.Metrics
module Json = Stc_obs.Json
module Clock = Stc_util.Clock

let print_json v = print_endline (Json.to_string v)

(* ------------------------------------------------------------------ *)
(* Workload inputs                                                     *)
(* ------------------------------------------------------------------ *)

(* The paper corpus is fixed; the seed only picks the planted machines.
   s1 and tbk are left out of the corpus workload (tbk has its own).
   Three planted instances per size, because one instance's peak heap
   depends on the seed by up to a factor of two. *)
let inputs workload seed =
  let paper name = (name, Suite.machine (Option.get (Suite.find name))) in
  let planted n k =
    let spec = Printf.sprintf "planted:%dx4@%d" n k in
    (Printf.sprintf "planted%d-%d" n k, Option.get (Stc_fsm.Generate.of_spec spec))
  in
  let base = 3 * (seed land 0xfffffff) in
  match workload with
  | "selftest-corpus" ->
    List.map paper (List.filter (fun n -> n <> "s1" && n <> "tbk") Suite.names)
  | "selftest-tbk" -> [ paper "tbk" ]
  | "verify-sat" -> [ paper "bbara"; paper "dk16" ]
  | "anytime-planted" ->
    List.concat_map (fun n -> List.init 3 (fun j -> planted n (base + j))) [ 1024; 2048 ]
  | w -> failwith ("unknown workload " ^ w)

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

(* The set-up takes milliseconds and is repeated for a second, so that
   some repetitions run while the machine's other work leaves it alone
   (run.py reports the fastest). *)
let setup_seconds = 1.0
let setup_min_reps = 5

(* Building the machines ([inputs]) is not timed: how often the planted
   generator retries depends on the seed. *)
let gen workload seed dir =
  let ins = inputs workload seed in
  let paths = List.map (fun (name, _) -> Filename.concat dir (name ^ ".kiss")) ins in
  let rep () =
    (* Every repetition creates the files, as the first one does: ext4
       flushes a truncated-and-rewritten file to disk on close, which
       would time the disk instead. *)
    List.iter (fun path -> if Sys.file_exists path then Sys.remove path) paths;
    let t0 = Clock.now () in
    List.iter2
      (fun m path ->
        write_file path (Kiss.print m);
        ignore (Kiss.parse_file path))
      (List.map snd ins) paths;
    Clock.elapsed ~since:t0
  in
  let start = Clock.now () in
  let rec loop acc n =
    if n >= setup_min_reps && Clock.elapsed ~since:start >= setup_seconds then List.rev acc
    else loop (rep () :: acc) (n + 1)
  in
  let times = loop [] 0 in
  print_json
    (Json.Obj
       [
         ("inputs", Json.List (List.map (fun p -> Json.String p) paths));
         ("setup_s", Json.List (List.map (fun t -> Json.Float t) times));
       ])

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

(* Every figure the traced run accumulates, by metric name. *)
let totals : (string, float) Hashtbl.t = Hashtbl.create 64
let get name = Option.value ~default:0.0 (Hashtbl.find_opt totals name)
let add name v = Hashtbl.replace totals name (get name +. v)
let addi name v = add name (float_of_int v)

type span = { name : string; file : string; t0 : int64; t1 : int64; alloc_w : float }

let spans : span list ref = ref []
let staged_s = ref 0.0

(* Words allocated so far.  [Gc.minor_words] is exact; the major and
   promoted totals of [Gc.quick_stat] move at collections only, which is
   precise enough for per-call millions of words. *)
let alloc_words () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

let counter name =
  match Metrics.find name with Some (Metrics.Counter v) -> v | _ -> 0

(* [stage ~file name f] runs [f ()] as one span, charging its wall time
   to metric [name], its allocation to [alloc] and the deltas of the
   listed Stc_obs counters to the paired metric names. *)
let stage ~file ?alloc ?(counters = []) name f =
  let before = List.map (fun (c, _) -> counter c) counters in
  let a0 = alloc_words () in
  let t0 = Clock.now_ns () in
  let r = f () in
  let t1 = Clock.now_ns () in
  let a1 = alloc_words () in
  let dt = Int64.to_float (Int64.sub t1 t0) /. 1e9 in
  add name dt;
  staged_s := !staged_s +. dt;
  Option.iter (fun m -> add m ((a1 -. a0) /. 1e6)) alloc;
  List.iter2 (fun (c, m) b -> addi m (counter c - b)) counters before;
  spans := { name; file; t0; t1; alloc_w = a1 -. a0 } :: !spans;
  r

let load file =
  let m = stage ~file "fsm.load_s" (fun () -> Kiss.parse_file file) in
  addi "fsm.states" m.Machine.num_states;
  addi "fsm.transitions" (m.Machine.num_states * m.Machine.num_inputs);
  m

let solve ~file ?timeout ?jobs m =
  let res =
    stage ~file ~alloc:"solver.alloc_mw" "solver.solve_s" (fun () ->
        Solver.solve ?timeout ?jobs m)
  in
  let s = res.Solver.stats in
  addi "solver.investigated" s.Solver.investigated;
  addi "solver.deduped" s.Solver.deduped;
  addi "solver.pruned" s.Solver.pruned;
  addi "solver.memo_hits" s.Solver.memo_hits;
  addi "solver.basis" s.Solver.basis_size;
  let r =
    stage ~file "realization.s" (fun () -> Realization.of_solution m res.Solver.best)
  in
  addi "realization.product_states" r.Realization.product.Machine.num_states;
  r

let union_sorted arrays =
  List.sort_uniq compare (List.concat_map Array.to_list arrays) |> Array.of_list

let json_int_pair (a, b) = Json.List [ Json.Int a; Json.Int b ]

(* The front half of `ostr selftest`: solve -> realize -> encode ->
   minimize C1/C2/Lambda -> build fig. 4.  The traced run and the oracle
   both run it; the oracle ignores the figures it accumulates.  Returns
   the realization, the (label, on, dc, minimized cover) blocks and the
   fig. 4 model. *)
let selftest_flow file =
  let m = load file in
  let r = solve ~file m in
  let p = stage ~file "tables.encode_s" (fun () -> Tables.pipeline r) in
  List.iter
    (fun (on, dc) ->
      addi "tables.on_cubes" (Cover.size on);
      addi "tables.dc_cubes" (Cover.size dc))
    [ (p.Tables.c1_on, p.Tables.c1_dc); (p.Tables.c2_on, p.Tables.c2_dc);
      (p.Tables.lambda_on, p.Tables.lambda_dc) ];
  let minimize label on dc =
    let cover, rep =
      stage ~file ~alloc:"minimize.alloc_mw"
        ~counters:
          [
            ("minimize.expand_raises_attempted", "minimize.raises_attempted");
            ("minimize.expand_raises_accepted", "minimize.raises_accepted");
            ("minimize.tautology_calls", "minimize.tautology_calls");
            ("minimize.tautology_memo_hits", "minimize.tautology_memo_hits");
          ]
        ("minimize." ^ label ^ "_s")
        (fun () -> Minimize.minimize ~dc on)
    in
    addi "minimize.iterations" rep.Minimize.iterations;
    addi "minimize.cubes_in" rep.Minimize.initial_cubes;
    addi "minimize.cubes_out" rep.Minimize.final_cubes;
    addi "minimize.literals_out" rep.Minimize.final_literals;
    (label, on, dc, cover)
  in
  let ((_, _, _, c1) as b1) = minimize "c1" p.Tables.c1_on p.Tables.c1_dc in
  let ((_, _, _, c2) as b2) = minimize "c2" p.Tables.c2_on p.Tables.c2_dc in
  let ((_, _, _, lambda) as b3) = minimize "lambda" p.Tables.lambda_on p.Tables.lambda_dc in
  let built =
    stage ~file "arch.build_s" (fun () -> Arch.pipeline ~covers:(c1, c2, lambda) p)
  in
  (r, [ b1; b2; b3 ], built)

(* ostr selftest: the front half, then grade each session and both
   combined. *)
let trace_selftest file =
  let _, _, built = selftest_flow file in
  let net = built.Arch.netlist in
  addi "arch.gates" (Netlist.num_gates net);
  (* The collapsed fault lists the graders will ask for (one per session
     and one for the combined grade) are built here, so collapsing is
     charged to arch; the graders then hit Netlist's collapse cache. *)
  let observed = List.map snd built.Arch.sessions in
  let cl =
    stage ~file "arch.collapse_s" (fun () ->
        List.iter (fun o -> ignore (Netlist.collapse ~protected:o net)) observed;
        Netlist.collapse ~protected:(union_sorted observed) net)
  in
  addi "arch.fault_classes" (Array.length cl.Netlist.representatives);
  addi "arch.raw_faults" (Array.length cl.Netlist.faults);
  let grade_counters = [ ("faultsim.gate_evals", "session.gate_evals") ] in
  (* ~need_cycles:false: enabled metrics would otherwise flip Session's
     default and grade without the dominance shortcut the CLI uses. *)
  let sessions =
    List.mapi
      (fun k (stimuli, observed) ->
        let rep =
          stage ~file ~alloc:"session.alloc_mw" ~counters:grade_counters
            "session.sessions_s" (fun () ->
              Session.run ~jobs:1 ~need_cycles:false
                ~label:(Printf.sprintf "session %d" (k + 1))
                net ~stimuli ~observed)
        in
        (rep.Session.detected, rep.Session.total))
      built.Arch.sessions
  in
  let merged =
    stage ~file ~alloc:"session.alloc_mw" ~counters:grade_counters
      "session.combined_s" (fun () -> Arch.grade ~jobs:1 ~need_cycles:false built)
  in
  addi "session.faults" merged.Session.total;
  addi "session.detected" merged.Session.detected;
  Json.Obj
    [
      ("file", Json.String file);
      ("flipflops", Json.Int built.Arch.flipflops);
      ("gates", Json.Int (Netlist.num_gates net));
      ("sessions", Json.List (List.map json_int_pair sessions));
      ("combined", json_int_pair (merged.Session.detected, merged.Session.total));
    ]

let pass_metric = function
  | "cec" -> "verify.cec_s"
  | "net-prove" -> "verify.net_prove_s"
  | "sat-redundant" -> "verify.sat_redundant_s"
  | p -> failwith ("unknown verify pass " ^ p)

let sat_counters =
  List.map (fun c -> (c, c)) [ "sat.solves"; "sat.conflicts"; "sat.decisions"; "sat.propagations" ]

let count_code code diags =
  List.length (List.filter (fun d -> d.Diagnostic.code = code) diags)

(* ostr verify: Context.of_machine (solver at jobs 1, then
   Context.of_realization) -> Verify.run, one pass at a time. *)
let trace_verify file =
  let m = load file in
  let r = solve ~file ~timeout:120.0 ~jobs:1 m in
  let ctx =
    stage ~file ~alloc:"verify.alloc_mw" "verify.context_s" (fun () ->
        Context.of_realization ~jobs:1 r)
  in
  let diags =
    List.concat_map
      (fun pass ->
        stage ~file ~alloc:"verify.alloc_mw" ~counters:sat_counters
          (pass_metric pass) (fun () -> Verify.run ~select:[ pass ] ctx))
      Verify.names
  in
  addi "verify.redundant_faults" (count_code "RED001" diags);
  Json.Obj
    [
      ("file", Json.String file);
      ("errors", Json.Int (Diagnostic.count Diagnostic.Error diags));
      ("warnings", Json.Int (Diagnostic.count Diagnostic.Warning diags));
      ("net011", Json.Int (count_code "NET011" diags));
      ("red001", Json.Int (count_code "RED001" diags));
    ]

(* The CLI's `ostr anytime` defaults: seed 1, 60 s budget, one job. *)
let anytime_config = { Anytime.default_config with seed = 1; budget = 60.0; jobs = 1 }

let trace_anytime file =
  let m = load file in
  let res =
    stage ~file ~alloc:"anytime.alloc_mw"
      ~counters:[ ("anytime.closure_tt_hits", "anytime.closure_tt_hits") ]
      "anytime.solve_s" (fun () -> Anytime.solve ~config:anytime_config m)
  in
  let s = res.Anytime.stats in
  addi "anytime.evals" s.Anytime.evals;
  addi "anytime.feasible" s.Anytime.feasible;
  addi "anytime.rounds" s.Anytime.rounds;
  Json.Obj
    [
      ("file", Json.String file);
      ("bits", Json.Int res.Anytime.best.Solver.cost.Solver.bits);
      ("fingerprint", Json.String (Printf.sprintf "%016x" s.Anytime.rng_fingerprint));
    ]

let ratio num den = if den = 0.0 then 0.0 else num /. den

let chrome_trace () =
  let origin = match List.rev !spans with [] -> 0L | s :: _ -> s.t0 in
  let us t = Int64.to_float (Int64.sub t origin) /. 1e3 in
  Json.Obj
    [
      ( "traceEvents",
        Json.List
          (List.rev_map
             (fun s ->
               Json.Obj
                 [
                   ("name", Json.String s.name);
                   ("ph", Json.String "X");
                   ("pid", Json.Int 1);
                   ("tid", Json.Int 1);
                   ("ts", Json.Float (us s.t0));
                   ("dur", Json.Float (us s.t1 -. us s.t0));
                   ( "args",
                     Json.Obj
                       [ ("file", Json.String s.file); ("alloc_words", Json.Float s.alloc_w) ] );
                 ])
             !spans) );
    ]

let trace workload trace_out files =
  let per_file =
    match workload with
    | "selftest-corpus" | "selftest-tbk" -> trace_selftest
    | "verify-sat" -> trace_verify
    | "anytime-planted" -> trace_anytime
    | w -> failwith ("unknown workload " ^ w)
  in
  Metrics.set_enabled true;
  Metrics.reset ();
  let t0 = Clock.now_ns () in
  let results =
    List.map
      (fun file ->
        let r = per_file file in
        (* each ostr command starts with empty minimizer caches *)
        Cover.clear_caches ();
        r)
      files
  in
  let wall = Int64.to_float (Int64.sub (Clock.now_ns ()) t0) /. 1e9 in
  add "trace.wall_s" wall;
  add "trace.unattributed_pct" (100.0 *. (wall -. !staged_s) /. wall);
  add "trace.top_heap_mw"
    (float_of_int (Gc.quick_stat ()).Gc.top_heap_words /. 1e6);
  add "solver.dedup_ratio"
    (ratio (get "solver.deduped") (get "solver.investigated" +. get "solver.deduped"));
  add "solver.ns_per_node" (ratio (1e9 *. get "solver.solve_s") (get "solver.investigated"));
  add "anytime.feasible_ratio" (ratio (get "anytime.feasible") (get "anytime.evals"));
  add "anytime.ns_per_eval" (ratio (1e9 *. get "anytime.solve_s") (get "anytime.evals"));
  add "minimize.expand_accept_ratio"
    (ratio (get "minimize.raises_accepted") (get "minimize.raises_attempted"));
  add "minimize.tautology_memo_ratio"
    (ratio (get "minimize.tautology_memo_hits") (get "minimize.tautology_calls"));
  add "arch.collapse_ratio" (ratio (get "arch.fault_classes") (get "arch.raw_faults"));
  add "session.regrade_share"
    (ratio (get "session.combined_s") (get "session.sessions_s" +. get "session.combined_s"));
  Json.write trace_out (chrome_trace ());
  print_json
    (Json.Obj
       [
         ( "metrics",
           Json.Obj
             (Hashtbl.fold (fun n v acc -> (n, Json.Float v) :: acc) totals []
             |> List.sort compare) );
         ("files", Json.List results);
       ])

(* ------------------------------------------------------------------ *)
(* Oracle cross-checks                                                 *)
(* ------------------------------------------------------------------ *)

let checks = ref []
let check name ok = checks := (name, ok) :: !checks

(* Every realization realizes its machine and every cover implements
   its on/dc specification. *)
let check_front file r blocks =
  check (file ^ ": Realization.realizes") (Realization.realizes r);
  List.iter
    (fun (label, on, dc, cover) ->
      check (Printf.sprintf "%s: Minimize.verify %s" file label) (Minimize.verify ~on ~dc cover))
    blocks

let same_report (a : Session.report) (b : Session.report) =
  a.Session.detected = b.Session.detected
  && a.Session.total = b.Session.total
  && List.sort compare a.Session.undetected = List.sort compare b.Session.undetected

(* The selftest flow passes [check_front]; with [naive], the fast grader
   must also agree detect-for-detect with the naive one. *)
let oracle_selftest ~naive file =
  let r, blocks, built = selftest_flow file in
  check_front file r blocks;
  if naive then begin
    let net = built.Arch.netlist in
    List.iteri
      (fun k (stimuli, observed) ->
        let run naive =
          Session.run ~jobs:1 ~naive ~need_cycles:false ~label:"oracle" net ~stimuli
            ~observed
        in
        check
          (Printf.sprintf "%s: session %d fast = naive" file (k + 1))
          (same_report (run false) (run true)))
      built.Arch.sessions;
    check (file ^ ": combined fast = naive")
      (same_report
         (Arch.grade ~jobs:1 ~need_cycles:false built)
         (Arch.grade ~jobs:1 ~naive:true built))
  end;
  Json.Obj [ ("file", Json.String file) ]

(* "gate G[ pin P] s-a-V", as the RED001 diagnostics print faults. *)
let parse_fault loc =
  match String.split_on_char ' ' loc with
  | [ "gate"; g; sa ] -> Some (int_of_string g, None, sa)
  | [ "gate"; g; "pin"; p; sa ] -> Some (int_of_string g, Some (int_of_string p), sa)
  | _ -> None

let redundant_faults ~subject json_path =
  let str key d = match Json.member key d with Some (Json.String s) -> s | _ -> "" in
  match Json.parse_file json_path with
  | Error e -> failwith (json_path ^ ": " ^ e)
  | Ok report ->
    let diags =
      match Json.member "diagnostics" report with Some (Json.List l) -> l | _ -> []
    in
    List.filter_map
      (fun d ->
        if str "code" d = "RED001" && str "subject" d = subject then
          match parse_fault (str "loc" d) with
          | Some (gate, pin, "s-a-0") -> Some { Netlist.gate; pin; stuck_at = false }
          | Some (gate, pin, "s-a-1") -> Some { Netlist.gate; pin; stuck_at = true }
          | _ -> failwith ("unparsable RED001 location " ^ str "loc" d)
        else None)
      diags

(* The context `ostr verify` builds, with its fig. 4 rebuilt from the
   context's own minimized covers so that it carries the self-test
   sessions.  Every fault `ostr verify` proved redundant stays undetected
   by the simulation of both sessions of that netlist. *)
let oracle_verify file json_path =
  let ctx = Context.of_machine ~jobs:1 (Kiss.parse_file file) in
  let blocks =
    List.map
      (fun b -> Context.(b.block_label, b.on, b.dc, b.minimized))
      ctx.Context.blocks
  in
  check_front file ctx.Context.realization blocks;
  let covers =
    match blocks with
    | [ (_, _, _, c1); (_, _, _, c2); (_, _, _, lambda) ] -> (c1, c2, lambda)
    | _ -> failwith "Context.blocks is not [c1; c2; lambda]"
  in
  let built = Arch.pipeline ~covers (Tables.pipeline ctx.Context.realization) in
  let fig4 = List.find (fun n -> n.Context.net_label = "fig4") ctx.Context.netlists in
  check (file ^ ": rebuilt fig. 4 = the context's")
    (built.Arch.netlist.Netlist.gates = fig4.Context.netlist.Netlist.gates
    && built.Arch.netlist.Netlist.outputs = fig4.Context.netlist.Netlist.outputs);
  let merged = Arch.grade ~jobs:1 ~need_cycles:false built in
  let subject = Filename.remove_extension (Filename.basename file) ^ "/fig4" in
  let redundant = redundant_faults ~subject json_path in
  check
    (file ^ ": every proven-redundant fault stays undetected")
    (List.for_all (fun f -> List.mem f merged.Session.undetected) redundant);
  Json.Obj
    [
      ("file", Json.String file);
      ("gates", Json.Int (Netlist.num_gates fig4.Context.netlist));
      ("combined", json_int_pair (merged.Session.detected, merged.Session.total));
    ]

let oracle workload args =
  let results =
    List.map
      (fun arg ->
        match (workload, String.index_opt arg '=') with
        | "selftest-corpus", None -> oracle_selftest ~naive:true arg
        | "selftest-tbk", None -> oracle_selftest ~naive:false arg
        | "verify-sat", Some i ->
          oracle_verify (String.sub arg 0 i)
            (String.sub arg (i + 1) (String.length arg - i - 1))
        | _ -> failwith (Printf.sprintf "oracle: bad argument %S for %s" arg workload))
      args
  in
  print_json
    (Json.Obj
       [
         ( "checks",
           Json.List
             (List.rev_map
                (fun (name, ok) ->
                  Json.Obj [ ("name", Json.String name); ("ok", Json.Bool ok) ])
                !checks) );
         ("files", Json.List results);
       ])

(* The machine's current speed: the time of a fixed amount of allocation-,
   pointer- and branch-heavy work in plain Stdlib code, which no change to
   lib/ can move.  run.py rescales command times by it (see README.md,
   "Machine speed").  Prints a checksum of the work, then the seconds. *)
let calibrate () =
  let module M = Map.Make (Int) in
  let st = Random.State.make [| 7 |] in
  let t0 = Clock.now () in
  let m = ref M.empty in
  for _ = 1 to 150_000 do
    let k = Random.State.int st 1_000_000 in
    m := M.add k (k * 3) !m
  done;
  let buckets = Hashtbl.create 1024 in
  M.iter
    (fun k v ->
      let b = k land 0xffff in
      let old = Option.value ~default:[] (Hashtbl.find_opt buckets b) in
      Hashtbl.replace buckets b (v :: old))
    !m;
  let sum = ref 0 in
  Hashtbl.iter (fun _ l -> sum := !sum + List.hd (List.sort compare l)) buckets;
  let a = Array.init 200_000 (fun _ -> Random.State.int st 1_000_000) in
  Array.sort compare a;
  let seconds = Clock.elapsed ~since:t0 in
  print_json
    (Json.Obj [ ("checksum", Json.Int (!sum + a.(100_000))); ("seconds", Json.Float seconds) ])

let () =
  match Array.to_list Sys.argv with
  | [ _; "calibrate" ] -> calibrate ()
  | [ _; "gen"; workload; seed; dir ] -> gen workload (int_of_string seed) dir
  | _ :: "trace" :: workload :: trace_out :: files -> trace workload trace_out files
  | _ :: "oracle" :: workload :: args -> oracle workload args
  | _ ->
    prerr_endline
      "usage: flowbench gen WORKLOAD SEED DIR | trace WORKLOAD TRACE_OUT FILE... | oracle \
       WORKLOAD FILE[=VERIFY_JSON]... | calibrate";
    exit 2
