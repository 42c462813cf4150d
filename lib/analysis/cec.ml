(* Combinational equivalence checking.  See cec.mli for the codes and
   the modulo-dc proof obligations. *)

module Cover = Stc_logic.Cover
module Minimize = Stc_logic.Minimize
module N = Stc_netlist.Netlist
module Tables = Stc_encoding.Tables
module Code = Stc_encoding.Code
module Solver = Stc_sat.Solver
module Cnf = Stc_sat.Cnf
module D = Diagnostic

(* Render the model's assignment of [inputs] as a 0/1 string, variable 0
   leftmost - the witness format of every CEC error. *)
let witness s inputs =
  String.init (Array.length inputs) (fun k ->
      if Solver.value s inputs.(k) then '1' else '0')

(* Prove [impl.(o) = spec modulo dc] for every output: under the given
   extra [assumptions], SAT of [impl_o & ~on_o & ~dc_o] is an off-set
   violation, SAT of [~impl_o & on_o] a dropped care minterm.  [bad]
   renders the error diagnostic for output [o] with a witness. *)
let prove_outputs s ?(assumptions = []) ~inputs ~impl ~on_lits ~dc_lits ~bad ()
    =
  let errs = ref [] in
  Array.iteri
    (fun o impl_o ->
      (match
         Solver.solve
           ~assumptions:
             (impl_o :: Solver.negate on_lits.(o)
              :: Solver.negate dc_lits.(o) :: assumptions)
           s
       with
      | Solver.Sat ->
        errs := bad o ~off:true ~witness:(witness s inputs) :: !errs
      | Solver.Unsat -> ());
      match
        Solver.solve
          ~assumptions:(Solver.negate impl_o :: on_lits.(o) :: assumptions)
          s
      with
      | Solver.Sat ->
        errs := bad o ~off:false ~witness:(witness s inputs) :: !errs
      | Solver.Unsat -> ())
    impl;
  List.rev !errs

(* --- blocks vs. specification ---------------------------------------- *)

(* The cover checker's lowest violation of each kind per output. *)
let check_block ~subject (b : Context.block) =
  let outputs = b.Context.minimized.Cover.num_outputs in
  let found = Minimize.check ~on:b.Context.on ~dc:b.Context.dc b.Context.minimized in
  let bad o (kind, code, what) =
    match List.filter (fun v -> v.Minimize.kind = kind && v.Minimize.output = o) found with
    | [] -> None
    | v :: vs ->
      let witness = List.fold_left (fun p v -> min p v.Minimize.point) v.Minimize.point vs in
      Some
        (D.error ~code ~subject ~loc:(Printf.sprintf "output %d" o)
           (Printf.sprintf "minimized cover %s (witness inputs %s)" what witness))
  in
  let kinds =
    [ (Minimize.Off_set, "CEC001", "asserts an off-set minterm");
      (Minimize.Uncovered, "CEC002", "drops a care on-set minterm") ]
  in
  match List.concat_map (fun o -> List.filter_map (bad o) kinds) (List.init outputs Fun.id) with
  | [] ->
    [
      D.info ~code:"CEC003" ~subject ~loc:"cover"
        (Printf.sprintf
           "implementation proven equivalent to the on/dc specification \
            on all %d outputs"
           outputs);
    ]
  | errs -> errs

(* --- netlists vs. FSM tables ----------------------------------------- *)

(* One proof group: a slice of the netlist checked against one table
   spec.  [vars] names the Input gates in cover-variable order, [outs]
   the primary outputs in spec-output order, [fixed] pins mode inputs
   (fig. 2's [test_mode]). *)
type group = {
  g_loc : string;
  vars : string array;
  outs : string array;
  spec_on : Cover.t;
  spec_dc : Cover.t;
  fixed : (string * bool) list;
}

let names prefix n = Array.init n (fun k -> Printf.sprintf "%s%d" prefix k)

let block_with label blocks =
  List.find (fun b -> b.Context.block_label = label) blocks

let fig4_groups (ctx : Context.t) =
  let c1 = block_with "c1" ctx.Context.blocks in
  let c2 = block_with "c2" ctx.Context.blocks in
  let lambda = block_with "lambda" ctx.Context.blocks in
  let w1 = c2.Context.on.Cover.num_outputs in
  let w2 = c1.Context.on.Cover.num_outputs in
  let iw = c1.Context.on.Cover.num_vars - w1 in
  let ow = lambda.Context.on.Cover.num_outputs in
  let i = names "i" iw in
  let r1 = names "r1_" w1 in
  let r2 = names "r2_" w2 in
  [
    {
      g_loc = "c1";
      vars = Array.append i r1;
      outs = names "r2n" w2;
      spec_on = c1.Context.on;
      spec_dc = c1.Context.dc;
      fixed = [];
    };
    {
      g_loc = "c2";
      vars = Array.append i r2;
      outs = names "r1n" w1;
      spec_on = c2.Context.on;
      spec_dc = c2.Context.dc;
      fixed = [];
    };
    {
      g_loc = "lambda";
      vars = Array.concat [ i; r1; r2 ];
      outs = names "po" ow;
      spec_on = lambda.Context.on;
      spec_dc = lambda.Context.dc;
      fixed = [];
    };
  ]

(* fig. 1/2/3 all implement the monolithic conventional block C; the
   groups differ only in which register (or test) nets feed the state
   variables and which output column is checked. *)
let conventional_groups (ctx : Context.t) label =
  let enc = Tables.encode ctx.Context.machine in
  let spec_on, spec_dc = Tables.conventional enc in
  let w = enc.Tables.state_code.Code.width in
  let iw = enc.Tables.input_width in
  let ow = enc.Tables.output_width in
  let i = names "i" iw in
  let group g_loc state_prefix ~ns ~po fixed =
    {
      g_loc;
      vars = Array.append i (names state_prefix w);
      outs = Array.append (names ns w) (names po ow);
      spec_on;
      spec_dc;
      fixed;
    }
  in
  match label with
  | "fig1" -> [ group "C" "r" ~ns:"ns" ~po:"po" [] ]
  | "fig2" ->
    [
      group "functional mode" "r" ~ns:"ns" ~po:"po" [ ("test_mode", false) ];
      group "test mode" "t" ~ns:"ns" ~po:"po" [ ("test_mode", true) ];
    ]
  | "fig3" ->
    [
      group "copy A" "ra" ~ns:"nsa" ~po:"poa" [];
      group "copy B" "rb" ~ns:"nsb" ~po:"pob" [];
    ]
  | _ -> []

let check_netlist ~subject (ctx : Context.t) (t : Context.netlist_target) =
  let groups =
    match t.Context.net_label with
    | "fig4" -> fig4_groups ctx
    | label -> conventional_groups ctx label
  in
  if groups = [] then []
  else begin
    let net = t.Context.netlist in
    let s = Solver.create () in
    let in_lits = Cnf.fresh_inputs s (Array.length net.N.inputs) in
    let gate_lits = Cnf.add_netlist s net ~inputs:in_lits in
    let input_lit = Hashtbl.create 16 in
    Array.iteri
      (fun k g ->
        match net.N.gates.(g) with
        | N.Input name -> Hashtbl.replace input_lit name in_lits.(k)
        | _ -> ())
      net.N.inputs;
    let output_lit = Hashtbl.create 16 in
    Array.iter
      (fun (name, g) -> Hashtbl.replace output_lit name gate_lits.(g))
      net.N.outputs;
    let lookup table kind name =
      match Hashtbl.find_opt table name with
      | Some l -> l
      | None ->
        invalid_arg
          (Printf.sprintf "Cec.check_netlist: no %s named %S in %s" kind name
             net.N.name)
    in
    List.concat_map
      (fun g ->
        let inputs = Array.map (lookup input_lit "input") g.vars in
        let impl = Array.map (lookup output_lit "output") g.outs in
        let on_lits = Cnf.add_cover s g.spec_on ~inputs in
        let dc_lits = Cnf.add_cover s g.spec_dc ~inputs in
        let assumptions =
          List.map
            (fun (name, v) ->
              let l = lookup input_lit "input" name in
              if v then l else Solver.negate l)
            g.fixed
        in
        let bad o ~off ~witness =
          D.error ~code:"CEC004" ~subject
            ~loc:(Printf.sprintf "%s output %s" g.g_loc g.outs.(o))
            (Printf.sprintf
               "netlist %s the table specification on a care minterm \
                (witness %s inputs %s)"
               (if off then "asserts outside" else "drops a minterm of")
               g.g_loc witness)
        in
        match
          prove_outputs s ~assumptions ~inputs ~impl ~on_lits ~dc_lits ~bad ()
        with
        | [] ->
          [
            D.info ~code:"CEC005" ~subject ~loc:g.g_loc
              (Printf.sprintf
                 "netlist proven equivalent to the FSM tables on all %d %s \
                  outputs"
                 (Array.length impl) g.g_loc);
          ]
        | errs -> errs)
      groups
  end

let pass =
  {
    Pass.name = "cec";
    doc =
      "equivalence proofs: minimized blocks vs. on/dc specification on \
       the cover checker, architecture netlists vs. FSM tables by SAT \
       (CEC001-CEC005)";
    run =
      (fun ctx ->
        List.concat_map
          (fun b ->
            let subject = Context.subject ctx b.Context.block_label in
            check_block ~subject b)
          ctx.Context.blocks
        @ List.concat_map
            (fun t ->
              let subject = Context.subject ctx t.Context.net_label in
              check_netlist ~subject ctx t)
            ctx.Context.netlists);
  }
