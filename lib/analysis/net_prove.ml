(* SAT-backed pipeline-property prover.

   Netgraph's NET010/NET011 reason structurally: a register is flagged
   when its next-state cone merely *contains* one of its own output
   nets.  This pass upgrades the property to a functional proof: a
   register R genuinely feeds back iff there are two input assignments,
   equal everywhere except on one of R's output bits, on which some bit
   of R's next state differs - i.e. the next state *functionally
   depends* on R's own value.

   The miter holds two copies A/B of the netlist.  Per primary input k,
   guard literals [eq_k] (force A = B) and [neq_k] (force A <> B); per
   register, a selector literal whose clause demands some next-state
   bit to differ.  One incremental solve per (register, register bit)
   under the assumptions [sel_R; neq_bit; eq_everything_else] - the
   assumption API exists precisely for this query pattern. *)

module N = Stc_netlist.Netlist
module Solver = Stc_sat.Solver
module Cnf = Stc_sat.Cnf
module D = Diagnostic

type dependence = {
  dep_reg : string;
  dep_bit : string;  (** name of the register output net the state depends on *)
  dep_witness : string;  (** A-side input assignment, creation order *)
}

let prove ~subject ~required (net : N.t) =
  let regs =
    List.filter (fun r -> r.Netgraph.next <> []) (Netgraph.registers net)
  in
  if regs = [] then []
  else begin
    let n_in = Array.length net.N.inputs in
    let pos_of_gate = Hashtbl.create 16 in
    Array.iteri (fun k g -> Hashtbl.replace pos_of_gate g k) net.N.inputs;
    let input_name g =
      match net.N.gates.(g) with N.Input n -> n | _ -> assert false
    in
    let s = Solver.create () in
    let xa = Cnf.fresh_inputs s n_in in
    let xb = Cnf.fresh_inputs s n_in in
    let la = Cnf.add_netlist s net ~inputs:xa in
    let lb = Cnf.add_netlist s net ~inputs:xb in
    let eq = Array.make n_in 0 and neq = Array.make n_in 0 in
    for k = 0 to n_in - 1 do
      let e = Solver.pos (Solver.new_var s) in
      let d = Solver.pos (Solver.new_var s) in
      let na = Solver.negate xa.(k) and nb = Solver.negate xb.(k) in
      Solver.add_clause s [ Solver.negate e; na; xb.(k) ];
      Solver.add_clause s [ Solver.negate e; xa.(k); nb ];
      Solver.add_clause s [ Solver.negate d; xa.(k); xb.(k) ];
      Solver.add_clause s [ Solver.negate d; na; nb ];
      eq.(k) <- e;
      neq.(k) <- d
    done;
    let structural =
      (* the structural verdict, for NET012: does the next-state cone
         even contain one of R's own output nets? *)
      fun r ->
        let cone = N.fanin_cone net r.Netgraph.next in
        List.exists (fun g -> cone.(g)) r.Netgraph.inputs
    in
    List.concat_map
      (fun r ->
        let sel = Solver.pos (Solver.new_var s) in
        let diffs =
          List.map (fun g -> Cnf.mk_xor s la.(g) lb.(g)) r.Netgraph.next
        in
        Solver.add_clause s (Solver.negate sel :: diffs);
        let dependence =
          List.find_map
            (fun g ->
              let bit =
                match Hashtbl.find_opt pos_of_gate g with
                | Some k -> k
                | None -> assert false
              in
              let assumptions =
                sel :: neq.(bit)
                :: List.filteri (fun k _ -> k <> bit) (Array.to_list eq)
              in
              match Solver.solve ~assumptions s with
              | Solver.Sat ->
                Some
                  {
                    dep_reg = r.Netgraph.reg_name;
                    dep_bit = input_name g;
                    dep_witness =
                      String.init n_in (fun k ->
                          if Solver.value s xa.(k) then '1' else '0');
                  }
              | Solver.Unsat -> None)
            r.Netgraph.inputs
        in
        (* retire this register's selector before moving on *)
        Solver.add_clause s [ Solver.negate sel ];
        match dependence with
        | Some d ->
          let message =
            Printf.sprintf
              "SAT-proven combinational feedback: next state of %s depends \
               on its own bit %s (witness inputs %s, flipped bit changes \
               the next state)"
              d.dep_reg d.dep_bit d.dep_witness
          in
          [
            (if required then
               D.error ~code:"NET010" ~subject ~loc:d.dep_reg message
             else D.info ~code:"NET010" ~subject ~loc:d.dep_reg message);
          ]
        | None ->
          if structural r then
            [
              D.info ~code:"NET012" ~subject ~loc:r.Netgraph.reg_name
                (Printf.sprintf
                   "structural path from %s through its next-state logic \
                    is functionally inert: SAT proves the next state \
                    independent of the register's own value"
                   r.Netgraph.reg_name);
            ]
          else [])
      regs
  end

(* Wrap [prove] so the NET011 certificate can look at the whole result. *)
let check ~subject ~required net =
  let diags = prove ~subject ~required net in
  let has_feedback =
    List.exists (fun d -> d.D.code = "NET010") diags
  in
  if required && not has_feedback then
    diags
    @ [
        D.info ~code:"NET011" ~subject ~loc:"registers"
          (Printf.sprintf
             "pipeline property SAT-certified: no register of %s \
              combinationally feeds back into itself"
             net.N.name);
      ]
  else diags

let pass =
  {
    Pass.name = "net-prove";
    doc =
      "SAT-backed pipeline-property proofs: functional register feedback \
       (NET010), SAT certificate (NET011), functionally inert structural \
       paths (NET012)";
    run =
      (fun ctx ->
        List.concat_map
          (fun t ->
            let subject = Context.subject ctx t.Context.net_label in
            check ~subject ~required:t.Context.feedback_free
              t.Context.netlist)
          ctx.Context.netlists);
  }
