(* Functional pipeline-property prover.

   Netgraph's NET010/NET011 reason structurally: a register is flagged
   when its next-state cone merely *contains* one of its own output
   nets.  This pass upgrades the property to a functional proof: a
   register R genuinely feeds back iff there are two input assignments,
   equal everywhere except on one of R's output bits, on which some bit
   of R's next state differs - i.e. the next state *functionally
   depends* on R's own value.

   Up to Exhaustive.max_points input points the question is answered on
   every point ([dense_dependence]).  Above, a miter holds two copies
   A/B of the netlist.  Per primary input k, guard literals [eq_k]
   (force A = B) and [neq_k] (force A <> B); per register, a selector
   literal whose clause demands some next-state bit to differ.  One
   incremental solve per (register, register bit) under the assumptions
   [sel_R; neq_bit; eq_everything_else] - the assumption API exists
   precisely for this query pattern. *)

module N = Stc_netlist.Netlist
module Solver = Stc_sat.Solver
module Cnf = Stc_sat.Cnf
module D = Diagnostic
module Trace = Stc_obs.Trace

type dependence = {
  dep_reg : string;
  dep_bit : string;  (** name of the register output net the state depends on *)
  dep_witness : string;  (** A-side input assignment, creation order *)
}

(* The dense decision for register [r]: every point of the inputs its
   next state reads, in creation order, input 0 in the top bit.  Each
   bit of [r] whose output cone reaches the next state is flipped on
   every point and its cone re-evaluated; the first bit, in [r.inputs]
   order, on which some next-state word changes is the dependence, and
   the lowest such point (where that bit is 0) its witness.  Once a bit
   is found, only the bits before it are evaluated further. *)
let dense_dependence (net : N.t) ~readers ~input_name r =
  let module X = Stc_faultsim.Exhaustive in
  let n = N.num_gates net in
  let fanin = N.fanin_cone net r.Netgraph.next in
  let candidates =
    List.filter (fun g -> fanin.(g)) r.Netgraph.inputs |> Array.of_list
  in
  let nc = Array.length candidates in
  if nc = 0 then None
  else begin
    let gates =
      List.filter (fun x -> fanin.(x)) (List.init n Fun.id) |> Array.of_list
    in
    let support =
      List.filter
        (fun k -> fanin.(net.N.inputs.(k)))
        (List.init (Array.length net.N.inputs) Fun.id)
    in
    let space = X.space net (Array.of_list support) in
    (* per candidate bit: the gates of its cone inside the fanin, and a
       membership mark *)
    let flips =
      Array.map
        (fun g ->
          let cone =
            Array.of_list
              (List.filter (fun x -> fanin.(x))
                 (Array.to_list (N.cone ~readers net g)))
          in
          let mark = Array.make n false in
          Array.iter (fun x -> mark.(x) <- true) cone;
          (cone, mark))
        candidates
    in
    let next = Array.of_list r.Netgraph.next in
    let values = Array.make n 0 and flipped = Array.make n 0 in
    let found = ref None and limit = ref nc in
    X.iter space (fun ~first p ->
        Array.iteri
          (fun b words ->
            let mask = p.Stc_faultsim.Engine.masks.(b) in
            X.load net ~words ~values;
            X.eval_gates net gates values;
            Array.blit values 0 flipped 0 n;
            let c = ref 0 in
            while !c < !limit do
              let cone, mark = flips.(!c) in
              flipped.(cone.(0)) <- lnot values.(cone.(0));
              for i = 1 to Array.length cone - 1 do
                let x = cone.(i) in
                flipped.(x) <- N.eval_gate flipped x net.N.gates.(x)
              done;
              let d = ref 0 in
              Array.iter
                (fun q -> if mark.(q) then d := !d lor (flipped.(q) lxor values.(q)))
                next;
              Array.iter (fun x -> flipped.(x) <- values.(x)) cone;
              if !d land mask <> 0 then begin
                limit := !c;
                found := Some (!c, X.lowest ~first ~batch:b (!d land mask))
              end;
              incr c
            done)
          p.Stc_faultsim.Engine.words;
        !limit > 0);
    Option.map
      (fun (c, point) ->
        let a = X.assignment space point in
        {
          dep_reg = r.Netgraph.reg_name;
          dep_bit = input_name candidates.(c);
          dep_witness =
            String.init (Array.length a) (fun k -> if a.(k) then '1' else '0');
        })
      !found
  end

(* The SAT decision: one incremental two-copy miter for the whole
   netlist, built on first use, one solve per (register, bit). *)
let sat_prover (net : N.t) ~pos_of_gate ~input_name =
  let n_in = Array.length net.N.inputs in
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
  fun r ->
    let sel = Solver.pos (Solver.new_var s) in
    let diffs = List.map (fun g -> Cnf.mk_xor s la.(g) lb.(g)) r.Netgraph.next in
    Solver.add_clause s (Solver.negate sel :: diffs);
    let dependence =
      List.find_map
        (fun g ->
          let bit = pos_of_gate g in
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
    dependence

let prove ~subject ~required (net : N.t) =
  let regs =
    List.filter (fun r -> r.Netgraph.next <> []) (Netgraph.registers net)
  in
  if regs = [] then []
  else begin
    let pos_of_gate = Hashtbl.create 16 in
    Array.iteri (fun k g -> Hashtbl.replace pos_of_gate g k) net.N.inputs;
    let pos_of_gate g =
      match Hashtbl.find_opt pos_of_gate g with
      | Some k -> k
      | None -> assert false
    in
    let input_name g =
      match net.N.gates.(g) with N.Input n -> n | _ -> assert false
    in
    let dense = Stc_faultsim.Exhaustive.fits (Array.length net.N.inputs) in
    let readers = lazy (N.readers net) in
    let sat = lazy (sat_prover net ~pos_of_gate ~input_name) in
    let structural =
      (* the structural verdict, for NET012: does the next-state cone
         even contain one of R's own output nets? *)
      fun r ->
        let cone = N.fanin_cone net r.Netgraph.next in
        List.exists (fun g -> cone.(g)) r.Netgraph.inputs
    in
    List.concat_map
      (fun r ->
        Trace.span ~cat:"verify" ("net-prove:" ^ subject ^ "/" ^ r.Netgraph.reg_name)
        @@ fun () ->
        Stc_faultsim.Exhaustive.decided ~dense;
        let dependence =
          if dense then
            dense_dependence net ~readers:(Lazy.force readers) ~input_name r
          else Lazy.force sat r
        in
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
      "pipeline-property proofs, dense up to 2^22 input points and by SAT \
       above: functional register feedback (NET010), certificate \
       (NET011), functionally inert structural paths (NET012)";
    run =
      (fun ctx ->
        List.concat_map
          (fun t ->
            let subject = Context.subject ctx t.Context.net_label in
            check ~subject ~required:t.Context.feedback_free
              t.Context.netlist)
          ctx.Context.netlists);
  }
