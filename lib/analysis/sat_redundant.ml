(* Untestable-fault diagnostics on every netlist target: RED001 per
   collapsed fault class proven redundant, RED002 per-netlist summary.
   The heavy lifting is Stc_sat.Prove.redundant; this pass renders its
   verdict as diagnostics, while faultcov consumers call Prove directly
   for the adjusted-coverage arithmetic. *)

module N = Stc_netlist.Netlist
module Prove = Stc_sat.Prove
module D = Diagnostic

let fault_loc (f : N.fault) =
  Printf.sprintf "gate %d%s s-a-%d" f.N.gate
    (match f.N.pin with None -> "" | Some k -> Printf.sprintf " pin %d" k)
    (Bool.to_int f.N.stuck_at)

let check ~subject ?jobs net =
  let v = Prove.redundant ?jobs net in
  let per_fault =
    List.map
      (fun f ->
        D.info ~code:"RED001" ~subject ~loc:(fault_loc f)
          "proven untestable: no input assignment propagates the fault to \
           an observed output")
      v.Prove.redundant
  in
  D.info ~code:"RED002" ~subject ~loc:"faults"
    (Printf.sprintf
       "%d of %d raw faults untestable (%d of %d collapsed classes, %d \
        unobservable without a SAT call); excluded from the coverage \
        denominator"
       (List.length v.Prove.redundant)
       v.Prove.total_faults v.Prove.redundant_classes v.Prove.total_classes
       v.Prove.unobservable_classes)
  :: per_fault

let pass =
  {
    Pass.name = "sat-redundant";
    doc =
      "untestable-fault proofs, every class graded on all input points up \
       to 2^22 and by per-fault SAT miters above: the redundant-fault \
       list (RED001-RED002)";
    run =
      (fun ctx ->
        List.concat_map
          (fun t ->
            let subject = Context.subject ctx t.Context.net_label in
            check ~subject ~jobs:ctx.Context.pass_jobs t.Context.netlist)
          ctx.Context.netlists);
  }
