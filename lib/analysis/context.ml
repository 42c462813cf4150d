module Machine = Stc_fsm.Machine
module Ostr = Stc_core.Ostr
module Realization = Stc_core.Realization
module Tables = Stc_encoding.Tables
module Cover = Stc_logic.Cover
module Minimize = Stc_logic.Minimize
module Arch = Stc_faultsim.Arch
module Trace = Stc_obs.Trace

type block = {
  block_label : string;
  on : Cover.t;
  dc : Cover.t;
  minimized : Cover.t;
}

type netlist_target = {
  net_label : string;
  netlist : Stc_netlist.Netlist.t;
  built : Arch.built;
  feedback_free : bool;
}

type t = {
  name : string;
  machine : Machine.t;
  realization : Realization.t;
  tables : Tables.pipeline;
  blocks : block list;
  fig4 : Arch.built;
  block_c : block option;
  netlists : netlist_target list;
  pass_jobs : int;
}

let encode f = Trace.span ~cat:"flow" "encode" f
let build f = Trace.span ~cat:"flow" "build" f

let of_realization ?(conventional = false) ?(all_archs = false) ?(cycles = 1)
    ?(jobs = 1) (realization : Realization.t) =
  let jobs = max 1 jobs in
  let block label (on, dc) =
    { block_label = label; on; dc; minimized = fst (Minimize.minimize ~jobs ~dc on) }
  in
  let p = encode (fun () -> Tables.pipeline realization) in
  (* Lambda, C2, C1: the largest block first.  No minimization reads
     state left by another, so neither the covers nor the minimizer's
     counters depend on the order; it is kept so that traces list the
     blocks as earlier versions did. *)
  let lambda = block "lambda" (p.Tables.lambda_on, p.Tables.lambda_dc) in
  let c2 = block "c2" (p.Tables.c2_on, p.Tables.c2_dc) in
  let c1 = block "c1" (p.Tables.c1_on, p.Tables.c1_dc) in
  let covers = (c1.minimized, c2.minimized, lambda.minimized) in
  let fig4 = build (fun () -> Arch.pipeline ~cycles ~covers p) in
  let enc = p.Tables.enc in
  let block_c =
    if conventional || all_archs then
      Some (block "c" (encode (fun () -> Tables.conventional enc)))
    else None
  in
  let target net_label ~feedback_free built =
    { net_label; netlist = built.Arch.netlist; built; feedback_free }
  in
  let from_c =
    match block_c with
    | None -> []
    | Some { minimized = cover; _ } ->
      let from label ~feedback_free arch =
        target label ~feedback_free (build (fun () -> arch ~cover enc))
      in
      (if conventional then [ from "fig1" ~feedback_free:false Arch.conventional ]
       else [])
      @
      if all_archs then
        [
          from "fig2" ~feedback_free:false (Arch.conventional_bist ~cycles);
          from "fig3" ~feedback_free:true (Arch.doubled ~cycles);
        ]
      else []
  in
  let machine = realization.Realization.spec in
  {
    name = machine.Machine.name;
    machine;
    realization;
    tables = p;
    blocks = [ c1; c2; lambda ];
    fig4;
    block_c;
    netlists = target "fig4" ~feedback_free:true fig4 :: from_c;
    pass_jobs = jobs;
  }

let of_machine ?(timeout = 120.0) ?conventional ?all_archs ?cycles ?jobs machine =
  (* solver jobs = 1: the sequential search is deterministic, so
     equally-optimal partition pairs cannot race and flip downstream
     netlists and diagnostics.  [jobs] only reaches stages whose results
     do not depend on it. *)
  let outcome = Ostr.run ~timeout ~jobs:1 machine in
  of_realization ?conventional ?all_archs ?cycles ?jobs outcome.Ostr.realization

let structure ctx label =
  match List.find_opt (fun t -> t.net_label = label) ctx.netlists with
  | Some t -> t.built
  | None -> invalid_arg (Printf.sprintf "Context.structure: no %s in %s" label ctx.name)

let subject ctx label = if label = "" then ctx.name else ctx.name ^ "/" ^ label
