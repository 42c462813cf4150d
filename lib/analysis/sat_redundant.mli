(** Untestable-fault proofs as an analysis pass.

    Wraps {!Stc_sat.Prove.redundant} over every netlist target: every
    collapsed class is graded on all input points when the netlist has
    at most {!Stc_faultsim.Exhaustive.max_points}, else each class left
    by random simulation gets a SAT miter.
    - [RED001] note per raw fault proven untestable (no input assignment
      propagates it to an observed output: no point detects it, or its
      miter is UNSAT);
    - [RED002] note per netlist: summary counts, including how many
      classes were settled structurally (empty observed cone).

    The redundant list is deterministic and jobs-invariant, so these
    reports are stable across [--jobs] settings. *)

(** [fault_loc f] is the stable location string of a fault
    (["gate 12 pin 1 s-a-0"]). *)
val fault_loc : Stc_netlist.Netlist.fault -> string

(** [check ~subject ?jobs net] runs the prover on one netlist. *)
val check :
  subject:string -> ?jobs:int -> Stc_netlist.Netlist.t -> Diagnostic.t list

(** The registered pass (name ["sat-redundant"]). *)
val pass : Pass.t
