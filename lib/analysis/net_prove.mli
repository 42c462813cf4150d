(** Functional pipeline-property proofs.

    {!Netgraph.prove_pipeline} reasons structurally: a register is
    flagged when its next-state fanin cone {e contains} one of its own
    output nets.  This pass proves the functional property instead: a
    register [R] feeds back iff its next state {e functionally depends}
    on [R]'s own value — there exist two input assignments, equal
    everywhere except on one of [R]'s bits, for which some next-state
    bit differs.

    A netlist of at most {!Stc_faultsim.Exhaustive.max_points} input
    points is decided by the dense engine: per register, the fanin of
    its next state is evaluated on every point of the inputs it reads,
    and each register bit whose output cone reaches the next state is
    flipped and its cone re-evaluated.  The first bit (in register input
    order) that changes a next-state word is the dependence; the lowest
    such point, where that bit is 0, is the witness.

    Wider netlists go to SAT: the miter holds two copies of the netlist
    plus per-input equality/inequality guard literals and a
    per-register selector clause over the next-state XOR differences,
    so the whole pass is one incremental solver with one [solve] call
    per (register, register bit) — the assumption API's intended
    pattern.  The diagnostic texts say "SAT-proven" and "SAT-certified"
    whichever engine decided, so reports do not depend on the engine.

    Diagnostic codes (shared with the structural prover, upgraded):
    - [NET010]: proven combinational feedback, with an input witness
      (error iff the netlist must be feedback-free);
    - [NET011] note: certificate — no register feeds back
      (emitted only on netlists that require the property);
    - [NET012] note: a structural feedback path exists but is
      functionally inert (the next state is independent of the
      register's own value) — structurally flagged, functionally
      exonerated. *)

(** [check ~subject ~required net] proves the property for every
    named register with a next-state net (generator-loaded registers
    are skipped). *)
val check :
  subject:string -> required:bool -> Stc_netlist.Netlist.t ->
  Diagnostic.t list

(** The registered pass (name ["net-prove"]): {!check} over every
    context netlist target, [required] from
    {!Context.netlist_target.feedback_free}. *)
val pass : Pass.t
