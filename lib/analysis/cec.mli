(** Combinational equivalence checking (SAT miters).

    Two proof obligations per context, both discharged with
    {!Stc_sat.Solver} miters and both {e modulo the don't-care set} (two
    correct implementations may legitimately differ on dc minterms):

    - every minimized block against its on/dc specification - the proof
      that the shipped cover is correct, whichever engine produced it;
    - every architecture netlist against the FSM truth tables: fig. 4's
      C1/C2/Lambda cones, fig. 1's monolithic block, fig. 2 in both
      functional ([test_mode = 0], state from R) and test
      ([test_mode = 1], state from T) modes, and fig. 3's two copies.

    Diagnostic codes (stable):
    - [CEC001] error: a block cover asserts an output on an off-set
      minterm (witness input assignment in the message);
    - [CEC002] error: a care on-set minterm is uncovered (witness);
    - [CEC003] note: block proven equivalent to its specification;
    - [CEC004] error: a netlist output disagrees with its table spec on
      a care minterm (witness);
    - [CEC005] note: netlist group proven equivalent to its tables.

    CEC006-CEC008 are retired and not reused. *)

(** [check_block ~subject b] proves [b.minimized] against [(b.on, b.dc)]:
    CEC001/CEC002 errors or the CEC003 certificate. *)
val check_block : subject:string -> Context.block -> Diagnostic.t list

(** [check_netlist ~subject ctx target] proves the architecture netlist
    [target] against the FSM tables (labels [fig1]-[fig4]; unknown
    labels yield no diagnostics): CEC004/CEC005. *)
val check_netlist :
  subject:string -> Context.t -> Context.netlist_target -> Diagnostic.t list

(** The registered pass (name ["cec"]): all of the above over every
    block and netlist target of the context. *)
val pass : Pass.t
