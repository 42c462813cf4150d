(** Tseitin CNF encoding of {!Stc_netlist.Netlist} gate graphs and
    {!Stc_logic.Cover} two-level covers into a {!Solver} instance.

    Encoding conventions (documented for DESIGN.md section 9):
    - every encoder allocates solver variables on demand and returns the
      {e literal} of each encoded net, so [Buf]/[Not] gates cost no
      variables or clauses at all — a [Not] is the negated literal of
      its operand;
    - [And]/[Or] use the standard n-ary Tseitin clauses, [Xor] a
      pairwise fold, [Mux] the 4-clause if-then-else;
    - an optional [fault] injects a stuck-at while encoding: an output
      fault replaces the gate's literal by a constant, a pin fault
      replaces the read operand, exactly mirroring
      {!Stc_netlist.Netlist.eval}. *)

type lit = Solver.lit

(** [add_netlist s ?fault net ~inputs] encodes every gate of
    [net], with [inputs] supplying one literal per [Input] gate (in
    creation order, like [Netlist.eval]).  Returns the literal of every
    gate, indexed by gate id.
    @raise Invalid_argument on an [inputs] length mismatch. *)
val add_netlist :
  Solver.t ->
  ?fault:Stc_netlist.Netlist.fault ->
  Stc_netlist.Netlist.t ->
  inputs:lit array ->
  lit array

(** [outputs net lits] projects the gate-literal map returned by
    {!add_netlist} onto the declared primary outputs, in declaration
    order. *)
val outputs : Stc_netlist.Netlist.t -> lit array -> lit array

(** [add_cover s cover ~inputs] encodes a two-level cover: one
    AND literal per cube, one OR literal per cover output.  [inputs]
    has one literal per cover variable.
    @raise Invalid_argument on an [inputs] length mismatch. *)
val add_cover :
  Solver.t -> Stc_logic.Cover.t -> inputs:lit array -> lit array

(** [add_gate s gate ~read] encodes one gate whose pin [k], reading
    gate [x], has the literal [read k x]; returns the gate's literal.
    This is the per-gate step of {!add_netlist}, for callers that encode
    a sub-graph (the cone-sized miters of {!Prove}) or inject faults
    themselves.
    @raise Invalid_argument on an [Input] gate (the caller owns input
    literals). *)
val add_gate :
  Solver.t -> Stc_netlist.Netlist.gate -> read:(int -> int -> lit) -> lit

(** [mk_xor s a b]: a fresh literal equivalent to [a xor b] - the
    per-output miter gate. *)
val mk_xor : Solver.t -> lit -> lit -> lit

(** [fresh_inputs s n] allocates [n] fresh unconstrained literals. *)
val fresh_inputs : Solver.t -> int -> lit array
