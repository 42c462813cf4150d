(** Sequential random testing of the plain fig. 1 structure - the baseline
    the paper argues against.

    Without BIST, the controller can only be tested through its primary
    inputs and outputs: fault effects must first be driven into the state
    register and then propagated to an output, which is why "the necessary
    test sequences might be prohibitively long" (section 1).  This module
    quantifies that: it applies random input sequences to the sequential
    circuit (state register fed back each cycle) and records, per stuck-at
    fault, the first cycle at which a primary output differs.

    Simulation is lane-parallel: each of the
    {!Stc_netlist.Netlist.word_bits} word lanes carries an independent
    random test sequence with its own state evolution, so one pass grades
    62 sequences at once. *)

type result = {
  total : int;  (** faults graded *)
  detected : int;
  coverage : float;
  detection_cycles : int array;
      (** sorted first-detection cycle (over the best lane) for each
          detected fault; length [detected] *)
  cycles : int;  (** sequence length applied *)
}

(** [run ?seed ~cycles built] grades all faults of a {!Arch.conventional}
    structure (or any [built] whose netlist has inputs
    [primary @ state-register bits] and outputs [next-state @ primary
    outputs] in that order) under random primary-input sequences.  The
    state register is [state_width] bits wide and starts at the reset
    code; only the primary outputs are observed.

    By default faults are structurally collapsed (next-state and output
    lines protected, so classes share the exact state evolution and
    first-detection cycle) and sharded over [jobs] domains (default 1);
    [naive] grades the raw fault list serially as the reference.  Cone
    limiting and dominance do not apply to sequential simulation.

    @raise Invalid_argument if the netlist shape does not match. *)
val run :
  ?seed:int ->
  ?jobs:int ->
  ?naive:bool ->
  cycles:int ->
  state_width:int ->
  reset_code:int ->
  Stc_netlist.Netlist.t ->
  result

(** [run_conventional ?seed ?cycles ~cover enc] builds the fig. 1
    structure of [enc] from its minimized block C [cover]
    ({!Arch.conventional}) and grades it. *)
val run_conventional :
  ?seed:int -> ?jobs:int -> ?naive:bool -> ?cycles:int ->
  cover:Stc_logic.Cover.t -> Stc_encoding.Tables.encoded -> result

(** [cycles_to_coverage result fraction] is the sequence length after
    which [fraction] of the {e detected} faults had been found, or [None]
    if nothing was detected.  Useful for "test length to reach 90%"
    comparisons. *)
val cycles_to_coverage : result -> float -> int option
