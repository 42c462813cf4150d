(** Full-scan testing of the fig. 1 structure - the other conventional
    alternative to the paper's architecture.

    With every state flip-flop on a scan chain, the combinational block C
    becomes fully controllable and observable, so coverage is essentially
    complete - but each pattern costs [chain length + 1] clock cycles
    (shift in, capture, with shift-out overlapped), the chain multiplexers
    add delay on every path into the register, and the test cannot run
    concurrently with normal operation.  The paper's pipeline structure
    reaches comparable coverage with one cycle per pattern and no
    multiplexer in the mission path.

    The model reuses the combinational grader: patterns drive both the
    primary inputs and the (scanned-in) state bits, and both the
    next-state lines and the primary outputs are observed (captured into
    the chain / visible at the pins). *)

type result = {
  report : Session.report;
  patterns : int;
  chain_length : int;
  test_cycles : int;  (** [patterns * (chain_length + 1)] *)
  extra_muxes : int;  (** one scan multiplexer per flip-flop *)
}

(** [run ?patterns ~cover enc] grades the fig. 1 netlist of [enc], built
    from its minimized block C [cover] ({!Arch.conventional}), under
    [patterns] (default 1024) pseudo-random scan patterns; [jobs]/[naive]
    as in {!Session.run}. *)
val run :
  ?jobs:int -> ?naive:bool -> ?patterns:int -> cover:Stc_logic.Cover.t ->
  Stc_encoding.Tables.encoded -> result
