(** Truth-table extraction: from an encoded machine (or pipeline
    realization) to the PLA covers handed to the logic minimizer.

    Variable order conventions (MSB first inside each group):
    - conventional block C (fig. 1): inputs [primary inputs @ state bits],
      outputs [next-state bits @ primary output bits];
    - pipeline block C1 (fig. 4): inputs [primary inputs @ R1 bits],
      outputs [R2 next bits];
    - pipeline block C2: inputs [primary inputs @ R2 bits], outputs
      [R1 next bits];
    - pipeline output block Lambda: inputs [primary inputs @ R1 @ R2],
      outputs [primary output bits].

    Unused state code words, and product states with an empty class
    intersection (the filler entries of Theorem 1), become don't-cares. *)

module Cover = Stc_logic.Cover

type encoded = {
  machine : Stc_fsm.Machine.t;
  state_code : Code.t;
  input_width : int;  (** bits of the primary input bus *)
  output_width : int;  (** bits of the primary output bus *)
  output_codes : int array;  (** output symbol -> code word *)
}

(** [encode ?state_code machine] picks codes: binary state encoding by
    default, primary inputs as the binary representation of the symbol
    index (KISS2 machines already use exactly this), outputs taken from the
    binary output names when present (KISS2) and from symbol indices
    otherwise. *)
val encode : ?state_code:Code.t -> Stc_fsm.Machine.t -> encoded

(** [conventional enc] is [(on, dc)] for the monolithic next-state/output
    block C of fig. 1. *)
val conventional : encoded -> Cover.t * Cover.t

type pipeline = {
  realization : Stc_core.Realization.t;
  code1 : Code.t;  (** codes of S1 = S/pi, register R1 *)
  code2 : Code.t;  (** codes of S2 = S/rho, register R2 *)
  enc : encoded;  (** primary input/output encoding, shared with the spec *)
  c1_on : Cover.t;
  c1_dc : Cover.t;
  c2_on : Cover.t;
  c2_dc : Cover.t;
  lambda_on : Cover.t;
  lambda_dc : Cover.t;
}

(** [pipeline ?code1 ?code2 realization] extracts the three combinational
    blocks of fig. 4.  Default codes are binary. *)
val pipeline :
  ?code1:Code.t -> ?code2:Code.t -> Stc_core.Realization.t -> pipeline
