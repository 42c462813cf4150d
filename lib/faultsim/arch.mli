(** Gate-level models of the paper's four controller structures (figs. 1-4)
    and their self-test sessions.

    All blocks are two-level networks synthesized from espresso-minimized
    covers.  Registers are part of the test-equipment model: the stimulus
    generator replays LFSR patterns into the register-output nets and
    records what the MISRs would compress, so each architecture reduces to
    a combinational netlist plus per-session (stimuli, observed) pairs -
    see {!Session}.

    What the structures demonstrate (section 1 of the paper):
    - fig. 2 (conventional BIST): the test register T drives C through a
      multiplexer during self-test, so the feedback lines from R and the
      R-side multiplexer pins are never exercised - their faults escape;
    - fig. 3 (doubled): full coverage, but two full-width registers and two
      copies of C;
    - fig. 4 (pipeline): full coverage with the factored blocks C1/C2 and
      registers sized by the OSTR factors. *)

type built = {
  label : string;
  netlist : Stc_netlist.Netlist.t;
  sessions : (Session.stimuli * int array) list;
      (** one (stimuli, observed gates) pair per self-test session *)
  tags : (string * int list) list;
      (** named gate groups, e.g. "feedback", "mux", "c1" - for classifying
          undetected faults *)
  flipflops : int;  (** register bits of the full structure *)
}

(** [conventional ~cover enc] is the plain fig. 1 structure (block C plus
    feedback buffers) of the encoded machine [enc], with [cover] the
    minimized block C ({!Stc_encoding.Tables.conventional}).  It has no
    self-test session; useful for area stats. *)
val conventional :
  cover:Stc_logic.Cover.t -> Stc_encoding.Tables.encoded -> built

(** [conventional_bist ?cycles ~cover enc] is the fig. 2 structure: C,
    feedback buffers from R, a test-mode multiplexer column, and the test
    register T.  One session: T and the primary inputs run as LFSRs, the
    next-state and output lines are observed (R and an output MISR
    compress them).  [cycles] defaults to 1024. *)
val conventional_bist :
  ?cycles:int -> cover:Stc_logic.Cover.t -> Stc_encoding.Tables.encoded -> built

(** [doubled ?cycles ~cover enc] is the fig. 3 structure: two copies of C
    in a ring.  Two sessions, each testing one copy. *)
val doubled :
  ?cycles:int -> cover:Stc_logic.Cover.t -> Stc_encoding.Tables.encoded -> built

(** [pipeline ?cycles ~covers tables] is the fig. 4 structure built from
    the OSTR realization's minimized [(c1, c2, lambda)] blocks.  Two
    sessions: R1 generates while R2 compresses, then the roles swap.
    {!Stc_analysis.Context} chains solve, encode, minimize and this
    builder. *)
val pipeline :
  ?cycles:int ->
  covers:Stc_logic.Cover.t * Stc_logic.Cover.t * Stc_logic.Cover.t ->
  Stc_encoding.Tables.pipeline ->
  built

(** [grade built] runs all sessions and merges the verdicts
    ({!Session.run_sessions}); [jobs]/[naive]/[need_cycles] are passed
    through. *)
val grade :
  ?jobs:int -> ?naive:bool -> ?need_cycles:bool -> built -> Session.report

(** [undetected_by_tag built report] buckets the undetected faults by tag
    name ("other" when untagged). *)
val undetected_by_tag : built -> Session.report -> (string * int) list
