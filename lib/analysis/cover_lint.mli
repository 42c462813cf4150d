(** Cover lint: correctness and redundancy checks on two-level covers,
    in particular on {!Stc_logic.Minimize} output against its on/dc
    specification: COV001/COV002 are views of
    {!Stc_logic.Minimize.check}, COV003 of
    {!Stc_logic.Minimize.redundant}; COV004/COV005 scan the cubes COV003
    flags (a cube equal to or inside another is covered by the rest).

    Diagnostic codes (stable):
    - [COV001] error: a cube asserts an output on a minterm of the
      off-set - overlapping/conflicting implementation, the minimized
      block computes a wrong value;
    - [COV002] error: a care on-set minterm is left uncovered - the
      block drops a required 1;
    - [COV003] warning: redundant cube (the rest of the cover plus the
      don't-care set already covers it);
    - [COV004] warning: cube contained in another single cube;
    - [COV005] warning: duplicate cube.

    COV006 (redundancy analysis truncated past a cube budget) is
    retired and not reused. *)

(** The context pass: checks every synthesized block
    ({!Context.t.blocks}) against its on/dc specification. *)
val pass : Pass.t

(** [check_block ~subject ~on ~dc result] verifies the implementation
    cover [result] against specification [(on, dc)]: COV001/COV002. *)
val check_block :
  subject:string ->
  on:Stc_logic.Cover.t ->
  dc:Stc_logic.Cover.t ->
  Stc_logic.Cover.t ->
  Diagnostic.t list

(** [check_redundancy ~subject ?dc cover] reports COV003/COV004/COV005
    on a standalone cover. *)
val check_redundancy :
  subject:string -> ?dc:Stc_logic.Cover.t -> Stc_logic.Cover.t ->
  Diagnostic.t list
