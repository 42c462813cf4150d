(** Exhaustive truth-table oracle for small functions, the tests'
    cross-check of the cube-based algorithms of {!Stc_logic}. *)

(** [table cover] evaluates every input minterm; [table cover].(v).(o) is
    output [o] on minterm [v].
    @raise Invalid_argument beyond 16 variables. *)
val table : Stc_logic.Cover.t -> bool array array

(** [equivalent a b] compares two covers minterm by minterm. *)
val equivalent : Stc_logic.Cover.t -> Stc_logic.Cover.t -> bool

(** [equivalent_with_dc ~on ~dc result] checks the minimization contract
    [(on \ dc) <= result <= on + dc] minterm by minterm (don't-cares take
    precedence where the two sets overlap, as in espresso). *)
val equivalent_with_dc :
  on:Stc_logic.Cover.t -> dc:Stc_logic.Cover.t -> Stc_logic.Cover.t -> bool
