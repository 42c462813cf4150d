(** Multi-output cubes in positional notation, the unit of two-level logic
    minimization.

    A cube over [n] input variables and [m] outputs has an input part
    (each variable is {!Zero}, {!One} or {!Dc}) and an output part (a bit
    per function: does this product term feed output [o]?).  A cube
    represents the set of minterms matching the input part, asserted for
    every output in the output part.

    The representation is packed: two bits per input variable (positional
    cube notation, 31 variables per word) and one bit per output, so the
    set operations below are word-wise [land]/[lor]/popcount loops rather
    than per-literal array walks.  Use {!get}/{!output_bit} for random
    access and {!input}/{!output} to materialize plain arrays. *)

type trit = Zero | One | Dc

type t

(** [make ~input ~output] validates and builds a cube.
    @raise Invalid_argument if [output] is all-false or empty. *)
val make : input:trit array -> output:bool array -> t

(** [of_string "1-0 10"] parses a PLA-style row: input characters
    [0 1 - 2] ([2] is espresso's alternative don't-care), output
    characters [0 1] ([4] is accepted for 1, [~] and [-] for 0). *)
val of_string : string -> t

val to_string : t -> string

(** [full ~num_vars ~num_outputs] is the universal cube: all inputs
    don't-care, all outputs asserted. *)
val full : num_vars:int -> num_outputs:int -> t

(** [minterm ~num_vars ~num_outputs value] is the cube of the single input
    minterm [value] (bit [num_vars-1] of [value] is variable 0), asserted
    for all outputs. *)
val minterm : num_vars:int -> num_outputs:int -> int -> t

val num_vars : t -> int

val num_outputs : t -> int

(** [get c k] is input variable [k] of the cube. *)
val get : t -> int -> trit

(** [output_bit c o] is output bit [o] of the cube. *)
val output_bit : t -> int -> bool

(** [input c] materializes the input part as a fresh trit array. *)
val input : t -> trit array

(** [output c] materializes the output part as a fresh bool array. *)
val output : t -> bool array

(** [matches c v] tests whether input minterm [v] lies in the cube. *)
val matches : t -> int -> bool

(** [literals c] counts the non-don't-care input positions. *)
val literals : t -> int

(** [dc_count c] counts the don't-care input positions
    ([num_vars - literals]). *)
val dc_count : t -> int

(** [output_count c] counts the asserted output bits. *)
val output_count : t -> int

(** [input_size c] is the number of minterms covered ([2^dc_count]). *)
val input_size : t -> float

(** [contains a b] tests whether [a] covers [b] (input part covers and
    output part is a superset).  Allocation-free. *)
val contains : t -> t -> bool

(** [output_overlap a b] tests whether the output parts share an asserted
    bit.  Allocation-free. *)
val output_overlap : t -> t -> bool

(** [intersect a b] is the cube of minterms in both, asserted for outputs
    in both; [None] when empty. *)
val intersect : t -> t -> t option

(** [distance a b] is the number of input variables on which [a] and [b]
    have opposite fixed values; 0 means the input parts intersect. *)
val distance : t -> t -> int

(** [supercube a b] is the smallest cube containing both. *)
val supercube : t -> t -> t

(** [consensus a b] is the consensus cube when the input parts conflict in
    exactly one variable: that variable raised to don't-care, every other
    variable intersected, outputs intersected.  [None] when the distance
    is not 1 or the output intersection is empty. *)
val consensus : t -> t -> t option

(** [equal a b] structural equality. *)
val equal : t -> t -> bool

val compare : t -> t -> int

(**/**)

(** Packed-word internals for {!Cover} and {!Minimize}.  The word arrays
    returned by [input_words]/[output_words] are the cube's own storage:
    treat them as read-only. *)
module Raw : sig
  val vars_per_word : int

  val outs_per_word : int

  (** [01] repeated [vars_per_word] times (the low bit of every pair). *)
  val mask01 : int

  (** [11] repeated [vars_per_word] times (an all-don't-care word). *)
  val mask11 : int

  val popcount : int -> int

  (** [words_conflict v] tests whether some pair of [v] is [00] - an
      empty variable after intersecting two input words. *)
  val words_conflict : int -> bool

  val in_words : int -> int

  val out_words : int -> int

  (** [pair row k] is the code of variable [k] in the packed input words
      [row]: [1] Zero, [2] One, [3] Dc. *)
  val pair : int array -> int -> int

  val input_words : t -> int array

  val output_words : t -> int array

  (** [make_packed ~num_vars ~num_outputs inw outw] wraps already-packed
      words without copying or validation; the caller must keep the
      tail-fill invariants (pairs beyond [num_vars] are [11], output bits
      beyond [num_outputs] are [0]). *)
  val make_packed : num_vars:int -> num_outputs:int -> int array -> int array -> t
end
