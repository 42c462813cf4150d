(** Combinational gate-level netlists with bit-parallel simulation.

    Gates are stored in topological order (operands always refer to
    earlier gates - the builder enforces this), so evaluation is a single
    left-to-right pass.  Values are machine words: each of the low
    {!word_bits} bit lanes carries an independent test pattern, giving
    parallel-pattern evaluation for the fault simulator.

    Sequential elements are deliberately absent: in every BIST session of
    the paper's architectures the registers are driven by the test
    hardware (LFSR / MISR), so each clock cycle evaluates a pure
    combinational cone.  The register models live in [Stc_bist]. *)

type gate =
  | Input of string
  | Const of bool
  | Buf of int
  | Not of int
  | And of int array  (** >= 1 operand *)
  | Or of int array
  | Xor of int array
  | Mux of { sel : int; a : int; b : int }  (** [sel = 0 -> a, 1 -> b] *)

type t = private {
  name : string;
  gates : gate array;
  inputs : int array;  (** indices of the [Input] gates, in creation order *)
  outputs : (string * int) array;
  uid : int;
      (** process-unique identity assigned by [Builder.finish]; keys the
          {!collapse} cache *)
}

(** Number of independent pattern lanes per simulation word. *)
val word_bits : int

(** A single stuck-at fault: on a gate's output ([pin = None]) or on one of
    its input pins ([pin = Some k], the [k]-th operand). *)
type fault = { gate : int; pin : int option; stuck_at : bool }

(** Imperative netlist construction. *)
module Builder : sig
  type netlist := t

  type t

  val create : string -> t

  (** Each constructor returns the index of the new gate.  Operand indices
      must refer to already-created gates.
      @raise Invalid_argument on forward references or empty operand
      lists. *)

  val input : t -> string -> int

  val const : t -> bool -> int

  val buf : t -> int -> int

  val not_ : t -> int -> int

  val and_ : t -> int list -> int

  val or_ : t -> int list -> int

  val xor_ : t -> int list -> int

  val mux : t -> sel:int -> a:int -> b:int -> int

  (** [output b name gate] registers a named primary output. *)
  val output : t -> string -> int -> unit

  (** [emit_cover b ~inputs cover] instantiates a two-level (AND-OR with
      input inverters) network for [cover]; [inputs] supplies the gate
      index of each cover variable.  Returns one gate index per cover
      output. *)
  val emit_cover : t -> inputs:int array -> Stc_logic.Cover.t -> int array

  val finish : t -> netlist
end

(** [num_gates n] counts all gates, inputs included. *)
val num_gates : t -> int

(** [operands g] is the fanin of [g] in pin order (empty for inputs and
    constants).  For And/Or/Xor this is the gate's internal array - do
    not mutate it. *)
val operands : gate -> int array

type stats = {
  gates : int;  (** logic gates (excluding inputs and constants) *)
  literals : int;  (** total fanin count of And/Or/Xor/Mux gates *)
  depth : int;  (** maximum logic depth from any input *)
  inverters : int;
}

val stats : t -> stats

(** [eval net ?fault ~inputs] evaluates all gates; [inputs] gives one word
    per [Input] gate (in creation order).  Returns the value of every
    gate.  With [fault], the corresponding stuck-at is injected.
    @raise Invalid_argument if [inputs] length mismatches. *)
val eval : ?fault:fault -> t -> inputs:int array -> int array

(** [eval_into net ?fault ~values ~inputs] is {!eval} writing into the
    caller-provided buffer [values] (length {!num_gates}) instead of
    allocating - the fault simulator's hot loop reuses one buffer across
    thousands of evaluations.
    @raise Invalid_argument on input or buffer length mismatch. *)
val eval_into : ?fault:fault -> t -> values:int array -> inputs:int array -> unit

(** [eval_gate values g gate] is the word of gate [g] (whose kind is
    [gate]) read from its operands' [values]; an [Input] gate reads its
    own slot [values.(g)]. *)
val eval_gate : int array -> int -> gate -> int

(** [eval_outputs net ?fault ~inputs] returns just the primary output
    words, in declaration order. *)
val eval_outputs : ?fault:fault -> t -> inputs:int array -> int array

(** [fault_sites net] enumerates all stuck-at faults: two per gate output
    and two per gate input pin, with trivial equivalences collapsed (a
    [Buf]/[Not] input fault is equivalent to the output fault of its
    driver; faults on [Input] outputs are kept, [Const] gates have
    none). *)
val fault_sites : t -> fault list

(** [readers net] is the fanout map: [readers.(g)] lists the
    [(reader, pin)] pairs that consume gate [g], in gate order. *)
val readers : t -> (int * int) array array

(** [cone ?readers ?seen net g] is the output cone of gate [g]: every gate
    whose value can change when [g]'s value changes ([g] included), in
    ascending (= topological) index order.  Pass a precomputed [readers]
    map to amortize the fanout scan across many cones, and a [seen] arena
    (any size; grown on demand) to reuse one visited-set buffer. *)
val cone :
  ?readers:(int * int) array array ->
  ?seen:Stc_bits.Arena.Stamped.t ->
  t ->
  int ->
  int array

(** [fanin_cone net roots] marks every gate in the transitive fanin of
    [roots] (roots included): [(fanin_cone net roots).(g)] holds iff [g]
    can influence some root. *)
val fanin_cone : t -> int list -> bool array

(** Structural single-stuck-at fault collapsing.

    The raw fault universe ({!fault_sites}) is partitioned into
    equivalence classes of faults with identical faulty behaviour on
    every observable net:
    - an And input s-a-0 forces the output to 0, exactly like the output
      s-a-0 (dually Or input/output s-a-1);
    - a Buf (Not) output fault equals its driver's output fault (inverted
      for Not) when the driver feeds nothing else and is not observable;
    - a fanout-free, unobservable stem's output faults equal the reader's
      corresponding input-pin faults.

    Simulating one representative per class gives the exact verdict (and
    first-detection cycle) of every member.  [dominated_by] additionally
    records dominance: detection of any listed class implies detection of
    the indexed class (And output s-a-1 is detected by any test for one
    of its input s-a-1 faults, dually for Or s-a-0), letting a
    verdict-only grader skip simulating dominator classes. *)
type collapsed = {
  faults : fault array;  (** the raw universe, in {!fault_sites} order *)
  class_of : int array;  (** fault index -> dense class id *)
  classes : int array array;
      (** class id -> member fault indices, ascending *)
  representatives : int array;
      (** class id -> least member fault index *)
  dominated_by : int array array;
      (** class id -> classes whose detection implies this class detected
          (empty for most classes) *)
}

(** [collapse ?protected net] collapses the fault list.  [protected]
    names the gates that may ever be observed directly (a session's
    observed nets); faults on protected gates are never folded onto
    neighbours.  Default: the netlist's declared outputs.

    Results are memoized in a bounded process-wide cache keyed by
    [(net.uid, sorted protected set)] — repeated calls for the same
    machine (one per BIST session, one per aliasing measurement, one
    per SAT proof pass) share a single computation.  The returned
    arrays are shared: treat them as read-only. *)
val collapse : ?protected:int array -> t -> collapsed

val pp : Format.formatter -> t -> unit
