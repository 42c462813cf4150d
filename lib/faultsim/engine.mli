(** High-throughput stuck-at fault grading.

    The engine combines three optimizations over the naive
    one-full-eval-per-fault-per-batch grader, all of them exact:

    - {b structural fault collapsing} ({!Stc_netlist.Netlist.collapse}):
      only one representative per equivalence class is simulated, and
      dominance lets verdict-only runs skip dominator classes whose
      detection is already implied;
    - {b cone-limited incremental evaluation}: the golden circuit is
      evaluated once per pattern batch; each fault then re-evaluates only
      the gates in its output cone whose fanin actually differs (a
      differing gate marks its readers), with an early exit when the
      difference frontier dies out; an And/Or gate with one differing
      operand is recomputed from two per-batch golden words instead of
      its whole fanin;
    - {b fault-parallel multicore grading}: the collapsed class list is
      sharded over OCaml domains through an atomic cursor, one scratch
      buffer per domain.

    Instrumentation (when {!Stc_obs.Metrics} is enabled): counters
    [faultsim.faults.raw], [faultsim.faults.classes],
    [faultsim.dominance_skips], [faultsim.gate_evals],
    [faultsim.one_operand_evals] (gate evaluations, site pin faults
    included, that took the one-operand path); histograms
    [faultsim.cone_size] and [faultsim.domain_wall_ms]. *)

(** One input vector per cycle (0/1 per input, in netlist input order). *)
type stimuli = int array array

(** Bit-packed stimuli: [words.(b).(k)] carries {!Stc_netlist.Netlist.word_bits}
    consecutive cycles of input [k] in its bit lanes, [masks.(b)] selects
    the valid lanes of batch [b]. *)
type packed = {
  cycles : int;
  words : int array array;
  masks : int array;
}

val pack : stimuli -> packed

val num_batches : packed -> int

(** [first_lane w] is the lowest set bit index of [w] - the first cycle
    within a batch where a difference shows.
    @raise Invalid_argument on [w = 0]. *)
val first_lane : int -> int

(** A netlist prepared for fast grading: collapsed fault list plus the
    output cone of every representative fault site. *)
type t

(** [create ?protected net] collapses the fault universe and precomputes
    cones.  [protected] must include every gate any session observes
    (default: the declared outputs) - faults on those gates are kept
    distinct so equivalences never merge across an observation point. *)
val create : ?protected:int array -> Stc_netlist.Netlist.t -> t

val netlist : t -> Stc_netlist.Netlist.t

val collapsed : t -> Stc_netlist.Netlist.collapsed

(** Golden evaluation, one full pass per batch: [values.(b).(gate)] is
    the fault-free word of [gate].  For every And (Or) gate, [once.(b)]
    and [twice.(b)] hold the lanes where at least one, resp. at least
    two, of its operand pins carry the controlling value 0 (1): with them
    the grader recomputes a gate with a single differing operand without
    reading the others.  Other gates read 0 there. *)
type golden = {
  values : int array array;
  once : int array array;
  twice : int array array;
}

val golden : t -> packed -> golden

(** [golden_buffer t ~batches] is a zeroed {!golden} for up to [batches]
    batches, to be refilled by {!golden_into}. *)
val golden_buffer : t -> batches:int -> golden

(** [golden_into t p g] is {!golden} written into [g]'s first
    [num_batches p] batches, so a stream of slices reuses one buffer.
    @raise Invalid_argument when [g] has fewer batches. *)
val golden_into : t -> packed -> golden -> unit

(** Per-domain workspace for incremental faulty evaluation. *)
type scratch

val scratch : t -> scratch

(** [Detected None] means the fault is provably detected but the exact
    first-detection cycle was not tracked (dominance skip, or
    [need_cycles = false] grading). *)
type verdict = Undetected | Detected of int option

(** [grade t ~jobs ~need_cycles p g ~observed ~active] grades every class
    with [active.(class)] set against the packed batches, returning one
    verdict per class (inactive classes report [Undetected] - ignore
    them).  [need_cycles] asks for exact first-detection cycles, which
    disables the dominance shortcut and the early-exit scan.
    [dominance] (default [true]) may be forced off for benchmarking. *)
val grade :
  t ->
  jobs:int ->
  need_cycles:bool ->
  ?dominance:bool ->
  packed ->
  golden ->
  observed:int array ->
  active:bool array ->
  verdict array

(** [response t scr g p ~batch fault ~observed ~into] writes the faulty
    words of the [observed] gates for one batch into [into] (same length
    and order as [observed]) and reports whether any valid lane differs
    from golden.  Used by {!Aliasing} to feed MISR signatures without
    re-simulating whole sessions. *)
val response :
  t ->
  scratch ->
  golden ->
  packed ->
  batch:int ->
  Stc_netlist.Netlist.fault ->
  observed:int array ->
  into:int array ->
  bool
