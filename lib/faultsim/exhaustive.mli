(** Exhaustive word-parallel evaluation: the dense engine behind
    [ostr verify]'s netlist obligations.

    An obligation whose input space has at most {!max_points} points is
    decided by evaluating the netlist on every point, {!Engine.packed}
    words of {!Stc_netlist.Netlist.word_bits} points each.  The space is
    streamed in slices of {!slice_words} words, so memory stays bounded
    by one slice times the gates evaluated, never [2^n] times them.

    Points are numbered as {!Stc_logic.Cover.eval} numbers minterms: the
    first enumerated input is the top bit.  Slices come in ascending
    point order and the lanes of a word ascend too, so the first failing
    lane met is the lowest failing point - the witness of every dense
    verdict, deterministic by construction.

    Consumers: {!Stc_sat.Prove.redundant} (grades every collapsed class
    on all points through {!Engine.golden}/{!Engine.grade}), and the
    [cec] and [net-prove] verify passes (evaluate one obligation's fanin
    cone with {!eval_gates}).  Wider obligations go to their SAT miters;
    each decision bumps the counter [verify.dense_obligations] or
    [verify.sat_obligations] ({!decided}). *)

(** [max_points = 2^22], a constant.  It is not the crossover for every
    netlist: on tbk's fig. 4 netlist padded past 2^21 points the SAT
    untestable-fault stage is the cheaper one, on s1's the dense stage
    stays cheaper up to 2^22 (EXPERIMENTS.md, "Dense verification"). *)
val max_points : int

(** [fits n] holds when [n] free inputs span at most {!max_points}
    points. *)
val fits : int -> bool

(** Words per streamed slice. *)
val slice_words : int

(** A point space over a netlist's inputs: [order] lists the enumerated
    input positions (indices into [net.inputs]), most significant first;
    every other input holds its [pinned] value, or 0. *)
type space

(** [space net ?pinned order]
    @raise Invalid_argument when [order] spans more than {!max_points}
    points or names a position twice, or a pinned position is also
    enumerated. *)
val space : Stc_netlist.Netlist.t -> ?pinned:(int * bool) list -> int array -> space

(** [iter space f] streams the space: [f ~first p] gets each slice [p]
    (one word per netlist input per batch, lanes past the last point
    masked off) with the number of its first point, in ascending order,
    until [f] returns [false] or the points run out. *)
val iter : space -> (first:int -> Engine.packed -> bool) -> unit

(** [lowest ~first ~batch diff] is the point of the lowest set lane of
    the nonzero word [diff] in batch [batch] of the slice starting at
    [first]. *)
val lowest : first:int -> batch:int -> int -> int

(** [assignment space point] is the value of every netlist input at
    [point], in creation order. *)
val assignment : space -> int -> bool array

(** [load net ~words ~values] writes one word per netlist input (in
    creation order) into its [Input] gate's slot of [values]. *)
val load : Stc_netlist.Netlist.t -> words:int array -> values:int array -> unit

(** [eval_gates net gates values] writes {!Stc_netlist.Netlist.eval_gate}
    of every listed gate into [values], in list order (ascending, so
    operands first). *)
val eval_gates : Stc_netlist.Netlist.t -> int array -> int array -> unit

(** A cover compiled for word-parallel evaluation. *)
type spec

val spec : Stc_logic.Cover.t -> spec

(** [spec_eval spec vars ~into] writes each output's word into [into]
    from one word per cover variable. *)
val spec_eval : spec -> int array -> into:int array -> unit

(** [decided ~dense] counts one verify obligation as decided by the
    dense engine or by SAT. *)
val decided : dense:bool -> unit
