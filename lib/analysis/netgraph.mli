(** Netlist dependency-graph analysis and the pipeline-property prover.

    The signal dependency graph has one node per gate and an edge from
    every operand to its user.  On top of it:

    - Tarjan SCC detection for combinational cycles ([NET001] error;
      the {!Stc_netlist.Netlist.Builder} makes them unconstructible,
      but imported netlists go through the same pass);
    - floating logic gates, i.e. gates outside every primary-output
      cone ([NET002] warning; dead area);
    - multiply-driven primary outputs, i.e. one output name declared
      twice ([NET003] error);
    - primary inputs no output depends on ([NET004] note);
    - the {b pipeline-property prover}: registers are recovered from the
      net naming convention of {!Stc_faultsim.Arch} (register [R]
      reads inputs [r*] and is loaded from outputs [ns*]; [R1]: [r1_*]
      from [r1n*]; [R2]: [r2_*] from [r2n*]; [RA]/[RB]: [ra*]/[rb*]
      from [nsb*]/[nsa*]; the fig. 2 test register [T] is
      generator-loaded and has no next-state net).  A register whose
      next-state cone reaches its own outputs has an R->C->R
      combinational feedback path ([NET010] error on netlists that must
      be feedback-free, note otherwise); a netlist whose registers are
      all feedback-free is certified with [NET011], naming the register
      dependency ring - the fig. 4 structural property that makes the
      realization self-testable without a transparency register. *)

type netlist := Stc_netlist.Netlist.t

(** [sccs ~n ~succ] is Tarjan's algorithm on an arbitrary graph with
    nodes [0..n-1]: the strongly connected components in reverse
    topological order, each sorted ascending. *)
val sccs : n:int -> succ:(int -> int list) -> int list list

(** [cyclic_sccs ~n ~succ] keeps only genuine cycles: components of
    size [>= 2], and singletons with a self-edge. *)
val cyclic_sccs : n:int -> succ:(int -> int list) -> int list list

(** A register recovered from the naming convention: [inputs] are its
    output nets (modelled as [Input] gates), [next] the gates computing
    its next state ([[]] for generator-loaded registers). *)
type reg = { reg_name : string; inputs : int list; next : int list }

val registers : netlist -> reg list

(** [feeds net regs] lists, for each register with a next-state net, the
    names of the registers (and ["primary"] for primary inputs) its
    next-state cone depends on. *)
val feeds : netlist -> reg list -> (string * string list) list

(** [prove_pipeline ~subject ~required net] is the prover: NET010 per
    feedback register (error iff [required]), NET011 certification when
    [required] and no feedback exists. *)
val prove_pipeline : subject:string -> required:bool -> netlist -> Diagnostic.t list

(** [structure ~subject net] runs the pure graph checks
    (NET001-NET004). *)
val structure : subject:string -> netlist -> Diagnostic.t list

(** The context pass over every {!Context.t.netlists} target. *)
val pass : Pass.t
