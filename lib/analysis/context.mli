(** The synthesis flow, and the unit of analysis: one specification
    machine with the artifacts of every stage.

    This is the one place that chains the paper's stages: solve OSTR
    (sequentially, [jobs = 1], so the chosen optimum - and with it every
    downstream netlist, coverage figure and diagnostic - is
    deterministic) → Theorem-1 realization → encode → minimize C1 / C2 /
    Lambda once → build the fig. 4 structure.  When a fig. 1, 2 or 3
    structure is asked for, block C is minimized once and every such
    structure is built from that cover.  The fault simulator drivers,
    the CLI and the static passes all read their artifacts from here. *)

(** A two-level block: specification on/dc-sets plus the minimized
    implementation cover, as handed to the netlist emitter. *)
type block = {
  block_label : string;  (** ["c1"], ["c2"], ["lambda"], ["c"] *)
  on : Stc_logic.Cover.t;
  dc : Stc_logic.Cover.t;
  minimized : Stc_logic.Cover.t;
}

(** A gate-level structure to analyze.  [feedback_free] marks netlists
    that the pipeline-property prover must certify (the fig. 4
    realization); on netlists with [feedback_free = false] a detected
    register feedback path is reported as a note, not an error. *)
type netlist_target = {
  net_label : string;  (** ["fig4"], ["fig1"], ["fig2"], ["fig3"] *)
  netlist : Stc_netlist.Netlist.t;  (** [built.netlist] *)
  built : Stc_faultsim.Arch.built;  (** the structure with its sessions *)
  feedback_free : bool;
}

type t = {
  name : string;  (** machine name, the subject prefix of diagnostics *)
  machine : Stc_fsm.Machine.t;
  realization : Stc_core.Realization.t;
  tables : Stc_encoding.Tables.pipeline;  (** the encoded fig. 4 blocks *)
  blocks : block list;  (** C1, C2, Lambda, minimized *)
  fig4 : Stc_faultsim.Arch.built;
  block_c : block option;
      (** the monolithic block C of figs. 1-3 over [tables.enc], present
          when one of those structures was built *)
  netlists : netlist_target list;  (** fig. 4 first, then figs. 1-3 *)
  pass_jobs : int;
      (** domain budget for passes that parallelize internally (the
          per-fault SAT proofs).  Every consumer is jobs-invariant, so
          diagnostics stay deterministic. *)
}

(** [of_machine ?timeout ?conventional ?all_archs ?cycles ?jobs machine]
    runs the flow.  [timeout] (default 120 s) bounds the OSTR search.
    [conventional] (default [false]) also builds fig. 1, [all_archs]
    (default [false]) figs. 2 and 3; either one minimizes block C,
    expensive on large machines, hence opt-in.  [cycles] (default 1, all
    the static passes need) is the length of every self-test session.
    [jobs] (default 1) fans the minimizations over that many domains
    (the covers do not depend on it) and is stored as [pass_jobs]. *)
val of_machine :
  ?timeout:float -> ?conventional:bool -> ?all_archs:bool -> ?cycles:int ->
  ?jobs:int -> Stc_fsm.Machine.t -> t

(** [of_realization ?conventional ?all_archs ?cycles ?jobs realization]
    runs the flow from an existing realization, without re-running the
    solver (used by drivers that already solved). *)
val of_realization :
  ?conventional:bool -> ?all_archs:bool -> ?cycles:int -> ?jobs:int ->
  Stc_core.Realization.t -> t

(** [structure ctx label] is the built structure ["fig1"] ... ["fig4"].
    @raise Invalid_argument when [ctx] did not build it. *)
val structure : t -> string -> Stc_faultsim.Arch.built

(** [subject ctx label] is the diagnostic subject ["name/label"] for a
    sub-artifact, or just [name] when [label] is empty. *)
val subject : t -> string -> string
