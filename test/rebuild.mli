(** Netlist copies for the tests that compare verify's two engines. *)

(** [copy ?gate ?outputs ?pads net] rebuilds [net] gate for gate, so
    every original gate keeps its index.  [gate] may replace a gate's
    kind (default: unchanged), [outputs] the output list (default:
    [net.outputs]).  [pads] unused inputs named [zpad0], [zpad1], ...
    (default 0) are appended after every original gate: enough of them
    push every verify obligation past the dense engine's point bound,
    onto its SAT miters, without changing any function the netlist
    computes. *)
val copy :
  ?gate:(int -> Stc_netlist.Netlist.gate -> Stc_netlist.Netlist.gate) ->
  ?outputs:(string * int) array ->
  ?pads:int ->
  Stc_netlist.Netlist.t ->
  Stc_netlist.Netlist.t

(** The pad count that puts any netlist past the bound: one more than
    [log2 Exhaustive.max_points]. *)
val past_bound : int
