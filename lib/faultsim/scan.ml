module Netlist = Stc_netlist.Netlist
module Tables = Stc_encoding.Tables
module Lfsr = Stc_bist.Lfsr

type result = {
  report : Session.report;
  patterns : int;
  chain_length : int;
  test_cycles : int;
  extra_muxes : int;
}

let run ?jobs ?naive ?(patterns = 1024) ~cover (enc : Tables.encoded) =
  let built = Arch.conventional ~cover enc in
  let net = built.Arch.netlist in
  let w = enc.Tables.state_code.Stc_encoding.Code.width in
  let iw = enc.Tables.input_width in
  (* Pseudo-random (input, scanned state) patterns from one wide LFSR, as
     in Arch's session generators. *)
  let gen = Lfsr.create ~width:(min 32 (max 8 (iw + w + 2))) ~seed:0b1011 () in
  let stimuli =
    Array.init patterns (fun _ ->
        let v = Lfsr.next_pattern gen in
        Array.init (iw + w) (fun k -> (v lsr k) land 1))
  in
  let observed = Array.map snd net.Netlist.outputs in
  let report =
    Session.run ?jobs ?naive
      ~label:(enc.Tables.machine.Stc_fsm.Machine.name ^ " scan")
      net ~stimuli ~observed
  in
  {
    report;
    patterns;
    chain_length = w;
    test_cycles = patterns * (w + 1);
    extra_muxes = w;
  }
