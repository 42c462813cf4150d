module Netlist = Stc_netlist.Netlist
module Machine = Stc_fsm.Machine
module Tables = Stc_encoding.Tables
module Builder = Netlist.Builder
module Lfsr = Stc_bist.Lfsr
module Misr = Stc_bist.Misr

type built = {
  label : string;
  netlist : Netlist.t;
  sessions : (Session.stimuli * int array) list;
  tags : (string * int list) list;
  flipflops : int;
}

(* MSB-first bits of [word], as 0/1 ints. *)
let word_bits ~width word =
  Array.init width (fun k -> (word lsr (width - 1 - k)) land 1)

let range first count = List.init count (fun k -> first + k)

(* Read the given gates' fault-free values in one simulation lane as a
   word, MSB-first. *)
let read_word ?(lane = 0) values gates =
  Array.fold_left
    (fun acc g -> (acc lsl 1) lor ((values.(g) lsr lane) land 1))
    0 gates

(* Session pattern generator.  A width-w LFSR never reaches the all-zero
   state and degenerates entirely for w <= 2; and two separate LFSRs over
   the same polynomial produce linearly dependent streams, which can leave
   whole subspaces of the joint pattern space unvisited.  Real BIST
   designs handle this with zero injection and distinct feedback
   polynomials; we model it by drawing ALL pattern fields of a session
   from one sufficiently wide LFSR, whose sliced bit fields are linearly
   independent functions of the sequence. *)
module Patterns = struct
  type t = { lfsr : Lfsr.t; fields : (int * int) array (* offset, width *) }

  let create ~widths ~seed =
    let total = Array.fold_left ( + ) 0 widths in
    let fields = Array.make (Array.length widths) (0, 0) in
    let offset = ref 0 in
    Array.iteri
      (fun k w ->
        fields.(k) <- (!offset, w);
        offset := !offset + w)
      widths;
    let lfsr_width = min 32 (max 8 (total + 2)) in
    if total > 30 then invalid_arg "Patterns.create: too many pattern bits";
    { lfsr = Lfsr.create ~width:lfsr_width ~seed:(max 1 seed) (); fields }

  let field t k =
    let offset, width = t.fields.(k) in
    (Lfsr.state t.lfsr lsr offset) land ((1 lsl width) - 1)

  let step t = ignore (Lfsr.step t.lfsr)
end

(* ------------------------------------------------------------------ *)
(* fig. 1: conventional structure, no test hardware                    *)
(* ------------------------------------------------------------------ *)

let conventional ~cover (enc : Tables.encoded) =
  let machine = enc.Tables.machine in
  let w = enc.Tables.state_code.Stc_encoding.Code.width in
  let b = Builder.create (machine.Machine.name ^ "_fig1") in
  let primary =
    Array.init enc.Tables.input_width (fun k ->
        Builder.input b (Printf.sprintf "i%d" k))
  in
  let r = Array.init w (fun k -> Builder.input b (Printf.sprintf "r%d" k)) in
  let feedback = Array.map (fun g -> Builder.buf b g) r in
  let first_c = ref 0 in
  let outs =
    let inputs = Array.append primary feedback in
    first_c := Array.length (Builder.finish b).Netlist.gates;
    Builder.emit_cover b ~inputs cover
  in
  Array.iteri
    (fun k g ->
      let name =
        if k < w then Printf.sprintf "ns%d" k
        else Printf.sprintf "po%d" (k - w)
      in
      Builder.output b name g)
    outs;
  let netlist = Builder.finish b in
  {
    label = machine.Machine.name ^ " fig1 conventional";
    netlist;
    sessions = [];
    tags =
      [
        ("feedback", Array.to_list feedback);
        ("logic", range !first_c (Netlist.num_gates netlist - !first_c));
      ];
    flipflops = w;
  }

(* ------------------------------------------------------------------ *)
(* fig. 2: conventional BIST with test register and multiplexer        *)
(* ------------------------------------------------------------------ *)

let conventional_bist ?(cycles = 1024) ~cover (enc : Tables.encoded) =
  let machine = enc.Tables.machine in
  let w = enc.Tables.state_code.Stc_encoding.Code.width in
  let iw = enc.Tables.input_width in
  let ow = enc.Tables.output_width in
  let b = Builder.create (machine.Machine.name ^ "_fig2") in
  let primary = Array.init iw (fun k -> Builder.input b (Printf.sprintf "i%d" k)) in
  let r = Array.init w (fun k -> Builder.input b (Printf.sprintf "r%d" k)) in
  let t = Array.init w (fun k -> Builder.input b (Printf.sprintf "t%d" k)) in
  let test_mode = Builder.input b "test_mode" in
  let feedback = Array.map (fun g -> Builder.buf b g) r in
  let muxes =
    Array.init w (fun k -> Builder.mux b ~sel:test_mode ~a:feedback.(k) ~b:t.(k))
  in
  let first_c = Netlist.num_gates (Builder.finish b) in
  let outs = Builder.emit_cover b ~inputs:(Array.append primary muxes) cover in
  Array.iteri
    (fun k g ->
      let name =
        if k < w then Printf.sprintf "ns%d" k else Printf.sprintf "po%d" (k - w)
      in
      Builder.output b name g)
    outs;
  let netlist = Builder.finish b in
  let ns_gates = Array.sub outs 0 w and po_gates = Array.sub outs w ow in
  let observed = Array.append ns_gates po_gates in
  (* Stimuli: primary inputs and T are LFSRs; R replays the MISR that
     compresses the (fault-free) next-state lines; test_mode is 1. *)
  let stimuli = Array.make cycles [||] in
  let gen = Patterns.create ~widths:[| iw; w |] ~seed:0b10110 in
  let misr_r = Misr.create ~width:w ~seed:0 () in
  let values = Array.make (Netlist.num_gates netlist) 0 in
  for cycle = 0 to cycles - 1 do
    let vec =
      Array.concat
        [
          word_bits ~width:iw (Patterns.field gen 0);
          word_bits ~width:w (Misr.signature misr_r);
          word_bits ~width:w (Patterns.field gen 1);
          [| 1 |];
        ]
    in
    stimuli.(cycle) <- vec;
    Netlist.eval_into netlist ~values ~inputs:vec;
    ignore (Misr.absorb misr_r (read_word values ns_gates));
    Patterns.step gen
  done;
  {
    label = machine.Machine.name ^ " fig2 conventional BIST";
    netlist;
    sessions = [ (stimuli, observed) ];
    tags =
      [
        ("r-input", Array.to_list r);
        ("feedback", Array.to_list feedback);
        ("mux", Array.to_list muxes);
        ("logic", range first_c (Netlist.num_gates netlist - first_c));
      ];
    flipflops = 2 * w;
  }

(* ------------------------------------------------------------------ *)
(* fig. 3: doubled register and combinational circuitry                *)
(* ------------------------------------------------------------------ *)

let doubled ?(cycles = 1024) ~cover (enc : Tables.encoded) =
  let machine = enc.Tables.machine in
  let w = enc.Tables.state_code.Stc_encoding.Code.width in
  let iw = enc.Tables.input_width in
  let b = Builder.create (machine.Machine.name ^ "_fig3") in
  let primary = Array.init iw (fun k -> Builder.input b (Printf.sprintf "i%d" k)) in
  let ra = Array.init w (fun k -> Builder.input b (Printf.sprintf "ra%d" k)) in
  let rb = Array.init w (fun k -> Builder.input b (Printf.sprintf "rb%d" k)) in
  let fa = Array.map (fun g -> Builder.buf b g) ra in
  let fb = Array.map (fun g -> Builder.buf b g) rb in
  let outs_a = Builder.emit_cover b ~inputs:(Array.append primary fa) cover in
  let outs_b = Builder.emit_cover b ~inputs:(Array.append primary fb) cover in
  Array.iteri
    (fun k g ->
      let name =
        if k < w then Printf.sprintf "nsa%d" k else Printf.sprintf "poa%d" (k - w)
      in
      Builder.output b name g)
    outs_a;
  Array.iteri
    (fun k g ->
      let name =
        if k < w then Printf.sprintf "nsb%d" k else Printf.sprintf "pob%d" (k - w)
      in
      Builder.output b name g)
    outs_b;
  let netlist = Builder.finish b in
  let ns_a = Array.sub outs_a 0 w and ns_b = Array.sub outs_b 0 w in
  let session active_ns observe_all ~seed =
    let stimuli = Array.make cycles [||] in
    let gen = Patterns.create ~widths:[| iw; w |] ~seed in
    let misr = Misr.create ~width:w ~seed:0 () in
    let values = Array.make (Netlist.num_gates netlist) 0 in
    for cycle = 0 to cycles - 1 do
      let gen_bits = word_bits ~width:w (Patterns.field gen 1) in
      let cap_bits = word_bits ~width:w (Misr.signature misr) in
      let vec =
        if active_ns == ns_a then
          Array.concat [ word_bits ~width:iw (Patterns.field gen 0); gen_bits; cap_bits ]
        else
          Array.concat [ word_bits ~width:iw (Patterns.field gen 0); cap_bits; gen_bits ]
      in
      stimuli.(cycle) <- vec;
      Netlist.eval_into netlist ~values ~inputs:vec;
      ignore (Misr.absorb misr (read_word values active_ns));
      Patterns.step gen
    done;
    (stimuli, observe_all)
  in
  {
    label = machine.Machine.name ^ " fig3 doubled";
    netlist;
    sessions =
      [
        session ns_a outs_a ~seed:0b101;
        session ns_b outs_b ~seed:0b111;
      ];
    tags =
      [
        ("feedback", Array.to_list fa @ Array.to_list fb);
        ("logic", range (fb.(w - 1) + 1) (Netlist.num_gates netlist - fb.(w - 1) - 1));
      ];
    flipflops = 2 * w;
  }

(* ------------------------------------------------------------------ *)
(* fig. 4: optimized self-testable pipeline structure                  *)
(* ------------------------------------------------------------------ *)

let pipeline ?(cycles = 1024) ~covers:(c1, c2, lambda) (p : Tables.pipeline) =
  let enc = p.Tables.enc in
  let machine = enc.Tables.machine in
  let w1 = p.Tables.code1.Stc_encoding.Code.width in
  let w2 = p.Tables.code2.Stc_encoding.Code.width in
  let iw = enc.Tables.input_width in
  let b = Builder.create (machine.Machine.name ^ "_fig4") in
  let primary = Array.init iw (fun k -> Builder.input b (Printf.sprintf "i%d" k)) in
  let r1 = Array.init w1 (fun k -> Builder.input b (Printf.sprintf "r1_%d" k)) in
  let r2 = Array.init w2 (fun k -> Builder.input b (Printf.sprintf "r2_%d" k)) in
  let l1 = Array.map (fun g -> Builder.buf b g) r1 in
  let l2 = Array.map (fun g -> Builder.buf b g) r2 in
  let first_c1 = Netlist.num_gates (Builder.finish b) in
  let c1_out = Builder.emit_cover b ~inputs:(Array.append primary l1) c1 in
  let first_c2 = Netlist.num_gates (Builder.finish b) in
  let c2_out = Builder.emit_cover b ~inputs:(Array.append primary l2) c2 in
  let first_lambda = Netlist.num_gates (Builder.finish b) in
  let lambda_out =
    Builder.emit_cover b ~inputs:(Array.concat [ primary; l1; l2 ]) lambda
  in
  Array.iteri (fun k g -> Builder.output b (Printf.sprintf "r2n%d" k) g) c1_out;
  Array.iteri (fun k g -> Builder.output b (Printf.sprintf "r1n%d" k) g) c2_out;
  Array.iteri (fun k g -> Builder.output b (Printf.sprintf "po%d" k) g) lambda_out;
  let netlist = Builder.finish b in
  let session ~generator ~seed =
    (* generator = `R1: R1 runs as LFSR, R2 compresses C1; `R2 mirrored. *)
    let gen_width, cap_regs, compressed_gates =
      match generator with `R1 -> (w1, r2, c1_out) | `R2 -> (w2, r1, c2_out)
    in
    (* Offsets of the generator and MISR fields in an input vector. *)
    let gen_at, cap_at =
      match generator with `R1 -> (iw, iw + w1) | `R2 -> (iw + w1, iw)
    in
    (* The compressed block reads only the primary inputs and the
       generator's L-lines, so its fault-free responses follow from the
       pattern stream alone: evaluate it 62 cycles per word and step only
       the MISR cycle by cycle. *)
    let fanin = Netlist.fanin_cone netlist (Array.to_list compressed_gates) in
    if Array.exists (fun g -> fanin.(g)) cap_regs then
      invalid_arg "Arch.pipeline: the compressed block reads the MISR register";
    let cap_width = Array.length cap_regs in
    let gen = Patterns.create ~widths:[| iw; gen_width |] ~seed in
    (* MISR bits stay 0 until the responses are known. *)
    let stimuli =
      Array.init cycles (fun _ ->
          let vec = Array.make (iw + w1 + w2) 0 in
          Array.blit (word_bits ~width:iw (Patterns.field gen 0)) 0 vec 0 iw;
          Array.blit
            (word_bits ~width:gen_width (Patterns.field gen 1))
            0 vec gen_at gen_width;
          Patterns.step gen;
          vec)
    in
    let misr = Misr.create ~width:cap_width ~seed:0 () in
    let values = Array.make (Netlist.num_gates netlist) 0 in
    Array.iteri
      (fun b inputs ->
        Netlist.eval_into netlist ~values ~inputs;
        let first = b * Netlist.word_bits in
        for lane = 0 to min Netlist.word_bits (cycles - first) - 1 do
          Array.blit
            (word_bits ~width:cap_width (Misr.signature misr))
            0 stimuli.(first + lane) cap_at cap_width;
          ignore (Misr.absorb misr (read_word ~lane values compressed_gates))
        done)
      (Engine.pack stimuli).Engine.words;
    let observed =
      match generator with
      | `R1 -> Array.append c1_out lambda_out
      | `R2 -> Array.append c2_out lambda_out
    in
    (stimuli, observed)
  in
  {
    label = machine.Machine.name ^ " fig4 pipeline";
    netlist;
    sessions = [ session ~generator:`R1 ~seed:0b101; session ~generator:`R2 ~seed:0b111 ];
    tags =
      [
        ("r-lines", Array.to_list l1 @ Array.to_list l2);
        ("c1", range first_c1 (first_c2 - first_c1));
        ("c2", range first_c2 (first_lambda - first_c2));
        ("lambda", range first_lambda (Netlist.num_gates netlist - first_lambda));
      ];
    flipflops = w1 + w2;
  }

let grade ?jobs ?naive ?need_cycles built =
  Session.run_sessions ?jobs ?naive ?need_cycles ~label:built.label
    built.netlist built.sessions

let undetected_by_tag built (report : Session.report) =
  let counts = Hashtbl.create 8 in
  List.iter
    (fun fault ->
      let tag =
        match Session.fault_on fault built.tags with
        | Some t -> t
        | None -> "other"
      in
      Hashtbl.replace counts tag
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts tag)))
    report.Session.undetected;
  Hashtbl.fold (fun tag n acc -> (tag, n) :: acc) counts []
  |> List.sort compare
