(* Exhaustive word-parallel evaluation of netlist obligations.  See
   exhaustive.mli for the point numbering and the consumers. *)

module Netlist = Stc_netlist.Netlist
module Cover = Stc_logic.Cover
module Cube = Stc_logic.Cube
module Metrics = Stc_obs.Metrics
module Word = Stc_bits.Word

let max_inputs = 22

let max_points = 1 lsl max_inputs

let fits n = n >= 0 && n <= max_inputs

let slice_words = 64

let word_bits = Netlist.word_bits

let full = (1 lsl word_bits) - 1

type space = {
  order : int array;
  base : int array;  (* per input position: its word when not enumerated *)
  points : int;
}

let space (net : Netlist.t) ?(pinned = []) order =
  let n_in = Array.length net.Netlist.inputs in
  let m = Array.length order in
  if not (fits m) then invalid_arg "Exhaustive.space: too many points";
  let seen = Array.make n_in false in
  let claim k =
    if k < 0 || k >= n_in || seen.(k) then
      invalid_arg "Exhaustive.space: bad input position";
    seen.(k) <- true
  in
  Array.iter claim order;
  let base = Array.make n_in 0 in
  List.iter
    (fun (k, v) ->
      claim k;
      if v then base.(k) <- full)
    pinned;
  { order; base; points = 1 lsl m }

(* The lanes where bit [i] of point [p0 + lane] is set.  A bit at or
   above 6 changes at most once within a word of 62 lanes; the lower
   bits repeat with period [2^(i+1)] and come from a table indexed by
   [p0] modulo that period. *)
let low_bits =
  Array.init 6 (fun i ->
      Array.init (1 lsl (i + 1)) (fun o ->
          let w = ref 0 in
          for lane = 0 to word_bits - 1 do
            if ((o + lane) lsr i) land 1 = 1 then w := !w lor (1 lsl lane)
          done;
          !w))

let bit_word p0 i =
  if i < 6 then low_bits.(i).(p0 land ((2 lsl i) - 1))
  else
    let ones = (p0 lsr i) land 1 = 1 in
    let before = (((p0 lsr i) + 1) lsl i) - p0 in
    if before >= word_bits then if ones then full else 0
    else
      let low = (1 lsl before) - 1 in
      if ones then low else full land lnot low

let iter s f =
  let m = Array.length s.order in
  let slice_points = slice_words * word_bits in
  let rec go first =
    if first < s.points then begin
      let n = min slice_points (s.points - first) in
      let batches = (n + word_bits - 1) / word_bits in
      let words =
        Array.init batches (fun b ->
            let p0 = first + (b * word_bits) in
            let w = Array.copy s.base in
            Array.iteri (fun j k -> w.(k) <- bit_word p0 (m - 1 - j)) s.order;
            w)
      in
      let masks =
        Array.init batches (fun b ->
            let valid = min word_bits (n - (b * word_bits)) in
            (1 lsl valid) - 1)
      in
      if f ~first { Engine.cycles = n; words; masks } then go (first + n)
    end
  in
  go 0

let lowest ~first ~batch diff = first + (batch * word_bits) + Word.ffs diff

let assignment s point =
  let m = Array.length s.order in
  let a = Array.map (fun w -> w <> 0) s.base in
  Array.iteri (fun j k -> a.(k) <- (point lsr (m - 1 - j)) land 1 = 1) s.order;
  a

(* ------------------------------------------------------------------ *)
(* Gate evaluation over one word                                        *)
(* ------------------------------------------------------------------ *)

let load (net : Netlist.t) ~words ~values =
  Array.iteri (fun k g -> values.(g) <- words.(k)) net.Netlist.inputs

let eval_gates (net : Netlist.t) gates values =
  let all = net.Netlist.gates in
  for i = 0 to Array.length gates - 1 do
    let g = Array.unsafe_get gates i in
    values.(g) <- Netlist.eval_gate values g all.(g)
  done

(* ------------------------------------------------------------------ *)
(* Covers                                                               *)
(* ------------------------------------------------------------------ *)

(* Per cube: its literals as (variable, positive) and its outputs. *)
type spec = {
  cubes : ((int * bool) array * int array) array;
  num_outputs : int;
}

let spec (c : Cover.t) =
  let cube q =
    let lits =
      List.filter_map
        (fun v ->
          match Cube.get q v with
          | Cube.Zero -> Some (v, false)
          | Cube.One -> Some (v, true)
          | Cube.Dc -> None)
        (List.init c.Cover.num_vars Fun.id)
    in
    let outs =
      List.filter (Cube.output_bit q) (List.init c.Cover.num_outputs Fun.id)
    in
    (Array.of_list lits, Array.of_list outs)
  in
  { cubes = Array.map cube c.Cover.cubes; num_outputs = c.Cover.num_outputs }

let spec_eval s vars ~into =
  Array.fill into 0 s.num_outputs 0;
  Array.iter
    (fun (lits, outs) ->
      let acc = ref (-1) and j = ref 0 in
      let nl = Array.length lits in
      while !acc <> 0 && !j < nl do
        let v, pos = lits.(!j) in
        acc := !acc land (if pos then vars.(v) else lnot vars.(v));
        incr j
      done;
      if !acc <> 0 then Array.iter (fun o -> into.(o) <- into.(o) lor !acc) outs)
    s.cubes

let m_dense = Metrics.counter "verify.dense_obligations"

let m_sat = Metrics.counter "verify.sat_obligations"

let decided ~dense = Metrics.incr (if dense then m_dense else m_sat)
