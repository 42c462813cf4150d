module Machine = Stc_fsm.Machine
module Kiss = Stc_fsm.Kiss
module Realization = Stc_core.Realization
module Partition = Stc_partition.Partition
module Cube = Stc_logic.Cube
module Cover = Stc_logic.Cover

type encoded = {
  machine : Machine.t;
  state_code : Code.t;
  input_width : int;
  output_width : int;
  output_codes : int array;
}

let bits_of ~width v =
  Array.init width (fun k ->
      if v land (1 lsl (width - 1 - k)) <> 0 then Cube.One else Cube.Zero)

let dc_bits width = Array.make width Cube.Dc

let int_of_binary s =
  String.fold_left (fun acc c -> (acc * 2) + if c = '1' then 1 else 0) 0 s

let encode ?state_code (machine : Machine.t) =
  let state_code =
    match state_code with
    | Some c ->
      if Array.length c.Code.codes <> machine.num_states then
        invalid_arg "Tables.encode: state code size mismatch";
      c
    | None -> Code.binary ~num_states:machine.num_states
  in
  let input_width =
    match Kiss.input_bits machine with
    | w -> w
    | exception Invalid_argument _ -> max 1 (Machine.bits_for machine.num_inputs)
  in
  let output_width, output_codes =
    match Kiss.output_bits machine with
    | w -> (w, Array.map int_of_binary machine.output_names)
    | exception Invalid_argument _ ->
      ( max 1 (Machine.bits_for machine.num_outputs),
        Array.init machine.num_outputs (fun o -> o) )
  in
  { machine; state_code; input_width; output_width; output_codes }

(* Append a cube asserting the 1-bits of [value] (width [out_width]) at
   output offset [off]; skip when no bit is set. *)
let add_row acc ~input ~num_outputs ~off ~out_width value =
  let output = Array.make num_outputs false in
  let any = ref false in
  for k = 0 to out_width - 1 do
    if value land (1 lsl (out_width - 1 - k)) <> 0 then begin
      output.(off + k) <- true;
      any := true
    end
  done;
  if !any then Cube.make ~input ~output :: acc else acc

let all_dc_row ~input ~num_outputs =
  Cube.make ~input ~output:(Array.make num_outputs true)

let conventional enc =
  let m = enc.machine in
  let w = enc.state_code.Code.width in
  let num_vars = enc.input_width + w in
  let num_outputs = w + enc.output_width in
  let on = ref [] in
  for s = 0 to m.num_states - 1 do
    for i = 0 to m.num_inputs - 1 do
      let input =
        Array.append (bits_of ~width:enc.input_width i)
          (bits_of ~width:w enc.state_code.Code.codes.(s))
      in
      let value =
        (enc.state_code.Code.codes.(m.next.(s).(i)) lsl enc.output_width)
        lor enc.output_codes.(m.output.(s).(i))
      in
      on := add_row !on ~input ~num_outputs ~off:0 ~out_width:num_outputs value
    done
  done;
  let dc = ref [] in
  Array.iteri
    (fun word taken ->
      if not taken then begin
        let input = Array.append (dc_bits enc.input_width) (bits_of ~width:w word) in
        dc := all_dc_row ~input ~num_outputs :: !dc
      end)
    (Code.used enc.state_code);
  ( Cover.make ~num_vars ~num_outputs (List.rev !on),
    Cover.make ~num_vars ~num_outputs !dc )

type pipeline = {
  realization : Realization.t;
  code1 : Code.t;
  code2 : Code.t;
  enc : encoded;
  c1_on : Cover.t;
  c1_dc : Cover.t;
  c2_on : Cover.t;
  c2_dc : Cover.t;
  lambda_on : Cover.t;
  lambda_dc : Cover.t;
}

(* One factor block: delta is [k x num_inputs] over classes; [code_in] the
   source register's code, [code_out] the target register's code. *)
let factor_block ~input_width ~num_inputs ~delta ~code_in ~code_out =
  let w_in = code_in.Code.width and w_out = code_out.Code.width in
  let num_vars = input_width + w_in in
  let on = ref [] in
  Array.iteri
    (fun c row ->
      for i = 0 to num_inputs - 1 do
        let input =
          Array.append (bits_of ~width:input_width i)
            (bits_of ~width:w_in code_in.Code.codes.(c))
        in
        on :=
          add_row !on ~input ~num_outputs:w_out ~off:0 ~out_width:w_out
            code_out.Code.codes.(row.(i))
      done)
    delta;
  let dc = ref [] in
  Array.iteri
    (fun word taken ->
      if not taken then begin
        let input = Array.append (dc_bits input_width) (bits_of ~width:w_in word) in
        dc := all_dc_row ~input ~num_outputs:w_out :: !dc
      end)
    (Code.used code_in);
  ( Cover.make ~num_vars ~num_outputs:w_out (List.rev !on),
    Cover.make ~num_vars ~num_outputs:w_out !dc )

let pipeline ?code1 ?code2 (r : Realization.t) =
  let m = r.Realization.spec in
  let k1 = Realization.num_s1 r and k2 = Realization.num_s2 r in
  let code1 = match code1 with Some c -> c | None -> Code.binary ~num_states:k1 in
  let code2 = match code2 with Some c -> c | None -> Code.binary ~num_states:k2 in
  if Array.length code1.Code.codes <> k1 || Array.length code2.Code.codes <> k2
  then invalid_arg "Tables.pipeline: code size mismatch";
  let enc = encode m in
  let c1_on, c1_dc =
    factor_block ~input_width:enc.input_width ~num_inputs:m.num_inputs
      ~delta:r.Realization.delta1 ~code_in:code1 ~code_out:code2
  in
  let c2_on, c2_dc =
    factor_block ~input_width:enc.input_width ~num_inputs:m.num_inputs
      ~delta:r.Realization.delta2 ~code_in:code2 ~code_out:code1
  in
  (* Output block Lambda over (inputs, R1, R2). *)
  let w1 = code1.Code.width and w2 = code2.Code.width in
  let num_vars = enc.input_width + w1 + w2 in
  let num_outputs = enc.output_width in
  let witness = Array.make (k1 * k2) (-1) in
  for s = m.num_states - 1 downto 0 do
    let c1 = Partition.class_of r.Realization.pi s
    and c2 = Partition.class_of r.Realization.rho s in
    witness.((c1 * k2) + c2) <- s
  done;
  let lambda_on = ref [] and lambda_dc = ref [] in
  for c1 = 0 to k1 - 1 do
    for c2 = 0 to k2 - 1 do
      let codes =
        Array.append
          (bits_of ~width:w1 code1.Code.codes.(c1))
          (bits_of ~width:w2 code2.Code.codes.(c2))
      in
      let s = witness.((c1 * k2) + c2) in
      if s < 0 then
        (* Empty class intersection: Theorem 1 allows any output o*. *)
        lambda_dc :=
          all_dc_row ~input:(Array.append (dc_bits enc.input_width) codes)
            ~num_outputs
          :: !lambda_dc
      else
        for i = 0 to m.num_inputs - 1 do
          let input = Array.append (bits_of ~width:enc.input_width i) codes in
          lambda_on :=
            add_row !lambda_on ~input ~num_outputs ~off:0 ~out_width:num_outputs
              enc.output_codes.(m.output.(s).(i))
        done
    done
  done;
  (* Unused register code words are also don't-cares. *)
  Array.iteri
    (fun word taken ->
      if not taken then begin
        let input =
          Array.concat [ dc_bits enc.input_width; bits_of ~width:w1 word; dc_bits w2 ]
        in
        lambda_dc := all_dc_row ~input ~num_outputs :: !lambda_dc
      end)
    (Code.used code1);
  Array.iteri
    (fun word taken ->
      if not taken then begin
        let input =
          Array.concat [ dc_bits enc.input_width; dc_bits w1; bits_of ~width:w2 word ]
        in
        lambda_dc := all_dc_row ~input ~num_outputs :: !lambda_dc
      end)
    (Code.used code2);
  {
    realization = r;
    code1;
    code2;
    enc;
    c1_on;
    c1_dc;
    c2_on;
    c2_dc;
    lambda_on = Cover.make ~num_vars ~num_outputs (List.rev !lambda_on);
    lambda_dc = Cover.make ~num_vars ~num_outputs !lambda_dc;
  }
