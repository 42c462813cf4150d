module Code = Stc_encoding.Code
module Tables = Stc_encoding.Tables
module Machine = Stc_fsm.Machine
module Zoo = Stc_fsm.Zoo
module Cover = Stc_logic.Cover
module Cube = Stc_logic.Cube
module Realization = Stc_core.Realization
module Partition = Stc_partition.Partition
module Rng = Stc_util.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Code                                                                *)
(* ------------------------------------------------------------------ *)

let test_binary () =
  let c = Code.binary ~num_states:5 in
  check_int "width" 3 c.Code.width;
  check_int "code of 4" 4 c.Code.codes.(4);
  check_bool "bit accessor msb-first" true (Code.bit c ~state:4 ~k:0);
  check_bool "bit accessor lsb" false (Code.bit c ~state:4 ~k:2)

let test_gray_adjacent () =
  let c = Code.gray ~num_states:8 in
  let popcount v =
    let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc + (v land 1)) in
    go v 0
  in
  for s = 0 to 6 do
    check_int "adjacent codes differ by 1 bit" 1
      (popcount (c.Code.codes.(s) lxor c.Code.codes.(s + 1)))
  done

let test_one_hot () =
  let c = Code.one_hot ~num_states:4 in
  check_int "width" 4 c.Code.width;
  Array.iter
    (fun v -> check_bool "single bit" true (v land (v - 1) = 0 && v <> 0))
    c.Code.codes

let test_make_validation () =
  check_bool "duplicate rejected" true
    (match Code.make ~width:2 [| 1; 1 |] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_bool "range rejected" true
    (match Code.make ~width:2 [| 1; 4 |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_used_decode () =
  let c = Code.make ~width:2 [| 2; 0 |] in
  let used = Code.used c in
  check_bool "used flags" true (used = [| true; false; true; false |]);
  check_bool "decode" true (Code.decode c 2 = Some 0 && Code.decode c 1 = None)

let test_heuristic_never_worse () =
  List.iter
    (fun m ->
      let binary = Code.binary ~num_states:m.Machine.num_states in
      let h = Code.heuristic m in
      check_bool
        (m.Machine.name ^ " heuristic <= binary")
        true
        (Code.adjacency_cost m h <= Code.adjacency_cost m binary))
    [ Zoo.paper_fig5 (); Zoo.shift_register ~bits:3; Zoo.counter ~modulus:6 ]

let test_adjacency_cost_example () =
  (* Self-loops cost 0; a transition between codes 00 and 11 costs 2. *)
  let m =
    Machine.make ~name:"adj" ~num_states:2 ~num_inputs:1 ~num_outputs:1
      ~next:[| [| 1 |]; [| 1 |] |]
      ~output:[| [| 0 |]; [| 0 |] |]
      ()
  in
  let c = Code.make ~width:2 [| 0; 3 |] in
  check_int "cost" 2 (Code.adjacency_cost m c)
  (* 0->1 costs 2, 1->1 costs 0 *)

(* ------------------------------------------------------------------ *)
(* Tables: conventional                                                *)
(* ------------------------------------------------------------------ *)

let eval_bits cover v = Cover.eval cover v

let minterm_of ~enc ~input_sym ~code_word =
  let iw = enc.Tables.input_width in
  let w = enc.Tables.state_code.Code.width in
  (input_sym lsl w) lor code_word
  |> fun v ->
  ignore iw;
  v

let test_conventional_semantics () =
  List.iter
    (fun m ->
      let enc = Tables.encode m in
      let on, dc = Tables.conventional enc in
      let w = enc.Tables.state_code.Code.width in
      let ow = enc.Tables.output_width in
      for s = 0 to m.Machine.num_states - 1 do
        for i = 0 to m.Machine.num_inputs - 1 do
          let v = minterm_of ~enc ~input_sym:i ~code_word:enc.Tables.state_code.Code.codes.(s) in
          let row = eval_bits on v in
          let expect_ns = enc.Tables.state_code.Code.codes.(m.Machine.next.(s).(i)) in
          let expect_out = enc.Tables.output_codes.(m.Machine.output.(s).(i)) in
          for k = 0 to w - 1 do
            check_bool
              (Printf.sprintf "%s ns bit (s=%d i=%d k=%d)" m.Machine.name s i k)
              (expect_ns land (1 lsl (w - 1 - k)) <> 0)
              row.(k)
          done;
          for k = 0 to ow - 1 do
            check_bool
              (Printf.sprintf "%s out bit (s=%d i=%d k=%d)" m.Machine.name s i k)
              (expect_out land (1 lsl (ow - 1 - k)) <> 0)
              row.(w + k)
          done;
          (* specified entries are never don't-care *)
          check_bool "dc disjoint from specified rows" true
            (Array.for_all not (eval_bits dc v))
        done
      done)
    [ Zoo.paper_fig5 (); Zoo.shift_register ~bits:3; Zoo.counter ~modulus:5 ]

let test_conventional_dc_on_unused_codes () =
  (* counter 5 uses 5 of 8 codes: 3 unused code words are fully dc. *)
  let m = Zoo.counter ~modulus:5 in
  let enc = Tables.encode m in
  let _, dc = Tables.conventional enc in
  let unused = [ 5; 6; 7 ] in
  List.iter
    (fun word ->
      let v = minterm_of ~enc ~input_sym:1 ~code_word:word in
      check_bool "unused code is dc" true (Array.for_all Fun.id (eval_bits dc v)))
    unused

let test_encode_respects_kiss_names () =
  let m = Zoo.paper_fig5 () in
  let enc = Tables.encode m in
  check_int "input width from names" 1 enc.Tables.input_width;
  check_int "output width from names" 1 enc.Tables.output_width;
  (* outputs named "0"/"1" map to codes 0/1 *)
  check_int "output code" 1 enc.Tables.output_codes.(1)

let test_encode_rejects_mismatched_code () =
  let m = Zoo.paper_fig5 () in
  check_bool "rejected" true
    (match Tables.encode ~state_code:(Code.binary ~num_states:7) m with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Tables: pipeline                                                    *)
(* ------------------------------------------------------------------ *)

let fig5_pipeline () =
  let m = Zoo.paper_fig5 () in
  let pi = Partition.of_blocks ~n:4 [ [ 0; 1 ]; [ 2; 3 ] ] in
  let rho = Partition.of_blocks ~n:4 [ [ 0; 3 ]; [ 1; 2 ] ] in
  Tables.pipeline (Realization.build m ~pi ~rho)

let test_pipeline_factor_semantics () =
  let p = fig5_pipeline () in
  let r = p.Tables.realization in
  let iw = p.Tables.enc.Tables.input_width in
  let w1 = p.Tables.code1.Code.width and w2 = p.Tables.code2.Code.width in
  (* c1 : (input, code1 c1) -> code2 (delta1 c1 i) *)
  Array.iteri
    (fun c1 row ->
      Array.iteri
        (fun i target ->
          let v = (i lsl w1) lor p.Tables.code1.Code.codes.(c1) in
          let bits = Cover.eval p.Tables.c1_on v in
          let expect = p.Tables.code2.Code.codes.(target) in
          for k = 0 to w2 - 1 do
            check_bool "c1 bit" (expect land (1 lsl (w2 - 1 - k)) <> 0) bits.(k)
          done)
        row)
    r.Realization.delta1;
  ignore iw

let test_pipeline_lambda_semantics () =
  let p = fig5_pipeline () in
  let r = p.Tables.realization in
  let m = r.Realization.spec in
  let w1 = p.Tables.code1.Code.width and w2 = p.Tables.code2.Code.width in
  for s = 0 to m.Machine.num_states - 1 do
    let c1 = Partition.class_of r.Realization.pi s in
    let c2 = Partition.class_of r.Realization.rho s in
    for i = 0 to m.Machine.num_inputs - 1 do
      let v =
        (((i lsl w1) lor p.Tables.code1.Code.codes.(c1)) lsl w2)
        lor p.Tables.code2.Code.codes.(c2)
      in
      let bits = Cover.eval p.Tables.lambda_on v in
      let expect = p.Tables.enc.Tables.output_codes.(m.Machine.output.(s).(i)) in
      let ow = p.Tables.enc.Tables.output_width in
      for k = 0 to ow - 1 do
        check_bool "lambda bit" (expect land (1 lsl (ow - 1 - k)) <> 0) bits.(k)
      done
    done
  done

let test_pipeline_lambda_dc_on_empty_intersections () =
  (* dk27-style realization: most product states are fillers -> dc. *)
  let rng = Rng.create 321 in
  let info =
    Stc_fsm.Generate.block_product ~rng ~name:"dcs"
      ~blocks:((1, 2) :: List.init 4 (fun _ -> (1, 1)))
      ~num_inputs:2 ~num_outputs:4 ~distinct_signatures:false ()
  in
  let m = info.Stc_fsm.Generate.machine in
  let pi = Partition.of_class_map info.Stc_fsm.Generate.pi_classes in
  let rho = Partition.of_class_map info.Stc_fsm.Generate.rho_classes in
  let p = Tables.pipeline (Realization.build m ~pi ~rho) in
  check_bool "has dc cubes" true (Cover.size p.Tables.lambda_dc > 0)

let test_flow_pipeline_widths () =
  let ctx = Stc_analysis.Context.of_machine (Zoo.shift_register ~bits:3) in
  let p = ctx.Stc_analysis.Context.tables in
  check_int "w1 + w2 = 3 flipflops"
    3
    (p.Tables.code1.Code.width + p.Tables.code2.Code.width)

let test_pipeline_code_mismatch_rejected () =
  let m = Zoo.paper_fig5 () in
  let pi = Partition.of_blocks ~n:4 [ [ 0; 1 ]; [ 2; 3 ] ] in
  let rho = Partition.of_blocks ~n:4 [ [ 0; 3 ]; [ 1; 2 ] ] in
  let r = Realization.build m ~pi ~rho in
  check_bool "rejected" true
    (match Tables.pipeline ~code1:(Code.binary ~num_states:5) r with
    | exception Invalid_argument _ -> true
    | _ -> false)

let () =
  Alcotest.run "stc_encoding"
    [
      ( "code",
        [
          Alcotest.test_case "binary" `Quick test_binary;
          Alcotest.test_case "gray adjacency" `Quick test_gray_adjacent;
          Alcotest.test_case "one hot" `Quick test_one_hot;
          Alcotest.test_case "make validation" `Quick test_make_validation;
          Alcotest.test_case "used/decode" `Quick test_used_decode;
          Alcotest.test_case "heuristic never worse" `Quick test_heuristic_never_worse;
          Alcotest.test_case "adjacency cost" `Quick test_adjacency_cost_example;
        ] );
      ( "conventional",
        [
          Alcotest.test_case "semantics" `Quick test_conventional_semantics;
          Alcotest.test_case "dc on unused codes" `Quick
            test_conventional_dc_on_unused_codes;
          Alcotest.test_case "kiss names" `Quick test_encode_respects_kiss_names;
          Alcotest.test_case "rejects bad code" `Quick test_encode_rejects_mismatched_code;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "factor semantics" `Quick test_pipeline_factor_semantics;
          Alcotest.test_case "lambda semantics" `Quick test_pipeline_lambda_semantics;
          Alcotest.test_case "lambda dc on fillers" `Quick
            test_pipeline_lambda_dc_on_empty_intersections;
          Alcotest.test_case "flow register widths" `Quick test_flow_pipeline_widths;
          Alcotest.test_case "code mismatch rejected" `Quick
            test_pipeline_code_mismatch_rejected;
        ] );
    ]
