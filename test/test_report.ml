module Table = Stc_report.Table
module Experiments = Stc_report.Experiments
module Suite = Stc_benchmarks.Suite
module Solver = Stc_core.Solver

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Table                                                               *)
(* ------------------------------------------------------------------ *)

let test_table_layout () =
  let s = Table.render ~header:[ "a"; "bb" ] [ [ "11"; "2" ]; [ "3"; "444" ] ] in
  check_string "layout" "a   bb \n--  ---\n11  2  \n3   444\n" s

let test_table_ragged_rows () =
  let s = Table.render ~header:[ "x" ] [ [ "1"; "2" ]; [] ] in
  check_bool "extra column padded" true (contains s "1  2");
  check_int "four lines" 4
    (List.length (String.split_on_char '\n' (String.trim s)) + 1)

(* ------------------------------------------------------------------ *)
(* Experiments                                                         *)
(* ------------------------------------------------------------------ *)

let test_table1_driver_row () =
  let entries = Experiments.table1 ~names:[ "shiftreg"; "tav" ] () in
  check_int "two rows" 2 (List.length entries);
  let shiftreg = List.hd entries in
  check_int "pipeline FFs" 3 shiftreg.Experiments.ff_pipeline;
  check_int "conventional FFs" 6 shiftreg.Experiments.ff_conventional;
  let rendered = Experiments.render_table1 entries in
  check_bool "mentions paper column" true (contains rendered "paper S1/S2");
  check_bool "row present" true (contains rendered "shiftreg")

let test_table2_driver_row () =
  let entries = Experiments.table1 ~names:[ "shiftreg" ] () in
  let rendered = Experiments.render_table2 entries in
  check_bool "power-of-two search space" true (contains rendered "2^7");
  check_bool "paper count present" true (contains rendered "45")

let test_area_driver () =
  let entries = Experiments.area ~names:[ "shiftreg" ] () in
  let e = List.hd entries in
  check_bool "pipeline literals at most doubled" true
    (e.Experiments.pipe_literals <= e.Experiments.doubled_literals);
  check_bool "renders" true
    (contains (Experiments.render_area entries) "doubled lits")

let test_coverage_driver () =
  let entries = Experiments.coverage ~cycles:256 ~names:[ "shiftreg" ] () in
  let e = List.hd entries in
  check_bool "fig4 at least fig2 coverage" true
    (e.Experiments.fig4_coverage >= e.Experiments.fig2_coverage);
  check_int "fig4 flip-flops" 3 e.Experiments.fig4_ff;
  check_bool "fig2 leaves feedback faults" true
    (e.Experiments.fig2_escaped_feedback > 0)

let test_strategies_driver () =
  let entries = Experiments.strategies ~cycles:256 ~names:[ "shiftreg" ] () in
  let e = List.hd entries in
  check_bool "scan pays shift overhead" true
    (e.Experiments.scan_cycles > e.Experiments.bist_cycles);
  check_bool "renders" true
    (contains (Experiments.render_strategies entries) "BIST cycles")

let test_extensions_driver () =
  (* 2-stage flip-flops, flip-flops after splitting and states added on
     the five default machines. *)
  let expected =
    [ ("shiftreg", 3, 3, 0); ("fig5", 2, 2, 0); ("dk27", 6, 6, 0);
      ("tav", 2, 2, 0); ("counter8", 6, 6, 0) ]
  in
  let entries = Experiments.extensions ~timeout:5.0 () in
  check_int "default machines" (List.length expected) (List.length entries);
  List.iter2
    (fun (name, base, split, added) (e : Experiments.extension_entry) ->
      check_string "row order" name e.Experiments.name;
      check_int (name ^ " 2-stage FFs") base e.Experiments.base_bits;
      check_int (name ^ " after split") split e.Experiments.split_bits;
      check_int (name ^ " states added") added e.Experiments.split_states_added)
    expected entries;
  check_bool "renders" true
    (contains (Experiments.render_extensions entries) "states added")

let test_machine_named () =
  check_bool "benchmark" true (Experiments.machine_named "dk27" <> None);
  check_bool "zoo" true (Experiments.machine_named "counter8" <> None);
  check_bool "unknown" true (Experiments.machine_named "nonesuch" = None)

let test_unknown_names_rejected () =
  check_bool "rejected" true
    (match Experiments.table1 ~names:[ "nonesuch" ] () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let () =
  Alcotest.run "stc_report"
    [
      ( "table",
        [
          Alcotest.test_case "layout" `Quick test_table_layout;
          Alcotest.test_case "ragged rows" `Quick test_table_ragged_rows;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "table1 driver" `Quick test_table1_driver_row;
          Alcotest.test_case "table2 driver" `Quick test_table2_driver_row;
          Alcotest.test_case "area driver" `Quick test_area_driver;
          Alcotest.test_case "coverage driver" `Quick test_coverage_driver;
          Alcotest.test_case "strategies driver" `Quick test_strategies_driver;
          Alcotest.test_case "extensions driver" `Quick test_extensions_driver;
          Alcotest.test_case "machine_named" `Quick test_machine_named;
          Alcotest.test_case "unknown names rejected" `Quick
            test_unknown_names_rejected;
        ] );
    ]
