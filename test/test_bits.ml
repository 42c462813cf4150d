(* Tests for the shared bit engine (lib/bits).

   The Word tests pin the SWAR kernels against the bit-serial loops they
   replaced at their former call sites (bist parity feedback, encoding
   popcount, faultsim first_lane), verbatim.  Arena.Stamped's epoch
   semantics get direct unit tests. *)

module Word = Stc_bits.Word
module Arena = Stc_bits.Arena
module Rng = Stc_util.Rng

let qcheck = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Word vs the retired bit-serial loops                                *)
(* ------------------------------------------------------------------ *)

(* The parity loop formerly in Bilbo/Lfsr/Misr. *)
let parity_loop v =
  let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc lxor (v land 1)) in
  go v 0

(* The popcount loop formerly in Code. *)
let popcount_loop v =
  let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc + (v land 1)) in
  go v 0

(* The lowest-set-bit scan formerly in Engine.first_lane. *)
let ffs_loop w =
  let rec go k w = if w land 1 = 1 then k else go (k + 1) (w lsr 1) in
  go 0 w

let edge_words =
  [ 1; 2; 3; (1 lsl 16) - 1; 1 lsl 16; 1 lsl 31; (1 lsl 48) + 5; 1 lsl 62; max_int; min_int; -1 ]

let test_word_vs_loops () =
  for v = 0 to 4096 do
    Alcotest.(check int) (Printf.sprintf "popcount %d" v) (popcount_loop v) (Word.popcount v);
    Alcotest.(check int) (Printf.sprintf "parity %d" v) (parity_loop v) (Word.parity v);
    if v <> 0 then
      Alcotest.(check int) (Printf.sprintf "ffs %d" v) (ffs_loop v) (Word.ffs v)
  done;
  List.iter
    (fun v ->
      Alcotest.(check int) (Printf.sprintf "popcount %x" v) (popcount_loop v) (Word.popcount v);
      Alcotest.(check int) (Printf.sprintf "parity %x" v) (parity_loop v) (Word.parity v);
      Alcotest.(check int) (Printf.sprintf "ffs %x" v) (ffs_loop v) (Word.ffs v))
    edge_words

let test_word_random =
  QCheck.Test.make ~count:2000 ~name:"Word kernels = bit-serial loops (random words)"
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let v = Int64.to_int (Rng.bits64 rng) in
      Word.popcount v = popcount_loop v
      && Word.parity v = parity_loop v
      && (v = 0 || Word.ffs v = ffs_loop v))

let test_word_edges () =
  Alcotest.(check int) "bits" 63 Word.bits;
  Alcotest.(check int) "popcount 0" 0 (Word.popcount 0);
  Alcotest.(check int) "popcount -1" 63 (Word.popcount (-1));
  Alcotest.(check int) "parity 0" 0 (Word.parity 0);
  Alcotest.check_raises "ffs 0" (Invalid_argument "Word.ffs: zero word") (fun () ->
      ignore (Word.ffs 0));
  Alcotest.(check int) "mask 0" 0 (Word.mask 0);
  Alcotest.(check int) "mask 5" 31 (Word.mask 5);
  Alcotest.(check int) "mask bits" (-1) (Word.mask Word.bits);
  Alcotest.check_raises "mask 64" (Invalid_argument "Word.mask: width out of range")
    (fun () -> ignore (Word.mask 64))

(* ------------------------------------------------------------------ *)
(* Arena                                                               *)
(* ------------------------------------------------------------------ *)

let test_arena_ensure () =
  let a = Array.make 4 7 in
  Alcotest.(check bool) "no growth returns same" true (Arena.ensure a 4 == a);
  let b = Arena.ensure a 5 in
  Alcotest.(check bool) "growth returns fresh" true (b != a);
  Alcotest.(check bool) "at least doubled" true (Array.length b >= 8);
  let c = Arena.ensure_bool [| true |] 3 in
  Alcotest.(check bool) "bool growth" true (Array.length c >= 3)

let test_arena_stamped () =
  let s = Arena.Stamped.create 4 in
  let _ = Arena.Stamped.bump s in
  Alcotest.(check bool) "fresh slot unwritten" true (not (Arena.Stamped.mem s 2));
  Alcotest.(check int) "default read" 42 (Arena.Stamped.get s 2 ~default:42);
  Arena.Stamped.set s 2 9;
  Alcotest.(check bool) "written" true (Arena.Stamped.mem s 2);
  Alcotest.(check int) "read back" 9 (Arena.Stamped.get s 2 ~default:42);
  let _ = Arena.Stamped.bump s in
  Alcotest.(check bool) "bump clears" true (not (Arena.Stamped.mem s 2));
  Alcotest.(check int) "cleared read" 42 (Arena.Stamped.get s 2 ~default:42);
  (* growth discards: grown slots read as unwritten in the current epoch *)
  Arena.Stamped.set s 0 1;
  Arena.Stamped.ensure s 100;
  Alcotest.(check bool) "grown slot unwritten" true (not (Arena.Stamped.mem s 99));
  let _ = Arena.Stamped.bump s in
  Arena.Stamped.set s 99 5;
  Alcotest.(check int) "grown slot writable" 5 (Arena.Stamped.get s 99 ~default:0)

let () =
  Alcotest.run "stc_bits"
    [
      ( "word",
        [
          Alcotest.test_case "kernels vs retired loops (exhaustive small)" `Quick
            test_word_vs_loops;
          qcheck test_word_random;
          Alcotest.test_case "edge cases" `Quick test_word_edges;
        ] );
      ( "arena",
        [
          Alcotest.test_case "ensure growth" `Quick test_arena_ensure;
          Alcotest.test_case "stamped epochs" `Quick test_arena_stamped;
        ] );
    ]
