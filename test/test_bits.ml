(* Tests for the shared bit engine (lib/bits).

   The Word tests pin the SWAR kernels against the bit-serial loops they
   replaced at their former call sites (bist parity feedback, encoding
   popcount, faultsim first_lane), verbatim.  Bitvec is checked against a
   naive bool-array spec.  Arena.Stamped's epoch semantics get direct
   unit tests. *)

module Word = Stc_bits.Word
module Bitvec = Stc_bits.Bitvec
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
(* Bitvec vs a bool-array spec                                         *)
(* ------------------------------------------------------------------ *)

let random_bools rng n = Array.init n (fun _ -> Rng.int rng 2 = 1)

let spec_binop f a b = Array.init (Array.length a) (fun i -> f a.(i) b.(i))

let test_bitvec_algebra =
  QCheck.Test.make ~count:500 ~name:"Bitvec set algebra = bool-array spec"
    QCheck.(pair (int_bound 100000) (int_range 1 200))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let a = random_bools rng n and b = random_bools rng n in
      let va = Bitvec.of_bools a and vb = Bitvec.of_bools b in
      Bitvec.to_bools (Bitvec.union va vb) = spec_binop ( || ) a b
      && Bitvec.to_bools (Bitvec.inter va vb) = spec_binop ( && ) a b
      && Bitvec.to_bools (Bitvec.diff va vb) = spec_binop (fun x y -> x && not y) a b
      && Bitvec.to_bools (Bitvec.symdiff va vb) = spec_binop ( <> ) a b
      && Bitvec.to_bools (Bitvec.compl va) = Array.map not a
      && Bitvec.to_bools va = a)

let count_true a = Array.fold_left (fun acc x -> if x then acc + 1 else acc) 0 a

let test_bitvec_queries =
  QCheck.Test.make ~count:500 ~name:"Bitvec queries = bool-array spec"
    QCheck.(pair (int_bound 100000) (int_range 1 200))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let a = random_bools rng n and b = random_bools rng n in
      let va = Bitvec.of_bools a and vb = Bitvec.of_bools b in
      let spec_first =
        let rec go i = if i >= n then None else if a.(i) then Some i else go (i + 1) in
        go 0
      in
      let members = ref [] in
      Bitvec.iter (fun i -> members := i :: !members) va;
      Bitvec.popcount va = count_true a
      && Bitvec.parity va = count_true a land 1
      && Bitvec.is_empty va = (count_true a = 0)
      && Bitvec.first_set va = spec_first
      && List.rev !members
         = List.filter (fun i -> a.(i)) (List.init n (fun i -> i))
      && Bitvec.fold (fun acc i -> acc + i) 0 va
         = List.fold_left ( + ) 0 (List.filter (fun i -> a.(i)) (List.init n (fun i -> i)))
      && Bitvec.subset (Bitvec.inter va vb) va
      && Bitvec.subset va vb
         = Array.for_all Fun.id (spec_binop (fun x y -> (not x) || y) a b)
      && Bitvec.disjoint va vb
         = (count_true (spec_binop ( && ) a b) = 0)
      && Bitvec.equal va vb = (a = b))

let test_bitvec_units () =
  let v = Bitvec.create 70 in
  Alcotest.(check int) "length" 70 (Bitvec.length v);
  Alcotest.(check bool) "fresh empty" true (Bitvec.is_empty v);
  Bitvec.set v 0;
  Bitvec.set v 63;
  Bitvec.set v 69;
  Alcotest.(check bool) "mem 63" true (Bitvec.mem v 63);
  Alcotest.(check int) "popcount" 3 (Bitvec.popcount v);
  let w = Bitvec.copy v in
  Bitvec.clear w 63;
  Alcotest.(check bool) "copy isolated" true (Bitvec.mem v 63 && not (Bitvec.mem w 63));
  (* complement keeps the tail bits (>= len) zero *)
  let c = Bitvec.compl v in
  Alcotest.(check int) "compl popcount" 67 (Bitvec.popcount c);
  Alcotest.check_raises "set out of range" (Invalid_argument "Bitvec: index out of range")
    (fun () -> Bitvec.set v 70);
  Alcotest.check_raises "mem negative" (Invalid_argument "Bitvec: index out of range")
    (fun () -> ignore (Bitvec.mem v (-1)))

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
      ( "bitvec",
        [
          qcheck test_bitvec_algebra;
          qcheck test_bitvec_queries;
          Alcotest.test_case "units" `Quick test_bitvec_units;
        ] );
      ( "arena",
        [
          Alcotest.test_case "ensure growth" `Quick test_arena_ensure;
          Alcotest.test_case "stamped epochs" `Quick test_arena_stamped;
        ] );
    ]
