module Partition = Stc_partition.Partition
module Pair = Stc_partition.Pair
module Enumerate = Stc_partition.Enumerate
module Machine = Stc_fsm.Machine
module Zoo = Stc_fsm.Zoo
module Generate = Stc_fsm.Generate
module Rng = Stc_util.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let qcheck = QCheck_alcotest.to_alcotest

(* Random partition of size n from a seed. *)
let random_partition rng n =
  let k = 1 + Rng.int rng n in
  Partition.of_class_map (Array.init n (fun _ -> Rng.int rng k))

(* Random transition table. *)
let random_next rng n k =
  Array.init n (fun _ -> Array.init k (fun _ -> Rng.int rng n))

(* ------------------------------------------------------------------ *)
(* Partition basics                                                    *)
(* ------------------------------------------------------------------ *)

let test_identity_universal () =
  let id = Partition.identity 4 and u = Partition.universal 4 in
  check_int "identity classes" 4 (Partition.num_classes id);
  check_int "universal classes" 1 (Partition.num_classes u);
  check_bool "is_identity" true (Partition.is_identity id);
  check_bool "is_universal" true (Partition.is_universal u);
  check_bool "id not universal" false (Partition.is_universal id);
  check_bool "same in universal" true (Partition.same u 0 3);
  check_bool "distinct in identity" false (Partition.same id 0 3)

let test_of_class_map_canonical () =
  let p = Partition.of_class_map [| 7; 3; 7; 1 |] in
  check_int "three classes" 3 (Partition.num_classes p);
  check_int "first class is 0" 0 (Partition.class_of p 0);
  check_int "second class is 1" 1 (Partition.class_of p 1);
  check_bool "0 ~ 2" true (Partition.same p 0 2);
  (* Canonical class maps make structural equality semantic. *)
  let q = Partition.of_class_map [| 0; 9; 0; 4 |] in
  check_bool "equal" true (Partition.equal p q)

let test_of_blocks () =
  let p = Partition.of_blocks ~n:5 [ [ 0; 3 ]; [ 1; 4 ] ] in
  check_int "three classes (2 is a singleton)" 3 (Partition.num_classes p);
  check_bool "0 ~ 3" true (Partition.same p 0 3);
  check_bool "2 alone" false (Partition.same p 2 0);
  check_bool "blocks roundtrip" true
    (Partition.blocks p = [ [ 0; 3 ]; [ 1; 4 ]; [ 2 ] ])

let test_of_blocks_rejects_overlap () =
  check_bool "overlap rejected" true
    (match Partition.of_blocks ~n:4 [ [ 0; 1 ]; [ 1; 2 ] ] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_bool "out of range rejected" true
    (match Partition.of_blocks ~n:3 [ [ 0; 5 ] ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_pair_relation () =
  let p = Partition.pair_relation ~n:5 1 3 in
  check_int "four classes" 4 (Partition.num_classes p);
  check_bool "1 ~ 3" true (Partition.same p 1 3);
  check_bool "others singleton" false (Partition.same p 0 2)

let test_meet_join_examples () =
  let p = Partition.of_blocks ~n:4 [ [ 0; 1 ]; [ 2; 3 ] ] in
  let q = Partition.of_blocks ~n:4 [ [ 0; 3 ]; [ 1; 2 ] ] in
  check_bool "meet is identity" true (Partition.is_identity (Partition.meet p q));
  check_bool "join is universal" true (Partition.is_universal (Partition.join p q))

let test_subseteq () =
  let fine = Partition.of_blocks ~n:4 [ [ 0; 1 ] ] in
  let coarse = Partition.of_blocks ~n:4 [ [ 0; 1; 2 ] ] in
  check_bool "fine <= coarse" true (Partition.subseteq fine coarse);
  check_bool "coarse not<= fine" false (Partition.subseteq coarse fine);
  check_bool "reflexive" true (Partition.subseteq fine fine)

let test_representatives_members () =
  let p = Partition.of_blocks ~n:5 [ [ 1; 4 ]; [ 0; 2 ] ] in
  let reps = Partition.representatives p in
  check_int "rep of class of 1" 1 reps.(Partition.class_of p 1);
  check_int "rep of class of 2" 0 reps.(Partition.class_of p 2);
  check_bool "members of class of 4" true
    (Partition.members p (Partition.class_of p 4) = [ 1; 4 ])

let test_pp () =
  let p = Partition.of_blocks ~n:4 [ [ 0; 3 ]; [ 1; 2 ] ] in
  check_string "printed" "{0,3}{1,2}" (Partition.to_string p)

let test_join_all () =
  let ps = [ Partition.pair_relation ~n:4 0 1; Partition.pair_relation ~n:4 1 2 ] in
  let j = Partition.join_all ~n:4 ps in
  check_bool "transitive closure" true (Partition.same j 0 2);
  check_bool "3 apart" false (Partition.same j 0 3)

(* Lattice laws, exhaustive on n = 4 (Bell(4) = 15). *)
let test_lattice_laws_exhaustive () =
  let all = Enumerate.all 4 in
  List.iter
    (fun p ->
      List.iter
        (fun q ->
          let m = Partition.meet p q and j = Partition.join p q in
          check_bool "meet commutative" true (Partition.equal m (Partition.meet q p));
          check_bool "join commutative" true (Partition.equal j (Partition.join q p));
          check_bool "meet lower bound" true
            (Partition.subseteq m p && Partition.subseteq m q);
          check_bool "join upper bound" true
            (Partition.subseteq p j && Partition.subseteq q j);
          (* order characterisations *)
          check_bool "p<=q iff join=q" true
            (Partition.subseteq p q = Partition.equal j q);
          check_bool "p<=q iff meet=p" true
            (Partition.subseteq p q = Partition.equal m p);
          (* absorption *)
          check_bool "absorb 1" true
            (Partition.equal p (Partition.meet p (Partition.join p q)));
          check_bool "absorb 2" true
            (Partition.equal p (Partition.join p (Partition.meet p q))))
        all)
    all

let test_lattice_laws_random =
  QCheck.Test.make ~count:200 ~name:"lattice laws on random partitions"
    QCheck.(pair (int_bound 10000) (int_range 2 12))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let p = random_partition rng n
      and q = random_partition rng n
      and r = random_partition rng n in
      let ( = ) = Partition.equal in
      Partition.meet p (Partition.meet q r) = Partition.meet (Partition.meet p q) r
      && Partition.join p (Partition.join q r) = Partition.join (Partition.join p q) r
      && Partition.meet p p = p
      && Partition.join p p = p)

(* ------------------------------------------------------------------ *)
(* Hash-consing                                                        *)
(* ------------------------------------------------------------------ *)

let test_hashcons_physical_equality () =
  (* Equal partitions built independently intern to the same value. *)
  let p = Partition.of_class_map [| 7; 3; 7; 1 |] in
  let q = Partition.of_class_map [| 0; 9; 0; 4 |] in
  check_bool "of_class_map interns" true (p == q);
  let a = Partition.of_blocks ~n:4 [ [ 0; 2 ] ] in
  let b = Partition.of_class_map [| 0; 1; 0; 2 |] in
  check_bool "of_blocks interns to the same" true (a == b);
  check_bool "pair_relation interns" true
    (Partition.pair_relation ~n:4 0 2 == a)

let test_hashcons_operations_intern =
  QCheck.Test.make ~count:300 ~name:"meet/join results are interned"
    QCheck.(pair (int_bound 10000) (int_range 2 12))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let p = random_partition rng n and q = random_partition rng n in
      Partition.meet p q == Partition.meet q p
      && Partition.join p q == Partition.join q p
      && Partition.hash (Partition.meet p q) = Partition.hash (Partition.meet q p)
      (* equal <-> physically equal, within one domain *)
      && Partition.equal p q = (p == q))

(* ------------------------------------------------------------------ *)
(* Memoized operators                                                  *)
(* ------------------------------------------------------------------ *)

let test_memo_matches_direct =
  QCheck.Test.make ~count:200 ~name:"Memo.m / Memo.big_m = m / big_m"
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int rng 6 and k = 1 + Rng.int rng 3 in
      let next = random_next rng n k in
      let memo = Pair.Memo.create ~next in
      let ps = List.init 10 (fun _ -> random_partition rng n) in
      List.for_all
        (fun p ->
          Partition.equal (Pair.Memo.m memo p) (Pair.m ~next p)
          && Partition.equal (Pair.Memo.big_m memo p) (Pair.big_m ~next p)
          (* cached: second call returns the identical partition *)
          && Pair.Memo.m memo p == Pair.Memo.m memo p)
        ps)

let test_memo_counters () =
  let m = Zoo.paper_fig5 () in
  let next = m.Machine.next in
  let memo = Pair.Memo.create ~next in
  let pi = Partition.of_blocks ~n:4 [ [ 0; 1 ]; [ 2; 3 ] ] in
  check_int "fresh cache" 0 (Pair.Memo.hits memo);
  ignore (Pair.Memo.m memo pi);
  check_int "first call misses" 1 (Pair.Memo.misses memo);
  ignore (Pair.Memo.m memo pi);
  ignore (Pair.Memo.m memo pi);
  check_int "repeat calls hit" 2 (Pair.Memo.hits memo);
  check_int "no extra misses" 1 (Pair.Memo.misses memo)

(* ------------------------------------------------------------------ *)
(* Enumerate                                                           *)
(* ------------------------------------------------------------------ *)

let test_bell_numbers () =
  List.iter
    (fun (n, b) -> check_int (Printf.sprintf "bell %d" n) b (Enumerate.bell n))
    [ (0, 1); (1, 1); (2, 2); (3, 5); (4, 15); (5, 52); (6, 203); (7, 877) ]

let test_enumerate_counts () =
  for n = 1 to 6 do
    let all = Enumerate.all n in
    check_int
      (Printf.sprintf "count for n=%d" n)
      (Enumerate.bell n) (List.length all);
    (* all distinct *)
    let distinct = List.sort_uniq Partition.compare all in
    check_int "distinct" (List.length all) (List.length distinct)
  done

let test_enumerate_streaming () =
  (* The Seq agrees with the materialized list... *)
  for n = 1 to 6 do
    let streamed = List.of_seq (Enumerate.partitions n) in
    check_bool
      (Printf.sprintf "streamed = all for n=%d" n)
      true
      (List.equal Partition.equal streamed (Enumerate.all n))
  done;
  (* ...is persistent (re-iterating from the head gives the same answer,
     e.g. for nested loops over all pairs)... *)
  let s = Enumerate.partitions 5 in
  let count seq = Seq.fold_left (fun acc _ -> acc + 1) 0 seq in
  check_int "first pass" (Enumerate.bell 5) (count s);
  check_int "second pass" (Enumerate.bell 5) (count s);
  let pairs = ref 0 in
  Seq.iter (fun _ -> Seq.iter (fun _ -> incr pairs) s) s;
  check_int "nested pairs" (Enumerate.bell 5 * Enumerate.bell 5) !pairs;
  (* ...and is lazy: taking a prefix of a Bell-number space far beyond the
     materialization ceiling terminates immediately. *)
  let prefix = List.of_seq (Seq.take 100 (Enumerate.partitions 20)) in
  check_int "lazy prefix" 100 (List.length prefix);
  check_bool "prefix distinct" true
    (List.length (List.sort_uniq Partition.compare prefix) = 100)

(* ------------------------------------------------------------------ *)
(* Pair: the m / M Galois connection                                   *)
(* ------------------------------------------------------------------ *)

(* Direct quadratic definition of a partition pair, as an oracle. *)
let is_pair_oracle next pi rho =
  let n = Array.length next and k = Array.length next.(0) in
  let ok = ref true in
  for s = 0 to n - 1 do
    for t = 0 to n - 1 do
      if Partition.same pi s t then
        for i = 0 to k - 1 do
          if not (Partition.same rho next.(s).(i) next.(t).(i)) then ok := false
        done
    done
  done;
  !ok

let test_is_pair_matches_oracle =
  QCheck.Test.make ~count:200 ~name:"is_pair agrees with quadratic oracle"
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int rng 6 and k = 1 + Rng.int rng 3 in
      let next = random_next rng n k in
      let pi = random_partition rng n and rho = random_partition rng n in
      Pair.is_pair ~next pi rho = is_pair_oracle next pi rho)

let test_galois_connection =
  QCheck.Test.make ~count:300 ~name:"(pi,rho) pair <-> m pi <= rho <-> pi <= M rho"
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int rng 6 and k = 1 + Rng.int rng 3 in
      let next = random_next rng n k in
      let pi = random_partition rng n and rho = random_partition rng n in
      let p = Pair.is_pair ~next pi rho in
      p = Partition.subseteq (Pair.m ~next pi) rho
      && p = Partition.subseteq pi (Pair.big_m ~next rho))

let test_m_minimality =
  QCheck.Test.make ~count:100 ~name:"m pi is the minimal right member"
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int rng 4 in
      let next = random_next rng n 2 in
      let pi = random_partition rng n in
      let mpi = Pair.m ~next pi in
      (* m pi is itself a valid right member... *)
      Pair.is_pair ~next pi mpi
      (* ...and no strictly finer partition is. *)
      && List.for_all
           (fun rho ->
             if Partition.subseteq rho mpi && not (Partition.equal rho mpi) then
               not (Pair.is_pair ~next pi rho)
             else true)
           (Enumerate.all n))

let test_big_m_maximality =
  QCheck.Test.make ~count:100 ~name:"M rho is the maximal left member"
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int rng 4 in
      let next = random_next rng n 2 in
      let rho = random_partition rng n in
      let bm = Pair.big_m ~next rho in
      Pair.is_pair ~next bm rho
      && List.for_all
           (fun pi ->
             if Partition.subseteq bm pi && not (Partition.equal bm pi) then
               not (Pair.is_pair ~next pi rho)
             else true)
           (Enumerate.all n))

let test_adjunction_identities =
  QCheck.Test.make ~count:300 ~name:"m M m = m and M m M = M"
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int rng 6 and k = 1 + Rng.int rng 3 in
      let next = random_next rng n k in
      let p = random_partition rng n in
      let m = Pair.m ~next and big_m = Pair.big_m ~next in
      Partition.equal (m (big_m (m p))) (m p)
      && Partition.equal (big_m (m (big_m p))) (big_m p))

let test_m_monotone =
  QCheck.Test.make ~count:200 ~name:"m and M are monotone"
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int rng 6 and k = 1 + Rng.int rng 3 in
      let next = random_next rng n k in
      let p = random_partition rng n in
      let q = Partition.join p (random_partition rng n) in
      (* p <= q by construction *)
      Partition.subseteq (Pair.m ~next p) (Pair.m ~next q)
      && Partition.subseteq (Pair.big_m ~next p) (Pair.big_m ~next q))

(* The exact solver carries m down the DFS: a child's m-image is its
   parent's joined with the branch's, and interning makes it the very
   value [m] builds. *)
let test_m_join_homomorphic =
  QCheck.Test.make ~count:300 ~name:"m (join p q) == join (m p) (m q)"
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int rng 10 and k = 1 + Rng.int rng 3 in
      let next = random_next rng n k in
      let p = random_partition rng n and q = random_partition rng n in
      let m = Pair.m ~next in
      m (Partition.join p q) == Partition.join (m p) (m q))

(* The identity behind the search tree: m(pi) is the join of the basis
   elements m(p_{s,t}) over the pairs (s,t) inside pi. *)
let test_m_is_join_of_basis =
  QCheck.Test.make ~count:200 ~name:"m pi = join of m(p_st) over (s,t) in pi"
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int rng 6 and k = 1 + Rng.int rng 3 in
      let next = random_next rng n k in
      let pi = random_partition rng n in
      let parts = ref [] in
      for s = 0 to n - 1 do
        for t = s + 1 to n - 1 do
          if Partition.same pi s t then begin
            let p_st = Partition.pair_relation ~n s t in
            parts := Pair.m ~next p_st :: !parts
          end
        done
      done;
      Partition.equal (Pair.m ~next pi) (Partition.join_all ~n !parts))

let test_basis_properties () =
  let m = Zoo.paper_fig5 () in
  let next = m.Machine.next in
  let basis = Pair.basis ~next in
  (* deduplicated *)
  let distinct = List.sort_uniq Partition.compare basis in
  check_int "distinct" (List.length basis) (List.length distinct);
  (* each element is m of some pair relation *)
  let n = m.Machine.num_states in
  List.iter
    (fun b ->
      let found = ref false in
      for s = 0 to n - 1 do
        for t = s + 1 to n - 1 do
          if Partition.equal b (Pair.m ~next (Partition.pair_relation ~n s t))
          then found := true
        done
      done;
      check_bool "is m of a pair relation" true !found)
    basis

(* ------------------------------------------------------------------ *)
(* Packed kernels vs the retained element-wise reference               *)
(* ------------------------------------------------------------------ *)

module Reference = Stc_partition.Reference

(* Class maps with ids well outside [0..n-1] (including negatives), to
   drive the canonicalization fallback as well as the stamped fast
   path. *)
let wild_class_map rng n =
  let k = 1 + Rng.int rng n in
  let spread = Rng.int rng 3 in
  Array.init n (fun _ ->
      let id = Rng.int rng k in
      match spread with
      | 0 -> id
      | 1 -> (id * 7919) + 100000
      | _ -> (id * 104729) - 500000)

(* Small sizes, and sizes up to 150 whose class-count products pass the
   1024-slot pair-key cap, so the meet kernels take their hashing and
   bucketed paths too. *)
let size_gen = QCheck.oneof [ QCheck.int_range 1 20; QCheck.int_range 60 150 ]

let test_canonicalize_matches_reference =
  QCheck.Test.make ~count:300 ~name:"of_class_map = Reference.canonicalize"
    QCheck.(pair (int_bound 100000) size_gen)
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let cls = wild_class_map rng n in
      let p = Partition.of_class_map cls in
      Partition.class_map p = Reference.canonicalize cls
      && Partition.num_classes p = Reference.num_classes cls)

let test_meet_matches_reference =
  QCheck.Test.make ~count:300 ~name:"meet = Reference.meet"
    QCheck.(pair (int_bound 100000) size_gen)
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let a = wild_class_map rng n and b = wild_class_map rng n in
      let p = Partition.of_class_map a and q = Partition.of_class_map b in
      Partition.class_map (Partition.meet p q)
      = Reference.canonicalize (Reference.meet (Partition.class_map p) (Partition.class_map q)))

let test_join_matches_reference =
  QCheck.Test.make ~count:300 ~name:"join = Reference.join"
    QCheck.(pair (int_bound 100000) size_gen)
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let a = wild_class_map rng n and b = wild_class_map rng n in
      let p = Partition.of_class_map a and q = Partition.of_class_map b in
      Partition.class_map (Partition.join p q)
      = Reference.join (Partition.class_map p) (Partition.class_map q))

let test_join_all_matches_reference =
  QCheck.Test.make ~count:200 ~name:"join_all = folded Reference.join"
    QCheck.(pair (int_bound 100000) size_gen)
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let maps = List.init (1 + Rng.int rng 4) (fun _ -> wild_class_map rng n) in
      let ps = List.map Partition.of_class_map maps in
      let expected =
        List.fold_left
          (fun acc m -> Reference.join acc (Reference.canonicalize m))
          (Array.init n (fun s -> s))
          maps
      in
      Partition.class_map (Partition.join_all ~n ps) = expected)

let test_subseteq_matches_reference =
  QCheck.Test.make ~count:300 ~name:"subseteq = Reference.subseteq"
    QCheck.(pair (int_bound 100000) size_gen)
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let a = wild_class_map rng n and b = wild_class_map rng n in
      let p = Partition.of_class_map a and q = Partition.of_class_map b in
      (* both directions, plus guaranteed-true instances via meet *)
      let m = Partition.meet p q in
      Partition.subseteq p q
      = Reference.subseteq (Partition.class_map p) (Partition.class_map q)
      && Partition.subseteq q p
         = Reference.subseteq (Partition.class_map q) (Partition.class_map p)
      && Partition.subseteq m p && Partition.subseteq m q)

let test_meet_subseteq_matches_composition =
  QCheck.Test.make ~count:300 ~name:"meet_subseteq p q r = subseteq (meet p q) r"
    QCheck.(pair (int_bound 100000) size_gen)
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let p = Partition.of_class_map (wild_class_map rng n)
      and q = Partition.of_class_map (wild_class_map rng n)
      and r = Partition.of_class_map (wild_class_map rng n) in
      let direct = Partition.meet_subseteq p q r in
      direct = Partition.subseteq (Partition.meet p q) r
      (* and a guaranteed-true instance *)
      && Partition.meet_subseteq p q (Partition.meet p q))

(* The exact solver's fused Lemma-1 test.  Identity and universal
   operands take the kernel's short cuts, so each operand is replaced by
   one of them now and then. *)
let test_join_meet_subseteq_matches_composition =
  QCheck.Test.make ~count:400
    ~name:"join_meet_subseteq a b p r = subseteq (meet (join a b) p) r"
    QCheck.(pair (int_bound 100000) size_gen)
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let operand () =
        match Rng.int rng 6 with
        | 0 -> Partition.identity n
        | 1 -> Partition.universal n
        | _ -> Partition.of_class_map (wild_class_map rng n)
      in
      let a = operand () in
      let b = operand () in
      let p = operand () in
      let r = operand () in
      let composed = Partition.meet (Partition.join a b) p in
      Partition.join_meet_subseteq a b p r = Partition.subseteq composed r
      && Partition.join_meet_subseteq a a p r = Partition.meet_subseteq a p r
      (* and a guaranteed-true instance *)
      && Partition.join_meet_subseteq a b p composed)

(* Relabeling the input class map must not change the partition - and
   therefore not its hash. *)
let test_hash_stable_under_relabeling =
  QCheck.Test.make ~count:300 ~name:"hash stable under class-map relabeling"
    QCheck.(pair (int_bound 100000) size_gen)
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let cls = wild_class_map rng n in
      let p = Partition.of_class_map cls in
      (* injective relabeling of the ids *)
      let shift = 1 + Rng.int rng 1000 in
      let relabeled = Array.map (fun id -> (id * 2) + shift) cls in
      let q = Partition.of_class_map relabeled in
      Partition.equal p q && Partition.hash p = Partition.hash q)

let test_iter_coarse_members_spec =
  QCheck.Test.make ~count:300
    ~name:"iter_coarse_members = non-reps in element order"
    QCheck.(pair (int_bound 100000) size_gen)
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let p = Partition.of_class_map (wild_class_map rng n) in
      let got = ref [] in
      Partition.iter_coarse_members p (fun rep s -> got := (rep, s) :: !got);
      let reps = Partition.representatives p in
      let expected =
        List.filter_map
          (fun s ->
            let rep = reps.(Partition.class_of p s) in
            if rep = s then None else Some (rep, s))
          (List.init n Fun.id)
      in
      List.rev !got = expected)

(* A callback may re-enter the walk (and any other kernel) without
   disturbing the outer walk's first-member table. *)
let test_iter_coarse_members_reentrant () =
  let p = Partition.of_blocks ~n:9 [ [ 0; 4; 8 ]; [ 1; 5 ]; [ 2; 3; 7 ] ] in
  let q = Partition.of_blocks ~n:9 [ [ 1; 2; 3; 4; 5; 6; 7 ] ] in
  let collect p =
    let got = ref [] in
    Partition.iter_coarse_members p (fun rep s -> got := (rep, s) :: !got);
    List.rev !got
  in
  let inner = collect q in
  let outer = ref [] in
  Partition.iter_coarse_members p (fun rep s ->
      check_bool "inner walk unchanged" true (collect q = inner);
      ignore (Partition.join p q);
      outer := (rep, s) :: !outer);
  check_bool "outer walk in element order" true
    (List.rev !outer = [ (2, 3); (0, 4); (1, 5); (2, 7); (0, 8) ])

(* The class map is the whole representation: a 128-state partition with
   126 blocks costs the record and its [n]-element map, nothing that grows
   with the number of blocks. *)
let test_representation_size () =
  let n = 128 in
  let p =
    Partition.of_class_map (Array.init n (fun s -> if s < 3 then 0 else s))
  in
  Alcotest.(check int) "classes" 126 (Partition.num_classes p);
  let words = Obj.reachable_words (Obj.repr p) in
  if words > n + 8 then
    Alcotest.failf "%d reachable words for n = %d (bound %d)" words n (n + 8)

(* ------------------------------------------------------------------ *)
(* Move kernels (anytime stochastic search)                            *)
(* ------------------------------------------------------------------ *)

let test_merge_classes_examples () =
  let p = Partition.of_blocks ~n:5 [ [ 0; 1 ]; [ 2 ]; [ 3; 4 ] ] in
  let q = Partition.merge_classes p 0 2 in
  check_bool "blocks merged" true (Partition.same q 0 3 && Partition.same q 1 4);
  check_bool "other block kept" false (Partition.same q 0 2);
  check_int "one fewer class" (Partition.num_classes p - 1)
    (Partition.num_classes q);
  check_bool "self-merge is a no-op" true (Partition.merge_classes p 1 1 == p);
  Alcotest.check_raises "class out of range"
    (Invalid_argument "Partition.merge_classes: class out of range") (fun () ->
      ignore (Partition.merge_classes p 0 3))

let test_merge_classes_is_join =
  QCheck.Test.make ~count:300
    ~name:"merge_classes = join with pair_relation of representatives"
    QCheck.(pair (int_bound 100000) (int_range 2 80))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let p = random_partition rng n in
      let k = Partition.num_classes p in
      let c = Rng.int rng k and d = Rng.int rng k in
      let reps = Partition.representatives p in
      let got = Partition.merge_classes p c d in
      let expected =
        Partition.join p (Partition.pair_relation ~n reps.(c) reps.(d))
      in
      Partition.equal got expected)

let test_split_singleton_examples () =
  let p = Partition.of_blocks ~n:4 [ [ 0; 1; 2 ]; [ 3 ] ] in
  let q = Partition.split_singleton p 1 in
  check_bool "element left its block" false
    (Partition.same q 0 1 || Partition.same q 1 2);
  check_bool "rest of the block kept" true (Partition.same q 0 2);
  check_int "one more class" (Partition.num_classes p + 1)
    (Partition.num_classes q);
  check_bool "splitting a singleton is a no-op" true
    (Partition.split_singleton p 3 == p);
  (* merging the singleton back undoes the split *)
  let back =
    Partition.merge_classes q (Partition.class_of q 1) (Partition.class_of q 0)
  in
  check_bool "merge round-trip" true (Partition.equal back p)

let test_split_singleton_spec =
  QCheck.Test.make ~count:300
    ~name:"split_singleton = class-map surgery, refines its input"
    QCheck.(pair (int_bound 100000) (int_range 2 80))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let p = random_partition rng n in
      let s = Rng.int rng n in
      let q = Partition.split_singleton p s in
      let expected =
        Partition.of_class_map
          (Array.init n (fun t ->
               if t = s then n else Partition.class_of p t))
      in
      Partition.equal q expected
      && Partition.subseteq q p
      && List.length (Partition.members q (Partition.class_of q s)) = 1)

let test_blocks_members_multiword =
  QCheck.Test.make ~count:200 ~name:"blocks/members/representatives agree (multi-word)"
    QCheck.(pair (int_bound 100000) (int_range 60 150))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let p = Partition.of_class_map (wild_class_map rng n) in
      let blocks = Partition.blocks p in
      let reps = Partition.representatives p in
      List.length blocks = Partition.num_classes p
      && List.for_all
           (fun block ->
             let c = Partition.class_of p (List.hd block) in
             Partition.members p c = block && reps.(c) = List.hd block)
           blocks
      && List.concat blocks |> List.sort Stdlib.compare
         = List.init n (fun s -> s))

(* ------------------------------------------------------------------ *)
(* Incremental closure engine vs the from-scratch oracle               *)
(* ------------------------------------------------------------------ *)

let test_class_size_spec =
  QCheck.Test.make ~count:300 ~name:"class_size = length of members (multi-word)"
    QCheck.(pair (int_bound 100000) size_gen)
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let p = Partition.of_class_map (wild_class_map rng n) in
      let ok = ref true in
      for c = 0 to Partition.num_classes p - 1 do
        if Partition.class_size p c <> List.length (Partition.members p c) then
          ok := false
      done;
      !ok)

let test_coarsen_with_spec =
  QCheck.Test.make ~count:300
    ~name:"coarsen_with = join of representative pair relations"
    QCheck.(pair (int_bound 100000) size_gen)
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let p = Partition.of_class_map (wild_class_map rng n) in
      let k = Partition.num_classes p in
      (* a random idempotent class map: each class points at the smallest
         member of its group *)
      let groups = Array.init k (fun _ -> Rng.int rng (1 + Rng.int rng k)) in
      let f c =
        let g = groups.(c) in
        let rec first i = if groups.(i) = g then i else first (i + 1) in
        first 0
      in
      let got = Partition.coarsen_with p f in
      let reps = Partition.representatives p in
      let expected =
        Partition.join_all ~n
          (p
          :: List.init k (fun c ->
                 Partition.pair_relation ~n reps.(c) reps.(f c)))
      in
      Partition.equal got expected
      && Partition.coarsen_with p (fun c -> c) == p)

(* The from-scratch closure the anytime tier used before the delta
   engine: alternating joins with m-images up to the least fixpoint. *)
let close_pair_spec ~next pi rho =
  let rec go pi rho =
    let rho' = Partition.join rho (Pair.m ~next pi) in
    let pi' = Partition.join pi (Pair.m ~next rho') in
    if Partition.equal pi pi' && Partition.equal rho rho' then (pi, rho')
    else go pi' rho'
  in
  go pi rho

(* A random {e closed} symmetric pair: the precondition of close_merge. *)
let random_closed_pair rng ~next n =
  let pi0 = random_partition rng n in
  let rho0 = random_partition rng n in
  close_pair_spec ~next pi0 rho0

(* Under the universal equivalence every proposal is admissible, so the
   engine must always return the closure itself. *)
let test_close_merge_matches_oracle =
  QCheck.Test.make ~count:200
    ~name:"close_merge = close_pair o merge_classes (closed parents)"
    QCheck.(pair (int_bound 100000) size_gen)
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let k_in = 1 + Rng.int rng 4 in
      let next = random_next rng n k_in in
      let pi, rho = random_closed_pair rng ~next n in
      let on_pi = Rng.bool rng in
      let side = if on_pi then pi else rho in
      let k = Partition.num_classes side in
      let c = Rng.int rng k and d = Rng.int rng k in
      let memo = Pair.Memo.create ~next in
      match
        Pair.close_merge memo ~equiv:(Partition.universal n) ~pi ~rho
          (Pair.Merge { on_pi; c; d })
      with
      | { Pair.closed = None; _ } -> false
      | { Pair.closed = Some (got_pi, got_rho); dirty; _ } ->
        let side' = Partition.merge_classes side c d in
        let exp_pi, exp_rho =
          if on_pi then close_pair_spec ~next side' rho
          else close_pair_spec ~next pi side'
        in
        (* the memoized from-scratch closure the solver and the anytime
           tier share must reach the same fixpoint *)
        let full_pi, full_rho =
          if on_pi then Pair.close memo side' rho else Pair.close memo pi side'
        in
        Partition.equal got_pi exp_pi
        && Partition.equal got_rho exp_rho
        && Partition.equal full_pi exp_pi
        && Partition.equal full_rho exp_rho
        && dirty >= 0
        (* a self-merge forces nothing: both sides come back physically *)
        && (c <> d || (got_pi == pi && got_rho == rho)))

(* A partition with only a few random merges above the identity, so
   closures of such seeds stay away from the universal partition. *)
let sparse_partition rng n =
  List.fold_left
    (fun p _ ->
      Partition.join p
        (Partition.pair_relation ~n (Rng.int rng n) (Rng.int rng n)))
    (Partition.identity n)
    (List.init (1 + Rng.int rng 2) Fun.id)

(* A closed parent: the closure of a random seed, or of a sparse one
   (whose closure stays away from the universal partition). *)
let random_parent rng ~next n =
  if Rng.bool rng then random_closed_pair rng ~next n
  else close_pair_spec ~next (sparse_partition rng n) (sparse_partition rng n)

(* The engine against the oracle evaluator: [Pair.close] of the same
   seed, then the meet bound.  [None] exactly when the oracle's pair
   fails the bound; otherwise the very same (hash-consed) pair. *)
let test_close_merge_rejects_exactly =
  QCheck.Test.make ~count:400
    ~name:"close_merge rejects iff close of the seed fails the meet bound"
    QCheck.(pair (int_bound 100000) size_gen)
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let k_in = 1 + Rng.int rng 4 in
      let next = random_next rng n k_in in
      let pi, rho = random_parent rng ~next n in
      let memo = Pair.Memo.create ~next in
      let on_pi = Rng.bool rng in
      let side = if on_pi then pi else rho in
      let move, (ref_pi, ref_rho) =
        if Rng.bool rng then begin
          let k = Partition.num_classes side in
          let c = Rng.int rng k and d = Rng.int rng k in
          let side' = Partition.merge_classes side c d in
          ( Pair.Merge { on_pi; c; d },
            if on_pi then Pair.close memo side' rho
            else Pair.close memo pi side' )
        end
        else begin
          let s = Rng.int rng n in
          let side' = Partition.split_singleton side s in
          ( Pair.Split { on_pi; s },
            if on_pi then Pair.close memo side' (Pair.Memo.m memo side')
            else Pair.close memo (Pair.Memo.big_m memo side') side' )
        end
      in
      let equiv =
        match Rng.int rng 4 with
        | 0 -> Partition.identity n
        | 1 -> Partition.universal n
        | 2 -> Partition.join (Partition.meet ref_pi ref_rho) (sparse_partition rng n)
        | _ -> random_partition rng n
      in
      match (Pair.close_merge memo ~equiv ~pi ~rho move).Pair.closed with
      | None -> not (Partition.meet_subseteq ref_pi ref_rho equiv)
      | Some (got_pi, got_rho) ->
        Partition.meet_subseteq ref_pi ref_rho equiv
        && got_pi == ref_pi && got_rho == ref_rho)

(* The bound lemma behind the closed-form splits: a split seed lies
   below a symmetric pair that differs from the closed parent only on
   the split side, so the closure's split side is [split_singleton side
   s] or [side] itself - and the engine returns exactly the oracle's
   (hash-consed) pair, reporting [collapsed] when it is [side]. *)
let test_split_bound_lemma =
  QCheck.Test.make ~count:400 ~name:"split closure: split side is side' or side"
    QCheck.(pair (int_bound 100000) size_gen)
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let k_in = 1 + Rng.int rng 4 in
      let next = random_next rng n k_in in
      let pi, rho = random_parent rng ~next n in
      let memo = Pair.Memo.create ~next in
      let on_pi = Rng.bool rng in
      let s = Rng.int rng n in
      let side = if on_pi then pi else rho in
      let side' = Partition.split_singleton side s in
      let ref_pi, ref_rho =
        if on_pi then Pair.close memo side' (Pair.Memo.m memo side')
        else Pair.close memo (Pair.Memo.big_m memo side') side'
      in
      let closed_side = if on_pi then ref_pi else ref_rho in
      let equiv =
        if Rng.bool rng then Partition.universal n else random_partition rng n
      in
      let out =
        Pair.close_merge memo ~equiv ~pi ~rho (Pair.Split { on_pi; s })
      in
      (closed_side == side' || closed_side == side)
      && out.Pair.dirty = 0
      && (side' == side || out.Pair.collapsed = (closed_side == side))
      &&
      match out.Pair.closed with
      | None -> not (Partition.meet_subseteq ref_pi ref_rho equiv)
      | Some (got_pi, got_rho) ->
        Partition.meet_subseteq ref_pi ref_rho equiv
        && got_pi == ref_pi && got_rho == ref_rho)

(* Hand-built parent on which splits keep the state apart: one input,
   delta = 0 1 2 0 2 4.  Splitting 1 off pi, or 0 (the smallest member,
   so the engine re-elects its block's representative) off rho, closes
   to the split partition itself; every other split is checked against
   the oracle, collapsed or not, under two bounds. *)
let test_split_keeps_state_apart () =
  let next = [| [| 0 |]; [| 1 |]; [| 2 |]; [| 0 |]; [| 2 |]; [| 4 |] |] in
  let n = 6 in
  let blocks b = Partition.of_blocks ~n b in
  let pi = blocks [ [ 0; 1; 2; 4 ]; [ 3; 5 ] ]
  and rho = blocks [ [ 0; 1; 2; 4; 5 ]; [ 3 ] ] in
  check_bool "parent is a symmetric pair" true
    (Pair.is_symmetric_pair ~next pi rho);
  let memo = Pair.Memo.create ~next in
  let close ?(equiv = Partition.universal n) on_pi s =
    Pair.close_merge memo ~equiv ~pi ~rho (Pair.Split { on_pi; s })
  in
  let expect name on_pi s (exp_pi, exp_rho) =
    let out = close on_pi s in
    check_bool (name ^ ": not collapsed") false out.Pair.collapsed;
    match out.Pair.closed with
    | Some (got_pi, got_rho) ->
      check_bool (name ^ ": pi") true (got_pi == blocks exp_pi);
      check_bool (name ^ ": rho") true (got_rho == blocks exp_rho)
    | None -> Alcotest.failf "%s: rejected under the universal bound" name
  in
  expect "pi-split of 1" true 1
    ([ [ 0; 2; 4 ]; [ 1 ]; [ 3; 5 ] ], [ [ 0; 2; 4 ]; [ 1 ]; [ 3 ]; [ 5 ] ]);
  expect "rho-split of 0" false 0
    ([ [ 0; 3 ]; [ 1; 2; 4; 5 ] ], [ [ 0 ]; [ 1; 2; 4; 5 ]; [ 3 ] ]);
  List.iter
    (fun on_pi ->
      for s = 0 to n - 1 do
        let side = if on_pi then pi else rho in
        let side' = Partition.split_singleton side s in
        let ref_pi, ref_rho =
          if on_pi then Pair.close memo side' (Pair.Memo.m memo side')
          else Pair.close memo (Pair.Memo.big_m memo side') side'
        in
        List.iter
          (fun equiv ->
            let out = close ~equiv on_pi s in
            let name = Printf.sprintf "on_pi=%b s=%d" on_pi s in
            if side' != side then
              check_bool (name ^ ": collapsed flag")
                ((if on_pi then ref_pi else ref_rho) == side)
                out.Pair.collapsed;
            match out.Pair.closed with
            | Some (got_pi, got_rho) ->
              check_bool (name ^ ": oracle pair") true
                (got_pi == ref_pi && got_rho == ref_rho
                && Partition.meet_subseteq ref_pi ref_rho equiv)
            | None ->
              check_bool (name ^ ": rejected by the bound") false
                (Partition.meet_subseteq ref_pi ref_rho equiv))
          [ Partition.universal n; Partition.identity n ]
      done)
    [ true; false ]

(* The bucketed kernel behind [meet_subseteq] once the class-count
   product exceeds the pair-key cap ([max 1024 (4 * n)]), on fine
   partitions of 64..300 elements, plus the raw-map entry point on
   non-canonical ids. *)
let test_meet_subseteq_bucketed =
  QCheck.Test.make ~count:200
    ~name:"bucketed meet_subseteq = subseteq (meet p q) r"
    QCheck.(pair (int_bound 100000) (int_range 64 300))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let fine () =
        let k = (n / 2) + Rng.int rng (n / 2) in
        Partition.of_class_map (Array.init n (fun _ -> Rng.int rng k))
      in
      let p = fine () and q = fine () in
      QCheck.assume
        (Partition.num_classes p * Partition.num_classes q > max 1024 (4 * n));
      let m = Partition.meet p q in
      let r =
        match Rng.int rng 3 with
        | 0 -> Partition.join m (sparse_partition rng n)
        | 1 -> Partition.of_class_map (wild_class_map rng n)
        | _ ->
          Partition.split_singleton
            (Partition.join m (sparse_partition rng n))
            (Rng.int rng n)
      in
      let expected = Partition.subseteq m r in
      let spread a = Array.map (fun id -> (3 * id) + 1) (Partition.class_map a) in
      Partition.meet_subseteq p q r = expected
      && Partition.meet_subseteq_maps (spread p)
           ~na:((3 * Partition.num_classes p) + 1)
           (spread q)
           ~nb:((3 * Partition.num_classes q) + 1)
           r
         = expected)

let test_polish_from_matches =
  QCheck.Test.make ~count:200
    ~name:"polish ~from parent = polish on close_merge proposals"
    QCheck.(pair (int_bound 100000) size_gen)
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let k_in = 1 + Rng.int rng 4 in
      let next = random_next rng n k_in in
      let parent_pi, parent_rho =
        close_pair_spec ~next (sparse_partition rng n) (sparse_partition rng n)
      in
      let on_pi = Rng.bool rng in
      let side = if on_pi then parent_pi else parent_rho in
      let k = Partition.num_classes side in
      let c = Rng.int rng k and d = Rng.int rng k in
      let pi, rho =
        match
          (Pair.close_merge (Pair.Memo.create ~next)
             ~equiv:(Partition.universal n) ~pi:parent_pi ~rho:parent_rho
             (Pair.Merge { on_pi; c; d }))
            .Pair.closed
        with
        | Some pair -> pair
        | None -> Alcotest.fail "universal equivalence rejected a merge"
      in
      (* an equivalence the proposal's meet refines: (pi, rho) is
         admissible, so polish has room to move *)
      let equiv =
        Partition.join (Partition.meet pi rho) (sparse_partition rng n)
      in
      let plain = Pair.polish (Pair.Memo.create ~next) ~equiv pi rho in
      let fused =
        Pair.polish ~from:(parent_pi, parent_rho) (Pair.Memo.create ~next)
          ~equiv pi rho
      in
      Partition.equal (fst plain) (fst fused)
      && Partition.equal (snd plain) (snd fused)
      && Pair.admissible ~next ~equiv (fst fused) (snd fused))

let test_big_m_coarse_matches =
  QCheck.Test.make ~count:200 ~name:"big_m_coarse from a refinement = big_m"
    QCheck.(pair (int_bound 100000) size_gen)
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let k_in = 1 + Rng.int rng 4 in
      let next = random_next rng n k_in in
      let base = random_partition rng n in
      (* rho coarsens base by a random join *)
      let rho = Partition.join base (random_partition rng n) in
      let bm = Pair.big_m ~next base in
      Partition.equal
        (Pair.big_m_coarse ~next ~rho bm)
        (Pair.big_m ~next rho)
      (* base = rho degenerate case *)
      && Partition.equal (Pair.big_m_coarse ~next ~rho:base bm) bm)

let test_memo_big_m_from =
  QCheck.Test.make ~count:200 ~name:"Memo.big_m_from = big_m (and is cached)"
    QCheck.(pair (int_bound 100000) size_gen)
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let k_in = 1 + Rng.int rng 4 in
      let next = random_next rng n k_in in
      let base = random_partition rng n in
      let rho = Partition.join base (random_partition rng n) in
      let memo = Pair.Memo.create ~next in
      let first = Pair.Memo.big_m_from memo ~base rho in
      let again = Pair.Memo.big_m_from memo ~base rho in
      Partition.equal first (Pair.big_m ~next rho)
      && first == again
      (* the plain memoized entry and the derived one share the table *)
      && Pair.Memo.big_m memo rho == first)

(* ------------------------------------------------------------------ *)
(* Paper's fig. 6 oracle                                               *)
(* ------------------------------------------------------------------ *)

let test_fig6_symmetric_pair () =
  let m = Zoo.paper_fig5 () in
  let next = m.Machine.next in
  (* states s1..s4 are indices 0..3 *)
  let pi = Partition.of_blocks ~n:4 [ [ 0; 1 ]; [ 2; 3 ] ] in
  let rho = Partition.of_blocks ~n:4 [ [ 0; 3 ]; [ 1; 2 ] ] in
  check_bool "(pi,rho) is a pair" true (Pair.is_pair ~next pi rho);
  check_bool "(rho,pi) is a pair" true (Pair.is_pair ~next rho pi);
  check_bool "symmetric" true (Pair.is_symmetric_pair ~next pi rho);
  check_bool "intersection is identity" true
    (Partition.is_identity (Partition.meet pi rho))

let test_fig6_mm_structure () =
  let m = Zoo.paper_fig5 () in
  let next = m.Machine.next in
  let pi = Partition.of_blocks ~n:4 [ [ 0; 1 ]; [ 2; 3 ] ] in
  let rho = Partition.of_blocks ~n:4 [ [ 0; 3 ]; [ 1; 2 ] ] in
  check_bool "M rho >= pi" true (Partition.subseteq pi (Pair.big_m ~next rho));
  check_bool "m pi <= rho" true (Partition.subseteq (Pair.m ~next pi) rho)

let () =
  Alcotest.run "stc_partition"
    [
      ( "partition",
        [
          Alcotest.test_case "identity/universal" `Quick test_identity_universal;
          Alcotest.test_case "of_class_map canonical" `Quick
            test_of_class_map_canonical;
          Alcotest.test_case "of_blocks" `Quick test_of_blocks;
          Alcotest.test_case "of_blocks rejects overlap" `Quick
            test_of_blocks_rejects_overlap;
          Alcotest.test_case "pair relation" `Quick test_pair_relation;
          Alcotest.test_case "meet/join examples" `Quick test_meet_join_examples;
          Alcotest.test_case "subseteq" `Quick test_subseteq;
          Alcotest.test_case "representatives/members" `Quick
            test_representatives_members;
          Alcotest.test_case "pp" `Quick test_pp;
          Alcotest.test_case "join_all closure" `Quick test_join_all;
          Alcotest.test_case "lattice laws (exhaustive n=4)" `Quick
            test_lattice_laws_exhaustive;
          qcheck test_lattice_laws_random;
        ] );
      ( "packed_vs_reference",
        [
          qcheck test_canonicalize_matches_reference;
          qcheck test_meet_matches_reference;
          qcheck test_join_matches_reference;
          qcheck test_join_all_matches_reference;
          qcheck test_subseteq_matches_reference;
          qcheck test_meet_subseteq_matches_composition;
          qcheck test_join_meet_subseteq_matches_composition;
          qcheck test_meet_subseteq_bucketed;
          qcheck test_hash_stable_under_relabeling;
          qcheck test_iter_coarse_members_spec;
          Alcotest.test_case "iter_coarse_members re-entrant" `Quick
            test_iter_coarse_members_reentrant;
          qcheck test_blocks_members_multiword;
        ] );
      ( "move_kernels",
        [
          Alcotest.test_case "merge_classes examples" `Quick
            test_merge_classes_examples;
          qcheck test_merge_classes_is_join;
          Alcotest.test_case "split_singleton examples" `Quick
            test_split_singleton_examples;
          qcheck test_split_singleton_spec;
        ] );
      ( "hashcons",
        [
          Alcotest.test_case "physical equality" `Quick
            test_hashcons_physical_equality;
          Alcotest.test_case "class map is the whole representation" `Quick
            test_representation_size;
          qcheck test_hashcons_operations_intern;
        ] );
      ( "memo",
        [
          qcheck test_memo_matches_direct;
          Alcotest.test_case "hit/miss counters" `Quick test_memo_counters;
        ] );
      ( "enumerate",
        [
          Alcotest.test_case "bell numbers" `Quick test_bell_numbers;
          Alcotest.test_case "enumeration counts" `Quick test_enumerate_counts;
          Alcotest.test_case "streaming enumeration" `Quick
            test_enumerate_streaming;
        ] );
      ( "pair",
        [
          qcheck test_is_pair_matches_oracle;
          qcheck test_galois_connection;
          qcheck test_m_minimality;
          qcheck test_big_m_maximality;
          qcheck test_adjunction_identities;
          qcheck test_m_monotone;
          qcheck test_m_is_join_of_basis;
          qcheck test_m_join_homomorphic;
          Alcotest.test_case "basis properties" `Quick test_basis_properties;
        ] );
      ( "incremental_closure",
        [
          qcheck test_class_size_spec;
          qcheck test_coarsen_with_spec;
          qcheck test_close_merge_matches_oracle;
          qcheck test_close_merge_rejects_exactly;
          qcheck test_split_bound_lemma;
          Alcotest.test_case "split keeps the state apart" `Quick
            test_split_keeps_state_apart;
          qcheck test_big_m_coarse_matches;
          qcheck test_memo_big_m_from;
          qcheck test_polish_from_matches;
        ] );
      ( "paper_oracle",
        [
          Alcotest.test_case "fig6 symmetric pair" `Quick test_fig6_symmetric_pair;
          Alcotest.test_case "fig6 Mm structure" `Quick test_fig6_mm_structure;
        ] );
    ]
