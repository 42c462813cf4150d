module Cube = Stc_logic.Cube
module Cover = Stc_logic.Cover
module Minimize = Stc_logic.Minimize
module Naive = Stc_logic.Naive
module Pla = Stc_logic.Pla
module Rng = Stc_util.Rng
module Suite = Stc_benchmarks.Suite
module Tables = Stc_encoding.Tables

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let qcheck = QCheck_alcotest.to_alcotest

(* Random cube / cover generators driven by a seed. *)
let random_output rng ~num_outputs =
  let output = Array.init num_outputs (fun _ -> Rng.bool rng) in
  if not (Array.exists Fun.id output) then
    output.(Rng.int rng num_outputs) <- true;
  output

let random_cube rng ~num_vars ~num_outputs =
  let input =
    Array.init num_vars (fun _ ->
        match Rng.int rng 3 with 0 -> Cube.Zero | 1 -> Cube.One | _ -> Cube.Dc)
  in
  Cube.make ~input ~output:(random_output rng ~num_outputs)

let random_cover rng ~num_vars ~num_outputs ~max_cubes =
  let n = 1 + Rng.int rng max_cubes in
  Cover.make ~num_vars ~num_outputs
    (List.init n (fun _ -> random_cube rng ~num_vars ~num_outputs))

(* 2-5 variables, small enough for truth tables.  With [~wide:true]
   half the cases draw 32-70 variables instead, so packed rows span two
   or three words (31 variables per word). *)
let dims ?(wide = false) rng =
  let num_vars =
    if wide && Rng.bool rng then 32 + Rng.int rng 39 else 2 + Rng.int rng 4
  in
  let num_outputs = 1 + Rng.int rng 3 in
  (num_vars, num_outputs)

(* 8-14 variables, still small enough for truth tables, with a
   uniformly drawn number of free variables per cube: the minimizer's
   per-cube queries then land on both sides of the 10-free-variable
   truth-table leaf. *)
let mid_dims rng = (8 + Rng.int rng 7, 1 + Rng.int rng 3)

let spread_cube rng ~num_vars ~num_outputs =
  let free = Array.init num_vars (fun k -> k < Rng.int rng (num_vars + 1)) in
  Rng.shuffle rng free;
  let input =
    Array.map
      (fun dc ->
        if dc then Cube.Dc else if Rng.bool rng then Cube.One else Cube.Zero)
      free
  in
  Cube.make ~input ~output:(random_output rng ~num_outputs)

(* Pieces whose union is [cube]: split on a random free variable, each
   half again while [depth] lasts, some halves left whole. *)
let rec split_cube rng ~depth cube =
  let free =
    List.filter
      (fun k -> Cube.get cube k = Cube.Dc)
      (List.init (Cube.num_vars cube) Fun.id)
  in
  if depth = 0 || free = [] || Rng.int rng 4 = 0 then [ cube ]
  else begin
    let k = List.nth free (Rng.int rng (List.length free)) in
    let half t =
      let input = Cube.input cube in
      input.(k) <- t;
      split_cube rng ~depth:(depth - 1)
        (Cube.make ~input ~output:(Cube.output cube))
    in
    half Cube.Zero @ half Cube.One
  end

(* An 8-14-variable query: a cover of spread cubes and a query cube.
   Half the time the cover also holds a split of the cube with some
   pieces dropped, so covered and nearly covered queries occur. *)
let mid_query rng ~max_cubes =
  let num_vars, num_outputs = mid_dims rng in
  let cube = spread_cube rng ~num_vars ~num_outputs in
  let others =
    List.init (1 + Rng.int rng max_cubes) (fun _ ->
        spread_cube rng ~num_vars ~num_outputs)
  in
  let pieces =
    if Rng.bool rng then
      List.filter (fun _ -> Rng.int rng 4 <> 0) (split_cube rng ~depth:4 cube)
    else []
  in
  (Cover.make ~num_vars ~num_outputs (others @ pieces), cube)

(* ------------------------------------------------------------------ *)
(* Cube                                                                *)
(* ------------------------------------------------------------------ *)

let test_cube_string_roundtrip () =
  let c = Cube.of_string "1-0 10" in
  check_string "roundtrip" "1-0 10" (Cube.to_string c);
  check_int "literals" 2 (Cube.literals c);
  check_bool "matches 100" true (Cube.matches c 0b100);
  check_bool "matches 110" true (Cube.matches c 0b110);
  check_bool "rejects 101" false (Cube.matches c 0b101)

let test_cube_of_string_rejects () =
  check_bool "bad char" true
    (match Cube.of_string "1x0 1" with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_bool "empty output" true
    (match Cube.of_string "111 00" with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_cube_minterm () =
  let c = Cube.minterm ~num_vars:3 ~num_outputs:1 0b101 in
  check_string "string" "101 1" (Cube.to_string c);
  check_bool "only itself" true
    (List.for_all
       (fun v -> Cube.matches c v = (v = 0b101))
       (List.init 8 (fun v -> v)))

let test_cube_input_size () =
  check_bool "2 dc -> 4 minterms" true
    (Cube.input_size (Cube.of_string "1-- 1") = 4.0)

let test_cube_contains_semantic =
  QCheck.Test.make ~count:300 ~name:"contains = minterm subset + output subset"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let num_vars, num_outputs = dims rng in
      let a = random_cube rng ~num_vars ~num_outputs
      and b = random_cube rng ~num_vars ~num_outputs in
      let input_subset = ref true in
      for v = 0 to (1 lsl num_vars) - 1 do
        if Cube.matches b v && not (Cube.matches a v) then input_subset := false
      done;
      let output_subset = ref true in
      for o = 0 to num_outputs - 1 do
        if Cube.output_bit b o && not (Cube.output_bit a o) then
          output_subset := false
      done;
      Cube.contains a b = (!input_subset && !output_subset))

let test_cube_intersect_semantic =
  QCheck.Test.make ~count:300 ~name:"intersect matches minterm intersection"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let num_vars, num_outputs = dims rng in
      let a = random_cube rng ~num_vars ~num_outputs
      and b = random_cube rng ~num_vars ~num_outputs in
      let both v = Cube.matches a v && Cube.matches b v in
      let out_overlap = Cube.output_overlap a b in
      match Cube.intersect a b with
      | None ->
        (* empty: either inputs disjoint or outputs disjoint *)
        List.for_all (fun v -> not (both v)) (List.init (1 lsl num_vars) Fun.id)
        || not out_overlap
      | Some c ->
        List.for_all
          (fun v -> Cube.matches c v = both v)
          (List.init (1 lsl num_vars) Fun.id))

let test_cube_supercube_is_bound =
  QCheck.Test.make ~count:300 ~name:"supercube contains both arguments"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let num_vars, num_outputs = dims rng in
      let a = random_cube rng ~num_vars ~num_outputs
      and b = random_cube rng ~num_vars ~num_outputs in
      let s = Cube.supercube a b in
      Cube.contains s a && Cube.contains s b)

let test_cube_distance () =
  check_int "distance" 3 (Cube.distance (Cube.of_string "110 1") (Cube.of_string "001 1"));
  check_int "zero when overlapping" 0
    (Cube.distance (Cube.of_string "1-- 1") (Cube.of_string "-01 1"))

(* ------------------------------------------------------------------ *)
(* Cover                                                               *)
(* ------------------------------------------------------------------ *)

let test_cover_eval () =
  let c = Cover.of_strings ~num_vars:2 ~num_outputs:2 [ "1- 10"; "-1 01" ] in
  check_bool "11 -> both" true (Cover.eval c 0b11 = [| true; true |]);
  check_bool "10 -> first" true (Cover.eval c 0b10 = [| true; false |]);
  check_bool "00 -> none" true (Cover.eval c 0b00 = [| false; false |])

let test_cover_tautology_examples () =
  let taut = Cover.of_strings ~num_vars:2 ~num_outputs:1 [ "1- 1"; "0- 1" ] in
  check_bool "x + x' tautology" true (Cover.tautology taut);
  let no = Cover.of_strings ~num_vars:2 ~num_outputs:1 [ "1- 1"; "01 1" ] in
  check_bool "not tautology" false (Cover.tautology no);
  let dc = Cover.of_strings ~num_vars:2 ~num_outputs:1 [ "-- 1" ] in
  check_bool "universal cube" true (Cover.tautology dc)

let test_cover_tautology_oracle =
  QCheck.Test.make ~count:300 ~name:"tautology agrees with truth table"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let num_vars, num_outputs = dims rng in
      let c = random_cover rng ~num_vars ~num_outputs ~max_cubes:8 in
      let table = Truth.table c in
      let full = Array.for_all (fun row -> Array.for_all Fun.id row) table in
      Cover.tautology c = full)

let test_cover_complement_oracle =
  QCheck.Test.make ~count:200 ~name:"complement flips every minterm"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let num_vars, num_outputs = dims rng in
      let c = random_cover rng ~num_vars ~num_outputs ~max_cubes:8 in
      let comp = Cover.complement c in
      let ok = ref true in
      for v = 0 to (1 lsl num_vars) - 1 do
        let a = Cover.eval c v and b = Cover.eval comp v in
        Array.iteri (fun o av -> if av = b.(o) then ok := false) a
      done;
      !ok)

(* The covers_cube / sharp_cube truth-table checks on one query. *)
let covers_cube_agrees c cube =
  let num_vars = c.Cover.num_vars in
  let semantic = ref true in
  for v = 0 to (1 lsl num_vars) - 1 do
    if Cube.matches cube v then begin
      let row = Cover.eval c v in
      Array.iteri
        (fun o covered ->
          if Cube.output_bit cube o && not covered then semantic := false)
        row
    end
  done;
  Cover.covers_cube c cube = !semantic

let sharp_cube_agrees c cube =
  let diff = Cover.sharp_cube cube c in
  let ok = ref true in
  for v = 0 to (1 lsl c.Cover.num_vars) - 1 do
    let in_diff = Cover.eval diff v and in_c = Cover.eval c v in
    Array.iteri
      (fun o covered ->
        let expected = Cube.output_bit cube o && Cube.matches cube v && not covered in
        if in_diff.(o) <> expected then ok := false)
      in_c
  done;
  !ok

(* A narrow query (2-5 variables) or, half the time, an 8-14-variable
   one from [mid_query]. *)
let oracle_query rng ~max_cubes =
  if Rng.bool rng then mid_query rng ~max_cubes
  else
    let num_vars, num_outputs = dims rng in
    let c = random_cover rng ~num_vars ~num_outputs ~max_cubes in
    (c, random_cube rng ~num_vars ~num_outputs)

let test_cover_covers_cube_oracle =
  QCheck.Test.make ~count:300 ~name:"covers_cube agrees with truth table"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let c, cube = oracle_query (Rng.create seed) ~max_cubes:6 in
      covers_cube_agrees c cube)

let test_cover_sharp_cube_oracle =
  QCheck.Test.make ~count:200 ~name:"sharp_cube = cube minus cover"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let c, cube = oracle_query (Rng.create seed) ~max_cubes:6 in
      sharp_cube_agrees c cube)

(* REDUCE's query against its definition, with a random [keep]: the
   supercube of what [sharp_cube] leaves, on every dimension range. *)
let test_cover_sharp_supercube =
  QCheck.Test.make ~count:300 ~name:"sharp_supercube = supercube of sharp_cube"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let c, cube =
        if Rng.bool rng then oracle_query rng ~max_cubes:6
        else
          let num_vars, num_outputs = dims ~wide:true rng in
          let c = random_cover rng ~num_vars ~num_outputs ~max_cubes:8 in
          (c, random_cube rng ~num_vars ~num_outputs)
      in
      let mask = Array.map (fun _ -> Rng.int rng 4 <> 0) c.Cover.cubes in
      let keep i = mask.(i) in
      let expected =
        match Array.to_list (Cover.sharp_cube ~keep cube c).Cover.cubes with
        | [] -> None
        | first :: more -> Some (List.fold_left Cube.supercube first more)
      in
      Option.equal Cube.equal (Cover.sharp_supercube ~keep cube c) expected)

(* The leaf's per-domain scratch starts empty on a fresh domain (the
   minimizer's [jobs] workers are spawned per call) and must grow
   without losing the hits already entered: 1 024 minterm cubes cover
   the full 10-variable cube, the widest the leaf takes. *)
let test_leaf_fresh_domain () =
  let full = Cube.full ~num_vars:10 ~num_outputs:1 in
  let c = Cover.minterms (Cover.of_array ~num_vars:10 ~num_outputs:1 [| full |]) in
  let covered, rest =
    Domain.join
      (Domain.spawn (fun () ->
           (Cover.covers_cube c full, Cover.sharp_supercube full c)))
  in
  check_bool "covers" true covered;
  check_bool "nothing left" true (rest = None)

let test_cover_keep_filter =
  QCheck.Test.make ~count:200 ~name:"?keep = the same query on the kept cubes"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let num_vars, num_outputs = dims ~wide:true rng in
      let c = random_cover rng ~num_vars ~num_outputs ~max_cubes:8 in
      let cube = random_cube rng ~num_vars ~num_outputs in
      let mask = Array.map (fun _ -> Rng.bool rng) c.Cover.cubes in
      let keep i = mask.(i) in
      let kept =
        Cover.make ~num_vars ~num_outputs
          (List.filteri (fun i _ -> keep i) (Array.to_list c.Cover.cubes))
      in
      Cover.covers_cube ~keep c cube = Cover.covers_cube kept cube
      && Cover.to_string (Cover.sharp_cube ~keep cube c)
         = Cover.to_string (Cover.sharp_cube cube kept))

let test_cover_scc_preserves =
  QCheck.Test.make ~count:200 ~name:"single-cube containment preserves function"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let num_vars, num_outputs = dims rng in
      let c = random_cover rng ~num_vars ~num_outputs ~max_cubes:10 in
      Truth.equivalent c (Cover.single_cube_containment c))

let test_cover_minterms_equals_eval =
  QCheck.Test.make ~count:100 ~name:"minterm expansion preserves function"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let num_vars, num_outputs = dims rng in
      let c = random_cover rng ~num_vars ~num_outputs ~max_cubes:6 in
      Truth.equivalent c (Cover.minterms c))

let test_cover_equivalent_mutual =
  QCheck.Test.make ~count:150 ~name:"equivalent agrees with truth tables"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let num_vars, num_outputs = dims rng in
      let a = random_cover rng ~num_vars ~num_outputs ~max_cubes:5 in
      let b = random_cover rng ~num_vars ~num_outputs ~max_cubes:5 in
      Cover.equivalent a b = Truth.equivalent a b)

(* ------------------------------------------------------------------ *)
(* Minimize                                                            *)
(* ------------------------------------------------------------------ *)

let test_minimize_xor_stays_two_cubes () =
  (* XOR has no two-level minimization: 2 cubes, 4 literals. *)
  let on = Cover.of_strings ~num_vars:2 ~num_outputs:1 [ "10 1"; "01 1" ] in
  let result, _ = Minimize.minimize on in
  check_int "2 cubes" 2 (Cover.size result);
  check_bool "exact" true (Truth.equivalent on result)

let test_minimize_merges_adjacent () =
  (* ab + ab' = a. *)
  let on = Cover.of_strings ~num_vars:2 ~num_outputs:1 [ "11 1"; "10 1" ] in
  let result, report = Minimize.minimize on in
  check_int "1 cube" 1 (Cover.size result);
  check_int "1 literal" 2 report.Minimize.final_literals
  (* input literal + output literal *)

let test_minimize_uses_dont_cares () =
  (* f = m(1); dc = m(3): minimizer should produce the single cube -1. *)
  let on = Cover.of_strings ~num_vars:2 ~num_outputs:1 [ "01 1" ] in
  let dc = Cover.of_strings ~num_vars:2 ~num_outputs:1 [ "11 1" ] in
  let result, _ = Minimize.minimize ~dc on in
  check_int "1 cube" 1 (Cover.size result);
  check_bool "contract" true (Truth.equivalent_with_dc ~on ~dc result)

(* "Every other alive cube plus dc" in [cover + dc], by index: cube [i]
   and the dropped cover cubes are skipped, the dc cubes past [n] kept. *)
let others ~n alive i j = j >= n || (j <> i && alive.(j))

let with_dc ?dc cover =
  match dc with None -> cover | Some d -> Cover.union cover d

(* No single cube of [cover] is covered by the rest plus [dc]. *)
let is_irredundant ?dc cover =
  let cubes = cover.Cover.cubes in
  let n = Array.length cubes in
  let context = with_dc ?dc cover in
  let all_alive = Array.make n true in
  let rec go i =
    i >= n
    || (not (Cover.covers_cube ~keep:(others ~n all_alive i) context cubes.(i)))
       && go (i + 1)
  in
  go 0

let test_minimize_contract =
  QCheck.Test.make ~count:150 ~name:"minimize satisfies on <= f <= on+dc"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let num_vars, num_outputs = dims rng in
      let on = random_cover rng ~num_vars ~num_outputs ~max_cubes:8 in
      let dc = random_cover rng ~num_vars ~num_outputs ~max_cubes:4 in
      let result, _ = Minimize.minimize ~dc on in
      Truth.equivalent_with_dc ~on ~dc result
      && Minimize.verify ~on ~dc result
      && is_irredundant ~dc result)

let test_minimize_never_worse =
  (* Cube count never increases (expand keeps it, containment/irredundant
     only remove).  Literal counts can trade input literals for output
     literals, so only the cube bound is guaranteed. *)
  QCheck.Test.make ~count:150 ~name:"minimize never increases the cube count"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let num_vars, num_outputs = dims rng in
      let on = random_cover rng ~num_vars ~num_outputs ~max_cubes:10 in
      let result, report = Minimize.minimize on in
      let cubes, lits = Cover.cost result in
      cubes <= report.Minimize.initial_cubes
      && report.Minimize.final_cubes = cubes
      && report.Minimize.final_literals = lits)

let test_expand_yields_primes =
  QCheck.Test.make ~count:100 ~name:"expanded cubes cannot be raised further"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let num_vars, num_outputs = dims rng in
      let on = random_cover rng ~num_vars ~num_outputs ~max_cubes:6 in
      let off = Minimize.off_set on in
      let expanded = Minimize.expand ~off on in
      Array.for_all
        (fun cube ->
          (* every remaining literal conflicts with the off-set if raised *)
          let prime = ref true in
          for k = 0 to num_vars - 1 do
            if Cube.get cube k <> Cube.Dc then begin
              let input = Cube.input cube in
              input.(k) <- Cube.Dc;
              let raised = Cube.make ~input ~output:(Cube.output cube) in
              let hits_off =
                Array.exists
                  (fun r -> Cube.intersect raised r <> None)
                  off.Cover.cubes
              in
              if not hits_off then prime := false
            end
          done;
          !prime)
        expanded.Cover.cubes)

let test_reduce_keeps_function =
  QCheck.Test.make ~count:100 ~name:"reduce preserves the function"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let on, _ = oracle_query (Rng.create seed) ~max_cubes:8 in
      Truth.equivalent on (Minimize.reduce on))

(* A single cube inside the don't-care set is redundant: IRREDUNDANT
   must drop it, as it does when a second such cube is present, and
   the test's [is_irredundant] must agree. *)
let test_irredundant_single_cube_dc () =
  let cover rows = Cover.of_strings ~num_vars:2 ~num_outputs:1 rows in
  let dc = cover [ "1- 1" ] in
  let one = Minimize.irredundant ~dc (cover [ "11 1" ]) in
  check_int "one cube dropped" 0 (Cover.size one);
  check_int "two cubes dropped" 0
    (Cover.size (Minimize.irredundant ~dc (cover [ "11 1"; "10 1" ])));
  check_bool "is_irredundant agrees" false
    (is_irredundant ~dc (cover [ "11 1" ]));
  check_int "kept without dc" 1
    (Cover.size (Minimize.irredundant (cover [ "11 1" ])))

(* ------------------------------------------------------------------ *)
(* Packed engine vs. the retained trit-array reference (Naive)         *)
(* ------------------------------------------------------------------ *)

let same_cover a b =
  Cover.size a = Cover.size b
  && Array.for_all2 Cube.equal a.Cover.cubes b.Cover.cubes

let test_packed_cube_ops_vs_naive =
  QCheck.Test.make ~count:300 ~name:"packed contains/intersect = naive"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let num_vars, num_outputs = dims rng in
      let a = random_cube rng ~num_vars ~num_outputs
      and b = random_cube rng ~num_vars ~num_outputs in
      Cube.contains a b = Naive.contains a b
      && (match (Cube.intersect a b, Naive.intersect a b) with
         | None, None -> true
         | Some x, Some y -> Cube.equal x y
         | _ -> false))

let test_packed_cover_ops_vs_naive =
  QCheck.Test.make ~count:200
    ~name:"packed tautology/covers_cube/complement = naive"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let num_vars, num_outputs = dims rng in
      let c = random_cover rng ~num_vars ~num_outputs ~max_cubes:8 in
      let cube = random_cube rng ~num_vars ~num_outputs in
      Cover.tautology c = Naive.tautology c
      && Cover.covers_cube c cube = Naive.covers_cube c cube
      && Truth.equivalent (Cover.complement c) (Naive.complement c))

let test_minimize_vs_reference =
  QCheck.Test.make ~count:80 ~name:"minimize matches the reference contract"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let num_vars, num_outputs = dims rng in
      let on = random_cover rng ~num_vars ~num_outputs ~max_cubes:8 in
      let dc = random_cover rng ~num_vars ~num_outputs ~max_cubes:4 in
      let packed, _ = Minimize.minimize ~dc on in
      let reference, _ = Minimize.reference ~dc on in
      Minimize.verify ~on ~dc packed
      && Minimize.verify ~on ~dc reference
      && Truth.equivalent_with_dc ~on ~dc packed
      && Truth.equivalent_with_dc ~on ~dc reference)

(* EXPAND spelled out from its definition: raise the fixed columns in
   ascending order of how many output-overlapping off-cubes conflict
   there (ties by index), keeping a raise iff the raised cube meets none
   of those off-cubes; then add every output that no off-cube asserting
   it meets; then single-cube containment. *)
let reference_expand ~off cover =
  let num_vars = cover.Cover.num_vars
  and num_outputs = cover.Cover.num_outputs in
  let raise_cube cube =
    let rel =
      List.filter (fun r -> Cube.output_overlap r cube)
        (Array.to_list off.Cover.cubes)
    in
    let blockers k =
      List.length
        (List.filter
           (fun r ->
             match (Cube.get cube k, Cube.get r k) with
             | Cube.Zero, Cube.One | Cube.One, Cube.Zero -> true
             | _ -> false)
           rel)
    in
    let order =
      List.init num_vars Fun.id
      |> List.filter (fun k -> Cube.get cube k <> Cube.Dc)
      |> List.map (fun k -> (blockers k, k))
      |> List.sort compare |> List.map snd
    in
    let input = Cube.input cube and output = Cube.output cube in
    List.iter
      (fun k ->
        let saved = input.(k) in
        input.(k) <- Cube.Dc;
        let raised = Cube.make ~input ~output in
        if List.exists (fun r -> Cube.distance raised r = 0) rel then
          input.(k) <- saved)
      order;
    let raised = Cube.make ~input ~output in
    let output =
      Array.mapi
        (fun o asserted ->
          asserted
          || not
               (Array.exists
                  (fun r -> Cube.output_bit r o && Cube.distance raised r = 0)
                  off.Cover.cubes))
        output
    in
    Cube.make ~input ~output
  in
  Cover.single_cube_containment
    (Cover.make ~num_vars ~num_outputs
       (List.map raise_cube (Array.to_list cover.Cover.cubes)))

(* An EXPAND instance where the raise order matters: a few nearly fully
   specified on-cubes and an off-set of sparse (2-4 literal) cubes kept
   only if they miss every on-cube they share an output with, so many
   off-cubes block exactly one of two columns.  On random covers against
   their true off-set, under 3 % of cases depend on the order. *)
let planted_expand_case rng ~num_vars ~num_outputs =
  let cube ~fixed =
    let input =
      Array.init num_vars (fun k ->
          if fixed k then if Rng.bool rng then Cube.One else Cube.Zero
          else Cube.Dc)
    in
    let output = Array.init num_outputs (fun _ -> Rng.bool rng) in
    output.(Rng.int rng num_outputs) <- true;
    Cube.make ~input ~output
  in
  let on =
    List.init (1 + Rng.int rng 4) (fun _ ->
        cube ~fixed:(fun _ -> Rng.int rng 8 <> 0))
  in
  let off = ref [] in
  for _ = 1 to 60 do
    let cols = List.init (2 + Rng.int rng 3) (fun _ -> Rng.int rng num_vars) in
    let r = cube ~fixed:(fun k -> List.mem k cols) in
    if
      List.for_all
        (fun c -> (not (Cube.output_overlap r c)) || Cube.distance r c > 0)
        on
    then off := r :: !off
  done;
  (Cover.make ~num_vars ~num_outputs on, Cover.make ~num_vars ~num_outputs !off)

(* EXPAND decides its raises on off-set bitmaps when their points are
   few (at most 2^12) or few next to its off-cubes times its cubes, and
   on blocking matrices otherwise.  Its properties draw from
   [dims ~wide:true] (2-5 variables: bitmaps, narrower than one 32-point
   chunk; 32-70: matrices), from [mid_dims], and one case in eight from
   11-14 variables, where the choice turns on the size of the cover and
   of its off-set. *)
let expand_dims rng =
  match Rng.int rng 8 with
  | 0 | 1 -> mid_dims rng
  | 2 -> (11 + Rng.int rng 4, 1 + Rng.int rng 3)
  | _ -> dims ~wide:true rng

let test_expand_vs_reference =
  QCheck.Test.make ~count:200 ~name:"expand = blocking-count reference, cube for cube"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let num_vars, num_outputs = expand_dims rng in
      let on, off =
        if Rng.bool rng then planted_expand_case rng ~num_vars ~num_outputs
        else begin
          let on = random_cover rng ~num_vars ~num_outputs ~max_cubes:8 in
          let dc = random_cover rng ~num_vars ~num_outputs ~max_cubes:3 in
          (on, Minimize.off_set ~dc on)
        end
      in
      same_cover (Minimize.expand ~off on) (reference_expand ~off on))

(* The premise of the minimizer's prime skip: a cube that came out of
   EXPAND (and survived IRREDUNDANT) is a fixed point of EXPAND against
   the same off-set, so a cube REDUCE leaves unchanged need not be raised
   again. *)
let test_expand_fixed_point =
  QCheck.Test.make ~count:200 ~name:"irredundant (expand ...) cubes are EXPAND fixed points"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let num_vars, num_outputs = expand_dims rng in
      let on, dc, off =
        if Rng.bool rng then
          let on, off = planted_expand_case rng ~num_vars ~num_outputs in
          (on, None, off)
        else begin
          let on = random_cover rng ~num_vars ~num_outputs ~max_cubes:8 in
          let dc = random_cover rng ~num_vars ~num_outputs ~max_cubes:3 in
          (on, Some dc, Minimize.off_set ~dc on)
        end
      in
      let primes = Minimize.irredundant ?dc (Minimize.expand ~off on) in
      Array.for_all
        (fun cube ->
          let single = Cover.of_array ~num_vars ~num_outputs [| cube |] in
          same_cover (Minimize.expand ~off single) single)
        primes.Cover.cubes)

(* The flow's context of a corpus machine, computed once per run. *)
let pipeline_context =
  let contexts = Hashtbl.create 4 in
  fun name ->
    match Hashtbl.find_opt contexts name with
    | Some ctx -> ctx
    | None ->
      let m =
        match Suite.find name with Some s -> Suite.machine s | None -> assert false
      in
      let ctx = Stc_analysis.Context.of_machine m in
      Hashtbl.add contexts name ctx;
      ctx

(* Digests of the minimized fig. 4 blocks, recorded before the EXPAND
   counter and the shared-context IRREDUNDANT/REDUCE (tbk's before the
   indexed off-set and the prime skip): speed work on the minimizer must
   leave every cover byte-identical. *)
let test_pipeline_covers_pinned () =
  List.iter
    (fun (name, digests) ->
      let ctx = pipeline_context name in
      List.iter2
        (fun (b : Stc_analysis.Context.block) expected ->
          let cover = b.Stc_analysis.Context.minimized in
          check_string (name ^ "/" ^ b.Stc_analysis.Context.block_label) expected
            (Digest.to_hex (Digest.string (Cover.to_string cover))))
        ctx.Stc_analysis.Context.blocks digests)
    [ ("bbara",
       [ "3c2cab9f0ad82b0c72a2063c26863505"; "854f5d4d156225abb296ef0001700047";
         "c9f303a53dbd7ce8d304919c78ee2161" ]);
      ("dk16",
       [ "f62511eab7f93b1d42b8a347fe9ed005"; "ea3bf3dfb04ad678100a2981e5b3c1bf";
         "8d9ef6186b5df60d68cc56868ca7db87" ]);
      ("dk512",
       [ "09046236df4c1de67947b7abc24d38c2"; "69bfa9f9ac8afe211468eaaf4ca5dd09";
         "52ab88a3079a5e6816d75bc57aee77e5" ]);
      ("tbk",
       [ "9774a276d8df0173ff4ddf8bb80a2895"; "43a1f5986169d843b97b3269edd560e9";
         "82b7b6fd7fe27c869825bc192ea29a84" ]) ]

(* The blocks [labels] of [name]'s fig. 4 pipeline, minimized again with
   the metrics on: each must come out as the flow's cover, with
   IRREDUNDANT's and REDUCE's queries decided on the point-count tables
   and none by the recursion. *)
let check_queries_counted name labels =
  let module Context = Stc_analysis.Context in
  let module Metrics = Stc_obs.Metrics in
  let ctx = pipeline_context name in
  let count n = Metrics.counter_value (Metrics.counter n) in
  List.iter
    (fun label ->
      let b =
        List.find (fun b -> b.Context.block_label = label) ctx.Context.blocks
      in
      Metrics.set_enabled true;
      Metrics.reset ();
      let result =
        Fun.protect
          ~finally:(fun () -> Metrics.set_enabled false)
          (fun () -> fst (Minimize.minimize ~dc:b.Context.dc b.Context.on))
      in
      let what s = Printf.sprintf "%s/%s %s" name label s in
      check_string (what "same cover") (Cover.to_string b.Context.minimized)
        (Cover.to_string result);
      check_bool (what "count queries") true (count "minimize.count_queries" > 0);
      check_int (what "wide queries") 0 (count "minimize.wide_queries");
      check_int (what "tautology calls") 0 (count "minimize.tautology_calls"))
    labels

(* tbk's output block is the flow's largest minimization: 14 variables
   and 3 outputs, so its table has 49 152 points. *)
let test_lambda_queries_counted () = check_queries_counted "tbk" [ "lambda" ]

(* dk16's three blocks, the small C1 and C2 included, query on the
   tables too. *)
let test_dk16_queries_counted () =
  check_queries_counted "dk16" [ "c1"; "c2"; "lambda" ]

(* [f ()] with the metrics registry on, and the named counters after. *)
let with_counters names f =
  let module Metrics = Stc_obs.Metrics in
  Metrics.set_enabled true;
  Metrics.reset ();
  Fun.protect
    ~finally:(fun () -> Metrics.set_enabled false)
    (fun () ->
      let r = f () in
      (r, List.map (fun n -> Metrics.counter_value (Metrics.counter n)) names))

(* IRREDUNDANT and REDUCE as the minimizer ran them before its
   point-count tables: one {!Cover.covers_cube} or
   {!Cover.sharp_supercube} scan of [cover + dc] per query. *)
let reference_irredundant ?dc cover =
  let cubes = cover.Cover.cubes in
  let n = Array.length cubes in
  let context = with_dc ?dc cover in
  let covered alive i =
    Cover.covers_cube ~keep:(others ~n alive i) context cubes.(i)
  in
  let all_alive = Array.make n true in
  let order =
    List.stable_sort
      (fun a b ->
        let la = Cube.literals cubes.(a) and lb = Cube.literals cubes.(b) in
        if la <> lb then Int.compare lb la else Cube.compare cubes.(a) cubes.(b))
      (List.filter (covered all_alive) (List.init n Fun.id))
  in
  let alive = Array.make n true in
  List.iter (fun i -> if covered alive i then alive.(i) <- false) order;
  Cover.make ~num_vars:cover.Cover.num_vars ~num_outputs:cover.Cover.num_outputs
    (List.filteri (fun i _ -> alive.(i)) (Array.to_list cubes))

let reference_reduce ?dc cover =
  let n = Cover.size cover in
  let num_vars = cover.Cover.num_vars and num_outputs = cover.Cover.num_outputs in
  (* Shrunk cubes are written back, so later queries see them. *)
  let context =
    Cover.of_array ~num_vars ~num_outputs
      (Array.copy (with_dc ?dc cover).Cover.cubes)
  in
  let cubes = context.Cover.cubes in
  let alive = Array.make n true in
  for i = 0 to n - 1 do
    match Cover.sharp_supercube ~keep:(others ~n alive i) cubes.(i) context with
    | None -> alive.(i) <- false
    | Some shrunk -> cubes.(i) <- shrunk
  done;
  Cover.make ~num_vars ~num_outputs
    (List.filteri (fun i _ -> i < n && alive.(i)) (Array.to_list cubes))

(* [Minimize.irredundant] and [Minimize.reduce] of [on] against the
   references, cube for cube, and how many table queries they made. *)
let passes_agree ?dc on =
  let (same_irr, same_red), counts =
    with_counters [ "minimize.count_queries" ] (fun () ->
        ( same_cover (Minimize.irredundant ?dc on) (reference_irredundant ?dc on),
          same_cover (Minimize.reduce ?dc on) (reference_reduce ?dc on) ))
  in
  (same_irr && same_red, List.hd counts)

(* A cover for the pass checks, a dc set half the time.  Half the cases
   have 2-6 variables and up to 40 cubes (small covers take the
   per-query scan, larger ones the table); one in four has 8-14
   variables and cubes with uniformly many free ones (up to 40 cubes
   plus pieces of one, so cubes on the table also have more than 10 free
   variables); one in four has 32-70 variables and one output (never a
   table). *)
let pass_case rng =
  let on =
    match Rng.int rng 4 with
    | 0 -> random_cover rng ~num_vars:(32 + Rng.int rng 39) ~num_outputs:1 ~max_cubes:40
    | 1 -> fst (mid_query rng ~max_cubes:40)
    | _ ->
      let num_vars, num_outputs = dims rng in
      random_cover rng ~num_vars:(num_vars + Rng.int rng 2) ~num_outputs ~max_cubes:40
  in
  let num_vars = on.Cover.num_vars and num_outputs = on.Cover.num_outputs in
  let dc =
    if Rng.bool rng then Some (random_cover rng ~num_vars ~num_outputs ~max_cubes:6)
    else None
  in
  (on, dc)

let test_passes_vs_per_query =
  QCheck.Test.make ~count:300
    ~name:"irredundant/reduce = per-query reference"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let on, dc = pass_case (Rng.create seed) in
      fst (passes_agree ?dc on))

(* The generator above lands on both sides of the table's cost rule. *)
let test_pass_cases_take_both_forms () =
  let counted = ref 0 and scanned = ref 0 in
  for seed = 1 to 200 do
    let on, dc = pass_case (Rng.create seed) in
    let same, queries = passes_agree ?dc on in
    check_bool (Printf.sprintf "seed %d agrees" seed) true same;
    if queries > 0 then incr counted else incr scanned
  done;
  check_bool "some covers on the table" true (!counted >= 40);
  check_bool "some covers per query" true (!scanned >= 40)

(* Edge cases of the passes, each on the form [table] says, against the
   references. *)
let check_pass_edge label ~table ?dc on =
  let same, queries = passes_agree ?dc on in
  check_bool (label ^ ": same covers") true same;
  check_bool (label ^ ": on the table") table (queries > 0)

let test_pass_edges () =
  let cover nv rows = Cover.of_strings ~num_vars:nv ~num_outputs:1 rows in
  (* Two copies of one cube: IRREDUNDANT drops one, REDUCE drops the
     first and leaves the second. *)
  let dups = cover 2 [ "11 1"; "11 1"; "10 1"; "01 1"; "00 1" ] in
  check_pass_edge "duplicates" ~table:true dups;
  check_int "one duplicate left" 4 (Cover.size (Minimize.irredundant dups));
  check_string "reduce keeps the second copy" "11 1\n10 1\n01 1\n00 1\n"
    (Cover.to_string (Minimize.reduce dups));
  (* A dc cube covering two on-cubes: both go. *)
  let on = cover 2 [ "11 1"; "10 1"; "0- 1" ] and dc = cover 2 [ "1- 1" ] in
  check_pass_edge "dc covers on-cubes" ~table:true ~dc on;
  check_string "irredundant" "0- 1\n" (Cover.to_string (Minimize.irredundant ~dc on));
  check_string "reduce" "0- 1\n" (Cover.to_string (Minimize.reduce ~dc on));
  (* One cube and no dc: nothing to query against; it stays. *)
  let one = cover 3 [ "1-0 1" ] in
  check_pass_edge "one cube" ~table:false one;
  check_string "reduce keeps it" "1-0 1\n" (Cover.to_string (Minimize.reduce one));
  (* 64 variables, 40 cubes of one literal each: the width is checked
     before any shift by it ([1 lsl 64] would read as 1 and the cubes'
     [2^63] points would sum to 0), so the cover never reaches the
     table. *)
  let wide =
    Cover.make ~num_vars:64 ~num_outputs:1
      (List.init 40 (fun k ->
           Cube.of_string (String.init 64 (fun j -> if j = k then '1' else '-') ^ " 1")))
  in
  check_pass_edge "64 variables" ~table:false wide

(* The cover checker from truth tables: for each result cube and output
   it asserts, the lowest point of the cube outside [on + dc]; for each
   on-cube and output, the lowest point outside [result + dc].  Points
   ascend as {!Cover.eval} numbers them, variable 0 in the top bit. *)
let reference_check ~on ?dc result =
  let nv = on.Cover.num_vars and no = on.Cover.num_outputs in
  let dc = Option.value dc ~default:(Cover.empty ~num_vars:nv ~num_outputs:no) in
  let t_on = Truth.table on and t_dc = Truth.table dc and t_res = Truth.table result in
  let side kind queries inside =
    List.concat
      (List.mapi
         (fun i cube ->
           List.filter_map
             (fun o ->
               let rec first v =
                 if v = 1 lsl nv then None
                 else if Cube.matches cube v && not (inside v o) then
                   Some
                     { Minimize.kind; cube = i; output = o;
                       point =
                         String.init nv (fun k ->
                             if (v lsr (nv - 1 - k)) land 1 = 1 then '1' else '0') }
                 else first (v + 1)
               in
               if Cube.output_bit cube o then first 0 else None)
             (List.init no Fun.id))
         (Array.to_list queries.Cover.cubes))
  in
  side Minimize.Off_set result (fun v o -> t_on.(v).(o) || t_dc.(v).(o))
  @ side Minimize.Uncovered on (fun v o -> t_res.(v).(o) || t_dc.(v).(o))

(* A spec of 2-12 variables (11-12 in one case in four) with a
   minimized result, wrong in about half the cases: a result cube
   dropped, a random cube or an output bit added, or the dc-set left out
   of the check.  Up to 4 cubes (mostly per-query checks) or up to 40
   (mostly tables); the on-cubes have uniformly many free variables, so
   queries over more than 10 free ones occur. *)
let check_case rng =
  let num_vars = if Rng.int rng 4 = 0 then 11 + Rng.int rng 2 else 2 + Rng.int rng 11 in
  let num_outputs = 1 + Rng.int rng 3 in
  let max_cubes = if Rng.bool rng then 4 else 40 in
  let on =
    Cover.make ~num_vars ~num_outputs
      (List.init (1 + Rng.int rng max_cubes) (fun _ ->
           spread_cube rng ~num_vars ~num_outputs))
  in
  let dc =
    if Rng.bool rng then Some (random_cover rng ~num_vars ~num_outputs ~max_cubes:6)
    else None
  in
  let result = fst (Minimize.minimize ?dc on) in
  let cubes = Array.to_list result.Cover.cubes in
  let n = List.length cubes in
  let remake cubes = Cover.make ~num_vars ~num_outputs cubes in
  let k = Rng.int rng (max n 1) in
  let unasserted =
    if n = 0 then []
    else
      List.filter
        (fun o -> not (Cube.output_bit (List.nth cubes k) o))
        (List.init num_outputs Fun.id)
  in
  match if Rng.int rng 3 = 0 then 4 else Rng.int rng 4 with
  | 0 when n > 0 -> (on, dc, remake (List.filteri (fun i _ -> i <> k) cubes))
  | 2 when unasserted <> [] ->
    let o = List.nth unasserted (Rng.int rng (List.length unasserted)) in
    let widen i c =
      if i <> k then c
      else
        let output = Cube.output c in
        output.(o) <- true;
        Cube.make ~input:(Cube.input c) ~output
    in
    (on, dc, remake (List.mapi widen cubes))
  | 3 when dc <> None -> (on, None, result)
  | 4 -> (on, dc, result)
  | _ -> (on, dc, remake (random_cube rng ~num_vars ~num_outputs :: cubes))

let test_check_vs_truth_tables =
  QCheck.Test.make ~count:400 ~name:"check = truth-table reference"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let on, dc, result = check_case (Rng.create seed) in
      Minimize.check ~on ?dc result = reference_check ~on ?dc result)

(* The cases above are wrong about half the time, and the checker
   answers them on both forms: the table and the per-query scan (also
   over 10 or more variables). *)
let test_check_cases_take_both_forms () =
  let wrong = ref 0 and counted = ref 0 and scanned = ref 0 and over_ten = ref 0 in
  for seed = 1 to 200 do
    let on, dc, result = check_case (Rng.create seed) in
    let violations, counts =
      with_counters
        [ "minimize.count_queries"; "minimize.dense_queries"; "minimize.wide_queries" ]
        (fun () -> Minimize.check ~on ?dc result)
    in
    let counters = Array.of_list counts in
    check_bool (Printf.sprintf "seed %d agrees" seed) true
      (violations = reference_check ~on ?dc result);
    if violations <> [] then incr wrong;
    if counters.(0) > 0 then incr counted;
    if counters.(1) + counters.(2) > 0 then incr scanned;
    if counters.(1) + counters.(2) > 0 && on.Cover.num_vars >= 10 then incr over_ten
  done;
  check_bool "some wrong" true (!wrong >= 60);
  check_bool "some right" true (!wrong <= 140);
  check_bool "some checks on the table" true (!counted >= 40);
  check_bool "some checks per query" true (!scanned >= 40);
  check_bool "some per-query checks over 10+ variables" true (!over_ten >= 10)

(* [rows] with [pad] don't-care columns appended to each input part. *)
let widen pad rows =
  List.map
    (fun r ->
      match String.split_on_char ' ' r with
      | [ i; o ] -> i ^ String.make pad '-' ^ " " ^ o
      | _ -> assert false)
    rows

(* EXPAND of the rows [on] against the rows [off], on both engines: as
   given (at most 5 variables: the bitmaps), and padded with 30
   don't-care columns (the blocking matrices).  Both must give the rows
   [expected], with [raises] attempted raises.  With [~no_output] the
   on-cubes' output parts are cleared (a row cannot spell that). *)
let check_expand_edge ?(no_output = false) label ~num_outputs ~on ~off ~expected
    ~raises =
  List.iter
    (fun (engine, pad) ->
      let num_vars = String.index (List.hd expected) ' ' + pad in
      let cover rows = Cover.of_strings ~num_vars ~num_outputs (widen pad rows) in
      let on =
        if not no_output then cover on
        else
          Cover.of_array ~num_vars ~num_outputs
            (Array.map
               (fun c ->
                 Cube.Raw.make_packed ~num_vars ~num_outputs
                   (Cube.Raw.input_words c)
                   (Array.make (Cube.Raw.out_words num_outputs) 0))
               (cover on).Cover.cubes)
      in
      let result, counts =
        with_counters
          [ "minimize.dense_expands"; "minimize.wide_expands";
            "minimize.expand_raises_attempted" ]
          (fun () -> Minimize.expand ~off:(cover off) on)
      in
      let name = label ^ " (" ^ engine ^ ")" in
      let used, other = if engine = "bitmaps" then (0, 1) else (1, 0) in
      check_string name (Cover.to_string (cover expected)) (Cover.to_string result);
      check_int (name ^ " raises") raises (List.nth counts 2);
      check_int (name ^ " cubes raised") (Cover.size on) (List.nth counts used);
      check_int (name ^ " other engine") 0 (List.nth counts other))
    [ ("bitmaps", 0); ("matrices", 30) ]

let test_expand_edges () =
  (* Three variables: an eight-point bitmap. *)
  check_expand_edge "narrow chunk" ~num_outputs:1 ~on:[ "000 1"; "001 1" ]
    ~off:[ "1-- 1"; "01- 1" ] ~expected:[ "00- 1" ] ~raises:6;
  check_expand_edge "empty off-set" ~num_outputs:2 ~on:[ "0101 10" ] ~off:[]
    ~expected:[ "---- 11" ] ~raises:5;
  (* No asserted output: no off-cube blocks a column; then output 0 is
     blocked and output 1 is free. *)
  check_expand_edge "no asserted output" ~no_output:true ~num_outputs:2
    ~on:[ "010 11" ] ~off:[ "1-- 10" ] ~expected:[ "--- 01" ] ~raises:5;
  check_expand_edge "meets the off-set" ~num_outputs:1 ~on:[ "01- 1" ]
    ~off:[ "0-- 1" ] ~expected:[ "01- 1" ] ~raises:0;
  (* Output 1 is blocked by one off-minterm inside the raised cube, and
     raised when that minterm lies outside it. *)
  check_expand_edge "output blocked by a minterm" ~num_outputs:2
    ~on:[ "00- 10" ] ~off:[ "1-- 10"; "001 01" ] ~expected:[ "0-- 10" ]
    ~raises:3;
  check_expand_edge "output raised past a minterm" ~num_outputs:2
    ~on:[ "00- 10" ] ~off:[ "1-- 10"; "101 01" ] ~expected:[ "0-- 11" ]
    ~raises:3

(* All three of tbk's blocks (Λ has 14 variables) raise every cube on
   the off-set bitmaps, none on the blocking matrices. *)
let test_tbk_expand_bitmaps () =
  let module Context = Stc_analysis.Context in
  let ctx = pipeline_context "tbk" in
  List.iter
    (fun (b : Context.block) ->
      let result, counts =
        with_counters [ "minimize.dense_expands"; "minimize.wide_expands" ]
          (fun () -> fst (Minimize.minimize ~dc:b.Context.dc b.Context.on))
      in
      let label = b.Context.block_label in
      check_string (label ^ " cover") (Cover.to_string b.Context.minimized)
        (Cover.to_string result);
      check_bool (label ^ " bitmap expands") true (List.nth counts 0 > 0);
      check_int (label ^ " matrix expands") 0 (List.nth counts 1))
    ctx.Context.blocks;
  check_int "lambda variables" 14
    (List.find (fun b -> b.Context.block_label = "lambda") ctx.Context.blocks)
      .Context.on.Cover.num_vars

(* A few cubes over 20 variables: a 2^20-point bitmap would cost far
   more than the few hundred matrix rows, so EXPAND raises them on the
   matrices. *)
let test_small_cover_expands_on_matrices () =
  let rng = Rng.create 7 in
  let on = random_cover rng ~num_vars:20 ~num_outputs:1 ~max_cubes:8 in
  let result, counts =
    with_counters [ "minimize.dense_expands"; "minimize.wide_expands" ]
      (fun () -> fst (Minimize.minimize on))
  in
  check_bool "contract" true (Minimize.verify ~on result);
  check_int "bitmap expands" 0 (List.nth counts 0);
  check_bool "matrix expands" true (List.nth counts 1 > 0)

let test_minimize_jobs_deterministic =
  QCheck.Test.make ~count:60 ~name:"minimize jobs:1 = jobs:2, cube for cube"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let num_vars, num_outputs = dims ~wide:true rng in
      let on = random_cover rng ~num_vars ~num_outputs ~max_cubes:8 in
      let dc = random_cover rng ~num_vars ~num_outputs ~max_cubes:4 in
      let r1, _ = Minimize.minimize ~jobs:1 ~dc on in
      let r2, _ = Minimize.minimize ~jobs:2 ~dc on in
      same_cover r1 r2)

let test_of_string_edge_chars () =
  (* espresso PLA alternates: '2' is a don't-care input, '4' asserts an
     output, '~' clears one. *)
  let c = Cube.of_string "2-01 4~0-" in
  check_string "normalized" "--01 1000" (Cube.to_string c);
  let c2 = Cube.of_string "--01 1000" in
  check_bool "roundtrip equal" true (Cube.equal c c2)

let test_scc_prefers_general_and_is_canonical () =
  let of_rows rows = Cover.of_strings ~num_vars:2 ~num_outputs:1 rows in
  (* The general cube must survive no matter where it sits. *)
  let a = Cover.single_cube_containment (of_rows [ "11 1"; "1- 1" ]) in
  let b = Cover.single_cube_containment (of_rows [ "1- 1"; "11 1" ]) in
  check_int "one cube (a)" 1 (Cover.size a);
  check_int "one cube (b)" 1 (Cover.size b);
  check_string "keeps the more general cube" "1- 1"
    (Cube.to_string a.Cover.cubes.(0));
  check_bool "order-independent" true (same_cover a b);
  (* Equal duplicates collapse to a single copy. *)
  let c = Cover.single_cube_containment (of_rows [ "01 1"; "01 1" ]) in
  check_int "dedup" 1 (Cover.size c)

let test_scc_canonical_random =
  QCheck.Test.make ~count:200 ~name:"scc result is independent of cube order"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let num_vars, num_outputs = dims rng in
      let c = random_cover rng ~num_vars ~num_outputs ~max_cubes:10 in
      let reversed =
        Cover.of_array ~num_vars ~num_outputs
          (let a = Array.copy c.Cover.cubes in
           let n = Array.length a in
           Array.init n (fun i -> a.(n - 1 - i)))
      in
      same_cover
        (Cover.single_cube_containment c)
        (Cover.single_cube_containment reversed))

(* The plain form of single-cube containment: sort most-general-first,
   keep a cube iff no kept cube contains it, scanning the kept list. *)
let scc_by_scan (c : Cover.t) =
  let key q = (Cube.literals q, - Cube.output_count q, q) in
  let sorted =
    List.sort
      (fun a b ->
        let la, oa, a = key a and lb, ob, b = key b in
        compare (la, oa) (lb, ob) |> function 0 -> Cube.compare a b | d -> d)
      (Array.to_list c.Cover.cubes)
  in
  let kept =
    List.fold_left
      (fun kept q -> if List.exists (fun k -> Cube.contains k q) kept then kept else q :: kept)
      [] sorted
  in
  Cover.make ~num_vars:c.Cover.num_vars ~num_outputs:c.Cover.num_outputs
    (List.rev kept)

let test_scc_index_matches_scan =
  QCheck.Test.make ~count:300 ~name:"indexed scc keeps what the kept-list scan keeps"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.create seed in
      let num_vars, num_outputs =
        if Rng.bool rng then dims ~wide:true rng else (6 + Rng.int rng 26, 1 + Rng.int rng 3)
      in
      let base = random_cover rng ~num_vars ~num_outputs ~max_cubes:30 in
      (* each cube next to a copy with one variable raised or fixed, so
         that containments and duplicates abound *)
      let variant q =
        let input = Cube.input q in
        let v = Rng.int rng num_vars in
        input.(v) <-
          (match input.(v) with
          | Cube.Dc -> if Rng.bool rng then Cube.Zero else Cube.One
          | _ -> Cube.Dc);
        Cube.make ~input ~output:(Cube.output q)
      in
      let c =
        Cover.make ~num_vars ~num_outputs
          (List.concat_map (fun q -> [ q; variant q ]) (Array.to_list base.Cover.cubes))
      in
      same_cover (Cover.single_cube_containment c) (scc_by_scan c))

(* ------------------------------------------------------------------ *)
(* Pla                                                                 *)
(* ------------------------------------------------------------------ *)

let test_pla_roundtrip () =
  let on = Cover.of_strings ~num_vars:3 ~num_outputs:2 [ "1-0 10"; "011 01" ] in
  let dc = Cover.of_strings ~num_vars:3 ~num_outputs:2 [ "111 11" ] in
  let text = Pla.print ~name:"t" ~dc on in
  let file = Pla.parse text in
  check_bool "on preserved" true (Truth.equivalent on file.Pla.on);
  check_bool "dc preserved" true (Truth.equivalent dc file.Pla.dc);
  check_bool "name" true (file.Pla.name = Some "t")

let test_pla_type_f () =
  let on = Cover.of_strings ~num_vars:2 ~num_outputs:1 [ "11 1" ] in
  let text = Pla.print on in
  check_bool "type f emitted" true
    (String.split_on_char '\n' text |> List.exists (fun l -> l = ".type f"));
  let file = Pla.parse text in
  check_int "empty dc" 0 (Cover.size file.Pla.dc)

let test_pla_parse_errors () =
  let bad text =
    match Pla.parse text with exception Pla.Parse_error _ -> true | _ -> false
  in
  check_bool "missing .i" true (bad ".o 1\n11 1\n");
  check_bool "width mismatch" true (bad ".i 2\n.o 1\n111 1\n.e\n");
  check_bool "bad type" true (bad ".i 1\n.o 1\n.type fr\n1 1\n.e\n")

let test_pla_dash_outputs_are_dc () =
  let file = Pla.parse ".i 2\n.o 2\n11 1-\n00 01\n.e\n" in
  check_int "one on-cube has output 0" 1
    (Array.fold_left
       (fun acc c -> if Cube.output_bit c 0 then acc + 1 else acc)
       0 file.Pla.on.Cover.cubes);
  check_int "dc set has one cube" 1 (Cover.size file.Pla.dc)

let () =
  Alcotest.run "stc_logic"
    [
      ( "cube",
        [
          Alcotest.test_case "string roundtrip" `Quick test_cube_string_roundtrip;
          Alcotest.test_case "of_string rejects" `Quick test_cube_of_string_rejects;
          Alcotest.test_case "minterm" `Quick test_cube_minterm;
          Alcotest.test_case "input size" `Quick test_cube_input_size;
          qcheck test_cube_contains_semantic;
          qcheck test_cube_intersect_semantic;
          qcheck test_cube_supercube_is_bound;
          Alcotest.test_case "distance" `Quick test_cube_distance;
        ] );
      ( "cover",
        [
          Alcotest.test_case "eval" `Quick test_cover_eval;
          Alcotest.test_case "tautology examples" `Quick test_cover_tautology_examples;
          qcheck test_cover_tautology_oracle;
          qcheck test_cover_complement_oracle;
          qcheck test_cover_covers_cube_oracle;
          qcheck test_cover_sharp_cube_oracle;
          qcheck test_cover_sharp_supercube;
          Alcotest.test_case "leaf on a fresh domain" `Quick test_leaf_fresh_domain;
          qcheck test_cover_keep_filter;
          qcheck test_cover_scc_preserves;
          qcheck test_cover_minterms_equals_eval;
          qcheck test_cover_equivalent_mutual;
        ] );
      ( "minimize",
        [
          Alcotest.test_case "xor stays two cubes" `Quick test_minimize_xor_stays_two_cubes;
          Alcotest.test_case "merges adjacent" `Quick test_minimize_merges_adjacent;
          Alcotest.test_case "uses don't cares" `Quick test_minimize_uses_dont_cares;
          qcheck test_minimize_contract;
          qcheck test_minimize_never_worse;
          qcheck test_expand_yields_primes;
          qcheck test_reduce_keeps_function;
          Alcotest.test_case "irredundant single cube in dc" `Quick
            test_irredundant_single_cube_dc;
        ] );
      ( "packed vs reference",
        [
          qcheck test_packed_cube_ops_vs_naive;
          qcheck test_packed_cover_ops_vs_naive;
          qcheck test_minimize_vs_reference;
          qcheck test_minimize_jobs_deterministic;
          qcheck test_expand_vs_reference;
          qcheck test_expand_fixed_point;
          Alcotest.test_case "pipeline covers pinned" `Quick
            test_pipeline_covers_pinned;
          qcheck test_passes_vs_per_query;
          Alcotest.test_case "pass cases take both forms" `Quick
            test_pass_cases_take_both_forms;
          Alcotest.test_case "irredundant/reduce edge cases" `Quick
            test_pass_edges;
          qcheck test_check_vs_truth_tables;
          Alcotest.test_case "check cases take both forms" `Quick
            test_check_cases_take_both_forms;
          Alcotest.test_case "tbk lambda queries on counts" `Quick
            test_lambda_queries_counted;
          Alcotest.test_case "dk16 blocks query on counts" `Quick
            test_dk16_queries_counted;
          Alcotest.test_case "expand edge cases" `Quick test_expand_edges;
          Alcotest.test_case "tbk blocks expand on the bitmap" `Quick
            test_tbk_expand_bitmaps;
          Alcotest.test_case "small cover expands on the matrices" `Quick
            test_small_cover_expands_on_matrices;
          Alcotest.test_case "of_string edge chars" `Quick
            test_of_string_edge_chars;
          Alcotest.test_case "scc canonicality" `Quick
            test_scc_prefers_general_and_is_canonical;
          qcheck test_scc_canonical_random;
          qcheck test_scc_index_matches_scan;
        ] );
      ( "pla",
        [
          Alcotest.test_case "roundtrip" `Quick test_pla_roundtrip;
          Alcotest.test_case "type f" `Quick test_pla_type_f;
          Alcotest.test_case "parse errors" `Quick test_pla_parse_errors;
          Alcotest.test_case "dash outputs are dc" `Quick test_pla_dash_outputs_are_dc;
        ] );
    ]
