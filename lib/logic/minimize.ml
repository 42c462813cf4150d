type report = {
  initial_cubes : int;
  initial_literals : int;
  final_cubes : int;
  final_literals : int;
  iterations : int;
}

module R = Cube.Raw

let m_calls = Stc_obs.Metrics.counter "logic.minimize_calls"

let m_raise_att = Stc_obs.Metrics.counter "minimize.expand_raises_attempted"

let m_raise_acc = Stc_obs.Metrics.counter "minimize.expand_raises_accepted"

let with_dc ?dc on =
  match dc with None -> on | Some d -> Cover.union on d

let off_set ?jobs ?dc on = Cover.complement ?jobs (with_dc ?dc on)

let rows_conflict nw a b =
  let conflict = ref false in
  for i = 0 to nw - 1 do
    if R.words_conflict (a.(i) land b.(i)) then conflict := true
  done;
  !conflict

(* Per-domain scratch for the blocking matrix, reused across cubes so the
   hot loop allocates nothing proportional to the off-set.  [sets] holds
   the conflict masks row-major ([nrel] rows of [nw] words), [counts]
   each row's number of conflict columns, and [planes] a bit-sliced
   vertical counter of conflicts per column: word [j * nw + w] holds bit
   [j] of the count of every column of input word [w], at the column's
   low pair bit. *)
type scratch = {
  mutable sets : int array;
  mutable counts : int array;
  mutable planes : int array;
  mutable col_count : int array;
  mutable blocked : bool array;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      { sets = [||]; counts = [||]; planes = [||]; col_count = [||];
        blocked = [||] })

let ensure = Stc_bits.Arena.ensure

(* Smallest [l] with [n < 2^l]: planes enough to count to [n]. *)
let bit_length n =
  let rec go l = if n lsr l = 0 then l else go (l + 1) in
  go 0

(* Raise one cube against the off-set using a blocking matrix: for every
   off-cube whose output part overlaps the cube's, record the set of
   input columns on which the two conflict (one word-AND per off-cube).
   A column may be raised as long as it is not the last conflict column
   of any such set; raising it removes the column from every set, and
   any set thereby reduced to a single column permanently blocks that
   remaining column.  Columns are tried in ascending blocker count (then
   index), as in espresso; the counts come from a carry-save add of each
   set into the counter planes, so building them costs a few word
   operations per row instead of one step per conflict bit.  Output parts
   are raised afterwards: one disjointness scan of the raised input part
   over the off-set collects every blocked output at once. *)
let expand_cube ~(off : Cover.t) cube =
  let nv = Cube.num_vars cube in
  let no = Cube.num_outputs cube in
  let nw = R.in_words nv in
  let ow = R.out_words no in
  let cin = Array.copy (R.input_words cube) in
  let cout = Array.copy (R.output_words cube) in
  let off_cubes = off.Cover.cubes in
  let noff = Array.length off_cubes in
  (* A column's count is at most the number of off-cubes. *)
  let np = bit_length noff in
  let s = Domain.DLS.get scratch_key in
  s.sets <- ensure s.sets (noff * nw);
  s.counts <- ensure s.counts noff;
  s.planes <- ensure s.planes (np * nw);
  Array.fill s.planes 0 (np * nw) 0;
  s.col_count <- ensure s.col_count nv;
  s.blocked <- Stc_bits.Arena.ensure_bool s.blocked nv;
  Array.fill s.blocked 0 nv false;
  let col_of w b = (w * R.vars_per_word) + (R.popcount (b - 1) / 2) in
  (* Only meaningful for rows with a single conflict bit left: the one
     nonzero word then holds exactly that bit, which [col_of] maps to
     its column. *)
  let last_col base =
    let j = ref (-1) in
    for w = 0 to nw - 1 do
      if s.sets.(base + w) <> 0 then j := col_of w s.sets.(base + w)
    done;
    !j
  in
  (* Conflict-column sets of the output-overlapping off-cubes; a set with
     a single column blocks it. *)
  let nrel = ref 0 in
  let invalid = ref false in
  Array.iter
    (fun r ->
      if not !invalid && Cube.output_overlap r cube then begin
        let rin = R.input_words r in
        let cnt = ref 0 in
        let base = !nrel * nw in
        for w = 0 to nw - 1 do
          let v = cin.(w) land rin.(w) in
          let e = lnot (v lor (v lsr 1)) land R.mask01 in
          s.sets.(base + w) <- e;
          cnt := !cnt + R.popcount e;
          let carry = ref e and idx = ref w in
          while !carry <> 0 do
            let plane = s.planes.(!idx) in
            s.planes.(!idx) <- plane lxor !carry;
            carry := plane land !carry;
            idx := !idx + nw
          done
        done;
        (* No conflict column means the cube already intersects the
           off-set (an invalid input): mirror the old engine and return
           it unraised. *)
        if !cnt = 0 then invalid := true;
        if !cnt = 1 then s.blocked.(last_col base) <- true;
        s.counts.(!nrel) <- !cnt;
        incr nrel
      end)
    off_cubes;
  if !invalid then cube
  else begin
    let nrel = !nrel in
    (* Fixed columns of the cube, cheapest (fewest blockers) first; each
       count is read bit by bit off the planes. *)
    let fixed = ref [] in
    for k = nv - 1 downto 0 do
      let wi = k / R.vars_per_word and p = 2 * (k mod R.vars_per_word) in
      if (cin.(wi) lsr p) land 3 <> 3 then begin
        let c = ref 0 in
        for j = np - 1 downto 0 do
          c := (!c lsl 1) lor ((s.planes.((j * nw) + wi) lsr p) land 1)
        done;
        s.col_count.(k) <- !c;
        fixed := k :: !fixed
      end
    done;
    let order =
      List.stable_sort
        (fun a b -> Int.compare s.col_count.(a) s.col_count.(b))
        !fixed
    in
    List.iter
      (fun k ->
        Stc_obs.Metrics.incr m_raise_att;
        if not s.blocked.(k) then begin
          let wi = k / R.vars_per_word and p = 2 * (k mod R.vars_per_word) in
          cin.(wi) <- cin.(wi) lor (3 lsl p);
          Stc_obs.Metrics.incr m_raise_acc;
          (* Drop column [k] from every set holding it. *)
          let bit = 1 lsl p in
          for i = 0 to nrel - 1 do
            let idx = (i * nw) + wi in
            let e = s.sets.(idx) in
            if e land bit <> 0 then begin
              s.sets.(idx) <- e lxor bit;
              s.counts.(i) <- s.counts.(i) - 1;
              if s.counts.(i) = 1 then s.blocked.(last_col (i * nw)) <- true
            end
          done
        end)
      order;
    (* Output raising: output [o] may be added iff the (now raised) input
       part is disjoint from every off-cube asserting [o].  One scan over
       the off-set accumulates every blocked output. *)
    let blocked_out = Array.make ow 0 in
    Array.iter
      (fun r ->
        if not (rows_conflict nw cin (R.input_words r)) then begin
          let rout = R.output_words r in
          for w = 0 to ow - 1 do
            blocked_out.(w) <- blocked_out.(w) lor rout.(w)
          done
        end)
      off_cubes;
    for o = 0 to no - 1 do
      let wi = o / R.outs_per_word and p = o mod R.outs_per_word in
      if cout.(wi) land (1 lsl p) = 0 then begin
        Stc_obs.Metrics.incr m_raise_att;
        if blocked_out.(wi) land (1 lsl p) = 0 then begin
          cout.(wi) <- cout.(wi) lor (1 lsl p);
          Stc_obs.Metrics.incr m_raise_acc
        end
      end
    done;
    R.make_packed ~num_vars:nv ~num_outputs:no cin cout
  end

let expand ?(jobs = 1) ~off cover =
  Stc_obs.Trace.span ~cat:"logic" "expand" @@ fun () ->
  let n = Array.length cover.Cover.cubes in
  let raised =
    if n = 0 then [||]
    else
      Stc_util.Parallel.map_range ~jobs n
        (fun i -> expand_cube ~off cover.Cover.cubes.(i))
        ~init:cover.Cover.cubes.(0)
  in
  Cover.single_cube_containment
    (Cover.of_array ~num_vars:cover.Cover.num_vars
       ~num_outputs:cover.Cover.num_outputs raised)

(* Index filter for "every other cube plus dc" in a shared
   [cover + dc]: cube [i] under test and the dropped cover cubes are
   skipped; the don't-care cubes past index [n] always stay. *)
let others ~n alive i j = j >= n || (j <> i && alive.(j))

(* IRREDUNDANT via the relatively-essential / partially-redundant split:
   one (parallelizable) covered-by-all-others test per cube classifies it
   as relatively essential (kept unconditionally) or partially redundant;
   only the partially-redundant cubes then go through the sequential
   greedy drop, most-specific first. *)
let irredundant ?(jobs = 1) ?dc cover =
  Stc_obs.Trace.span ~cat:"logic" "irredundant" @@ fun () ->
  let cubes = cover.Cover.cubes in
  let n = Array.length cubes in
  if n <= 1 then cover
  else begin
    let context = with_dc ?dc cover in
    let all_alive = Array.make n true in
    let covered =
      Stc_util.Parallel.map_range ~jobs n
        (fun i ->
          Cover.covers_cube ~keep:(others ~n all_alive i) context cubes.(i))
        ~init:false
    in
    let partially_redundant = ref [] in
    for i = n - 1 downto 0 do
      if covered.(i) then partially_redundant := i :: !partially_redundant
    done;
    let order =
      List.stable_sort
        (fun a b ->
          let la = Cube.literals cubes.(a) and lb = Cube.literals cubes.(b) in
          if la <> lb then Int.compare lb la
          else Cube.compare cubes.(a) cubes.(b))
        !partially_redundant
    in
    let alive = Array.make n true in
    List.iter
      (fun i ->
        if Cover.covers_cube ~keep:(others ~n alive i) context cubes.(i) then
          alive.(i) <- false)
      order;
    let kept = ref [] in
    for i = n - 1 downto 0 do
      if alive.(i) then kept := cubes.(i) :: !kept
    done;
    Cover.make ~num_vars:cover.Cover.num_vars
      ~num_outputs:cover.Cover.num_outputs !kept
  end

let reduce ?dc cover =
  Stc_obs.Trace.span ~cat:"logic" "reduce" @@ fun () ->
  let n = Array.length cover.Cover.cubes in
  let num_vars = cover.Cover.num_vars
  and num_outputs = cover.Cover.num_outputs in
  (* A fresh [cover + dc] array: each shrunk cube is written back into
     it, so the cubes after it are reduced against the shrunk one. *)
  let context =
    Cover.union cover
      (Option.value dc ~default:(Cover.empty ~num_vars ~num_outputs))
  in
  let cubes = context.Cover.cubes in
  let alive = Array.make n true in
  for i = 0 to n - 1 do
    let unique = Cover.sharp_cube ~keep:(others ~n alive i) cubes.(i) context in
    match Array.to_list unique.Cover.cubes with
    | [] -> alive.(i) <- false (* fully covered elsewhere: drop *)
    | first :: more ->
      let shrunk = List.fold_left Cube.supercube first more in
      (* Never grow: reduction stays inside the original cube. *)
      if Cube.contains cubes.(i) shrunk then cubes.(i) <- shrunk
  done;
  let kept = ref [] in
  for i = n - 1 downto 0 do
    if alive.(i) then kept := cubes.(i) :: !kept
  done;
  Cover.make ~num_vars ~num_outputs !kept

let verify ~on ?dc result =
  let care_on =
    match dc with
    | None -> on
    | Some d ->
      (* on \ dc: don't-cares take precedence where the sets overlap. *)
      Cover.of_array ~num_vars:on.Cover.num_vars
        ~num_outputs:on.Cover.num_outputs
        (Array.concat
           (Array.to_list
              (Array.map
                 (fun cube -> (Cover.sharp_cube cube d).Cover.cubes)
                 on.Cover.cubes)))
  in
  Cover.covers result care_on && Cover.covers (with_dc ?dc on) result

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

let minimize ?(jobs = 1) ?dc on =
  Stc_obs.Trace.span ~cat:"logic" "minimize" @@ fun () ->
  Stc_obs.Metrics.incr m_calls;
  let initial_cubes, initial_literals = Cover.cost on in
  let off = off_set ~jobs ?dc on in
  let current =
    ref (irredundant ~jobs ?dc (expand ~jobs ~off (Cover.single_cube_containment on)))
  in
  let best = ref !current in
  let best_cost = ref (Cover.cost !current) in
  let iterations = ref 1 in
  let improving = ref true in
  while !improving && !iterations < 10 do
    incr iterations;
    let reduced = reduce ?dc !current in
    let expanded = expand ~jobs ~off reduced in
    let cleaned = irredundant ~jobs ?dc expanded in
    current := cleaned;
    let cost = Cover.cost cleaned in
    if cost < !best_cost then begin
      best := cleaned;
      best_cost := cost
    end
    else improving := false
  done;
  let final_cubes, final_literals = !best_cost in
  ( !best,
    { initial_cubes; initial_literals; final_cubes; final_literals;
      iterations = !iterations } )

let reference ?budget ?dc on =
  let initial_cubes, initial_literals = Cover.cost on in
  let result, iterations = Naive.minimize ?budget ?dc on in
  let final_cubes, final_literals = Cover.cost result in
  ( result,
    { initial_cubes; initial_literals; final_cubes; final_literals;
      iterations } )
