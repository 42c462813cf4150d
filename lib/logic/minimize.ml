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

(* Cost gained by each pass inside [minimize] (cost before minus cost
   after, summed over the iterations; REDUCE's literal gain is
   negative, as it trades literals for room to re-expand). *)
type pass_gain = {
  cube_gain : Stc_obs.Metrics.counter;
  literal_gain : Stc_obs.Metrics.counter;
}

let pass_gain pass =
  { cube_gain = Stc_obs.Metrics.counter ("minimize." ^ pass ^ "_cube_gain");
    literal_gain = Stc_obs.Metrics.counter ("minimize." ^ pass ^ "_literal_gain") }

let g_expand = pass_gain "expand"

let g_irredundant = pass_gain "irredundant"

let g_reduce = pass_gain "reduce"

(* Record the gain of one pass that turned [before] into [after];
   returns [after]. *)
let gained g before after =
  let cb, lb = Cover.cost before and ca, la = Cover.cost after in
  Stc_obs.Metrics.add g.cube_gain (cb - ca);
  Stc_obs.Metrics.add g.literal_gain (lb - la);
  after

let with_dc ?dc on =
  match dc with None -> on | Some d -> Cover.union on d

let off_set ?jobs ?dc on = Cover.complement ?jobs (with_dc ?dc on)

(* The off-set as EXPAND reads it, built once per [minimize] call: the
   input part of every off-cube as one row of a flat row-major array
   ([nw] words per row), and for each output the ids of the off-cubes
   asserting it, ascending.  A cube's blocking matrix is built from the
   buckets of its own outputs only, and each output raise is decided by
   an early-exit scan of one bucket. *)
type off_index = {
  nw : int;
  noff : int;
  rows : int array;
  by_output : int array array;
}

let index_off (off : Cover.t) =
  let nw = R.in_words off.Cover.num_vars in
  let no = off.Cover.num_outputs in
  let cubes = off.Cover.cubes in
  let noff = Array.length cubes in
  let rows = Array.make (noff * nw) 0 in
  Array.iteri (fun i r -> Array.blit (R.input_words r) 0 rows (i * nw) nw) cubes;
  let sizes = Array.make no 0 in
  Array.iter
    (fun r ->
      for o = 0 to no - 1 do
        if Cube.output_bit r o then sizes.(o) <- sizes.(o) + 1
      done)
    cubes;
  let by_output = Array.map (fun k -> Array.make k 0) sizes in
  Array.fill sizes 0 no 0;
  Array.iteri
    (fun i r ->
      for o = 0 to no - 1 do
        if Cube.output_bit r o then begin
          by_output.(o).(sizes.(o)) <- i;
          sizes.(o) <- sizes.(o) + 1
        end
      done)
    cubes;
  { nw; noff; rows; by_output }

(* Does input part [cin] miss off-row [i] (some column conflicts)? *)
let row_conflicts idx cin i =
  let base = i * idx.nw in
  let rec go w =
    w < idx.nw
    && (R.words_conflict (cin.(w) land idx.rows.(base + w)) || go (w + 1))
  in
  go 0

(* Per-domain scratch for the blocking matrix, reused across cubes so the
   hot loop allocates nothing proportional to the off-set.  [sets] holds
   the conflict masks row-major ([nrel] rows of [nw] words), [counts]
   each row's number of conflict columns, and [planes] a bit-sliced
   vertical counter of conflicts per column: word [j * nw + w] holds bit
   [j] of the count of every column of input word [w], at the column's
   low pair bit.  [seen] stamps the off-cubes already entered for the
   current cube ([epoch]), so an off-cube asserting several of the
   cube's outputs gives one row. *)
type scratch = {
  mutable sets : int array;
  mutable counts : int array;
  mutable planes : int array;
  mutable col_count : int array;
  mutable blocked : bool array;
  mutable seen : int array;
  mutable epoch : int;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      { sets = [||]; counts = [||]; planes = [||]; col_count = [||];
        blocked = [||]; seen = [||]; epoch = 0 })

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
   operations per row instead of one step per conflict bit.  Neither the
   counts nor the blocked columns depend on the order of the rows.
   Output parts are raised afterwards: output [o] may be added iff the
   raised input part misses every off-cube of [o]'s bucket. *)
let expand_cube idx cube =
  let nv = Cube.num_vars cube in
  let no = Cube.num_outputs cube in
  let nw = idx.nw in
  let cin = Array.copy (R.input_words cube) in
  let cout = Array.copy (R.output_words cube) in
  let rows = idx.rows in
  let noff = idx.noff in
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
  (* A grown [seen] is all zeros, below every epoch handed out. *)
  s.seen <- ensure s.seen noff;
  s.epoch <- s.epoch + 1;
  let epoch = s.epoch in
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
     a single column blocks it.  No conflict column means the cube
     already intersects the off-set (an invalid input): it is returned
     unraised. *)
  let nrel = ref 0 in
  (* Enter off-row [i]; true when it has no conflict column. *)
  let add_row i =
    let rbase = i * nw in
    let cnt = ref 0 in
    let base = !nrel * nw in
    for w = 0 to nw - 1 do
      let v = cin.(w) land rows.(rbase + w) in
      let e = lnot (v lor (v lsr 1)) land R.mask01 in
      s.sets.(base + w) <- e;
      cnt := !cnt + R.popcount e;
      let carry = ref e and pi = ref w in
      while !carry <> 0 do
        let plane = s.planes.(!pi) in
        s.planes.(!pi) <- plane lxor !carry;
        carry := plane land !carry;
        pi := !pi + nw
      done
    done;
    if !cnt = 1 then s.blocked.(last_col base) <- true;
    s.counts.(!nrel) <- !cnt;
    incr nrel;
    !cnt = 0
  in
  let invalid = ref false in
  for o = 0 to no - 1 do
    if Cube.output_bit cube o then
      Array.iter
        (fun i ->
          if (not !invalid) && s.seen.(i) <> epoch then begin
            s.seen.(i) <- epoch;
            if add_row i then invalid := true
          end)
        idx.by_output.(o)
  done;
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
            let si = (i * nw) + wi in
            let e = s.sets.(si) in
            if e land bit <> 0 then begin
              s.sets.(si) <- e lxor bit;
              s.counts.(i) <- s.counts.(i) - 1;
              if s.counts.(i) = 1 then s.blocked.(last_col (i * nw)) <- true
            end
          done
        end)
      order;
    for o = 0 to no - 1 do
      let wi = o / R.outs_per_word and p = o mod R.outs_per_word in
      if cout.(wi) land (1 lsl p) = 0 then begin
        Stc_obs.Metrics.incr m_raise_att;
        let bucket = idx.by_output.(o) in
        if Array.for_all (row_conflicts idx cin) bucket then begin
          cout.(wi) <- cout.(wi) lor (1 lsl p);
          Stc_obs.Metrics.incr m_raise_acc
        end
      end
    done;
    R.make_packed ~num_vars:nv ~num_outputs:no cin cout
  end

(* EXPAND over a cover whose cubes flagged in [prime] are already prime
   against the indexed off-set: those pass through unchanged (EXPAND
   leaves a prime cube as it is, so re-raising it would only repeat the
   same blocked attempts). *)
let expand_indexed ~jobs ?prime idx cover =
  Stc_obs.Trace.span ~cat:"logic" "expand" @@ fun () ->
  let cubes = cover.Cover.cubes in
  let n = Array.length cubes in
  let raised =
    if n = 0 then [||]
    else
      Stc_util.Parallel.map_range ~jobs n
        (fun i ->
          match prime with
          | Some p when p.(i) -> cubes.(i)
          | _ -> expand_cube idx cubes.(i))
        ~init:cubes.(0)
  in
  Cover.single_cube_containment
    (Cover.of_array ~num_vars:cover.Cover.num_vars
       ~num_outputs:cover.Cover.num_outputs raised)

let expand ?(jobs = 1) ~off cover = expand_indexed ~jobs (index_off off) cover

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
  if n = 0 || (n = 1 && Option.is_none dc) then cover
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

(* REDUCE, also flagging each kept cube that came out unchanged. *)
let reduce_marked ?dc cover =
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
    match Cover.sharp_supercube ~keep:(others ~n alive i) cubes.(i) context with
    | None -> alive.(i) <- false (* fully covered elsewhere: drop *)
    | Some shrunk -> cubes.(i) <- shrunk
  done;
  let kept = ref [] and unchanged = ref [] in
  for i = n - 1 downto 0 do
    if alive.(i) then begin
      kept := cubes.(i) :: !kept;
      unchanged := Cube.equal cubes.(i) cover.Cover.cubes.(i) :: !unchanged
    end
  done;
  (Cover.make ~num_vars ~num_outputs !kept, Array.of_list !unchanged)

let reduce ?dc cover = fst (reduce_marked ?dc cover)

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
  let off = index_off (off_set ~jobs ?dc on) in
  let expand ?prime c = gained g_expand c (expand_indexed ~jobs ?prime off c) in
  let irredundant c = gained g_irredundant c (irredundant ~jobs ?dc c) in
  let current = ref (irredundant (expand (Cover.single_cube_containment on))) in
  let best = ref !current in
  let best_cost = ref (Cover.cost !current) in
  let iterations = ref 1 in
  let improving = ref true in
  while !improving && !iterations < 10 do
    incr iterations;
    (* Every cube of [current] came out of EXPAND, so the ones REDUCE
       leaves unchanged are still prime. *)
    let reduced, prime = reduce_marked ?dc !current in
    let cleaned = irredundant (expand ~prime (gained g_reduce !current reduced)) in
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
