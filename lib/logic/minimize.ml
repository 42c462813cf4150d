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

let m_dense_expands = Stc_obs.Metrics.counter "minimize.dense_expands"

let m_wide_expands = Stc_obs.Metrics.counter "minimize.wide_expands"

(* The off-set of a wide cover as EXPAND reads it: the input part of
   every off-cube as one row of a flat row-major array ([nw] words per
   row), and for each output the ids of the off-cubes asserting it,
   ascending.  A cube's blocking matrix is built from the buckets of its
   own outputs only, and each output raise is decided by an early-exit
   scan of one bucket. *)
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

(* For each distinct output part of the off-cubes, how many of them
   carry each literal ([2k]: the Zero of column [k], [2k + 1]: its
   One). *)
let literal_groups (off : Cover.t) =
  let nv = off.Cover.num_vars in
  let groups = Hashtbl.create 16 in
  Array.iter
    (fun r ->
      let row = R.input_words r and outw = R.output_words r in
      let h =
        match Hashtbl.find_opt groups outw with
        | Some h -> h
        | None ->
          let h = Array.make (2 * nv) 0 in
          Hashtbl.add groups outw h;
          h
      in
      for k = 0 to nv - 1 do
        match R.pair row k with
        | 1 -> h.(2 * k) <- h.(2 * k) + 1
        | 2 -> h.((2 * k) + 1) <- h.((2 * k) + 1) + 1
        | _ -> ()
      done)
    off.Cover.cubes;
  Hashtbl.fold (fun w h acc -> (w, h) :: acc) groups []

(* The literal histogram of the off-cubes sharing an output with output
   part [outw]: the sum of their groups' histograms. *)
let histogram ~num_vars groups outw =
  let h = Array.make (2 * num_vars) 0 in
  List.iter
    (fun (w, gh) ->
      if Array.exists2 (fun a b -> a land b <> 0) w outw then
        Array.iteri (fun i c -> h.(i) <- h.(i) + c) gh)
    groups;
  h

(* EXPAND's raise order for input part [cin]: its fixed columns by
   ascending blocker count, then by index, as in espresso.  A column's
   blockers are the off-cubes sharing an output with the cube that carry
   the opposite literal there, read off the cube's histogram [hist]. *)
let raise_order hist nv cin =
  let keys = ref [] in
  for k = nv - 1 downto 0 do
    let code = R.pair cin k in
    if code <> 3 then keys := ((hist.((2 * k) + (code land 1)) * nv) + k) :: !keys
  done;
  let order = Array.of_list !keys in
  Array.sort Int.compare order;
  Array.map (fun key -> key mod nv) order

(* Per-domain scratch for the blocking matrix, reused across cubes so the
   hot loop allocates nothing proportional to the off-set.  [sets] holds
   the conflict masks row-major ([nrel] rows of [nw] words) and [counts]
   each row's number of conflict columns.  [seen] stamps the off-cubes
   already entered for the current cube ([epoch]), so an off-cube
   asserting several of the cube's outputs gives one row. *)
type scratch = {
  mutable sets : int array;
  mutable counts : int array;
  mutable blocked : bool array;
  mutable seen : int array;
  mutable epoch : int;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      { sets = [||]; counts = [||]; blocked = [||]; seen = [||]; epoch = 0 })

let ensure = Stc_bits.Arena.ensure

(* Raise one cube, in the order of [hist], against the off-set using a
   blocking matrix: for every off-cube whose output part overlaps the
   cube's, record the set of input columns on which the two conflict
   (one word-AND per off-cube).  A column may be raised as long as it is
   not the last conflict column of any such set; raising it removes the
   column from every set, and any set thereby reduced to a single column
   permanently blocks that remaining column.  Output parts are raised
   afterwards: output [o] may be added iff the raised input part misses
   every off-cube of [o]'s bucket. *)
let expand_cube idx hist cube =
  let nv = Cube.num_vars cube in
  let no = Cube.num_outputs cube in
  let nw = idx.nw in
  let cin = Array.copy (R.input_words cube) in
  let cout = Array.copy (R.output_words cube) in
  let rows = idx.rows in
  let noff = idx.noff in
  let s = Domain.DLS.get scratch_key in
  s.sets <- ensure s.sets (noff * nw);
  s.counts <- ensure s.counts noff;
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
      cnt := !cnt + R.popcount e
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
    Array.iter
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
      (raise_order hist nv cin);
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

(* The off-set as EXPAND's bitmaps read it: one {!Chunk} table
   per output over all [nv] variables, output [o]'s off-set points in
   chunks [o * chunks ..] of [bits]. *)
type off_bitmaps = {
  vars : int array;  (* 0 .. nv - 1 *)
  chunks : int;
  bits : int array;
}

(* Whether EXPAND reads the off-set on bitmaps when it raises [cubes]
   cubes.  The bitmaps cost their [num_outputs * 2^num_vars] points to
   build and to scan, the matrices about one row per off-cube for every
   cube raised, so the choice weighs the two.  Minimizing 126 random
   covers of 12-24 variables (1, 2 and 4 outputs, 8-512 cubes) with each
   form forced, the bitmaps took 0.15-1.02 of the matrices' time at up
   to 3 points per off-cube and cube, 0.6-2.0 at 3-10 and 0.96-130
   above; under 2^12 points either form takes about 0.1 ms.  Above 2^24
   points (4 MB) no bitmap is built. *)
let bitmaps_pay ~cubes (off : Cover.t) =
  off.Cover.num_vars <= 24
  &&
  let points = off.Cover.num_outputs lsl off.Cover.num_vars in
  points <= 1 lsl 24
  && (points <= 1 lsl 12 || points <= 4 * Cover.size off * cubes)

let bitmap_off (off : Cover.t) =
  let nv = off.Cover.num_vars and no = off.Cover.num_outputs in
  let vars = Array.init nv Fun.id in
  let chunks = Chunk.count nv in
  let bits = Array.make (no * chunks) 0 in
  let s = Chunk.span () in
  Array.iter
    (fun r ->
      Chunk.set_span s ~vars nv (R.input_words r);
      for o = 0 to no - 1 do
        if Cube.output_bit r o then Chunk.add s bits ~base:(o * chunks) nv
      done)
    off.Cover.cubes;
  { vars; chunks; bits }

(* The greedy of [expand_cube] decided on the bitmaps: a raise is
   blocked exactly when the raised cube meets an off-cube of one of its
   outputs, that is when the half it adds (the cube with the column
   flipped) meets the off-set bitmap of one of them. *)
let expand_dense bm hist cube =
  let nv = Cube.num_vars cube and no = Cube.num_outputs cube in
  let cin = Array.copy (R.input_words cube) in
  let cout = Array.copy (R.output_words cube) in
  let s = Chunk.span () in
  let meets o = Chunk.meets s bm.bits ~base:(o * bm.chunks) nv in
  let meets_off () =
    Chunk.set_span s ~vars:bm.vars nv cin;
    let rec go o = o < no && ((Cube.output_bit cube o && meets o) || go (o + 1)) in
    go 0
  in
  if meets_off () then cube
  else begin
    Array.iter
      (fun k ->
        Stc_obs.Metrics.incr m_raise_att;
        let wi = k / R.vars_per_word and p = 2 * (k mod R.vars_per_word) in
        cin.(wi) <- cin.(wi) lxor (3 lsl p);
        if meets_off () then cin.(wi) <- cin.(wi) lxor (3 lsl p)
        else begin
          cin.(wi) <- cin.(wi) lor (3 lsl p);
          Stc_obs.Metrics.incr m_raise_acc
        end)
      (raise_order hist nv cin);
    Chunk.set_span s ~vars:bm.vars nv cin;
    for o = 0 to no - 1 do
      let wi = o / R.outs_per_word and p = o mod R.outs_per_word in
      if cout.(wi) land (1 lsl p) = 0 then begin
        Stc_obs.Metrics.incr m_raise_att;
        if not (meets o) then begin
          cout.(wi) <- cout.(wi) lor (1 lsl p);
          Stc_obs.Metrics.incr m_raise_acc
        end
      end
    done;
    R.make_packed ~num_vars:nv ~num_outputs:no cin cout
  end

(* The off-set as EXPAND reads it, built once per [minimize] call: its
   literal groups, which order the raises, and what decides them. *)
type off_view = {
  groups : (int array * int array) list;
  engine : engine;
}

and engine = Bitmaps of off_bitmaps | Index of off_index

let view_off ~cubes (off : Cover.t) =
  { groups = literal_groups off;
    engine =
      (if bitmaps_pay ~cubes off then Bitmaps (bitmap_off off)
       else Index (index_off off)) }

(* EXPAND over a cover whose cubes flagged in [prime] are already prime
   against the off-set: those pass through unchanged (EXPAND leaves a
   prime cube as it is, so re-raising it would only repeat the same
   blocked attempts).  The histograms are summed once per distinct
   output part, before the cubes fan out. *)
let expand_viewed ~jobs ?prime view cover =
  Stc_obs.Trace.span ~cat:"logic" "expand" @@ fun () ->
  let cubes = cover.Cover.cubes in
  let n = Array.length cubes in
  let num_vars = cover.Cover.num_vars in
  let skip i = match prime with Some p -> p.(i) | None -> false in
  let by_part = Hashtbl.create 16 in
  let hists =
    Array.init n (fun i ->
        if skip i then [||]
        else
          let outw = R.output_words cubes.(i) in
          match Hashtbl.find_opt by_part outw with
          | Some h -> h
          | None ->
            let h = histogram ~num_vars view.groups outw in
            Hashtbl.add by_part outw h;
            h)
  in
  let raise_cube =
    match view.engine with
    | Index idx ->
      fun i ->
        Stc_obs.Metrics.incr m_wide_expands;
        expand_cube idx hists.(i) cubes.(i)
    | Bitmaps bm ->
      fun i ->
        Stc_obs.Metrics.incr m_dense_expands;
        expand_dense bm hists.(i) cubes.(i)
  in
  let raised =
    if n = 0 then [||]
    else
      Stc_util.Parallel.map_range ~jobs n
        (fun i -> if skip i then cubes.(i) else raise_cube i)
        ~init:cubes.(0)
  in
  Cover.single_cube_containment
    (Cover.of_array ~num_vars ~num_outputs:cover.Cover.num_outputs raised)

let expand ?(jobs = 1) ~off cover =
  expand_viewed ~jobs (view_off ~cubes:(Cover.size cover) off) cover

(* Index filter for "every other cube plus dc" in a shared
   [cover + dc]: cube [i] under test and the dropped cover cubes are
   skipped; the don't-care cubes past index [n] always stay. *)
let others ~n alive i j = j >= n || (j <> i && alive.(j))

(* --------------------------------------------------------------------
   Point-count tables.  IRREDUNDANT's and REDUCE's queries ask, for the
   points of one cube, which of them the other alive cubes of
   [cover + dc] cover, output by output.  Over few enough input
   variables one table answers every query of a pass: for each output
   and input point, how many alive cubes asserting that output contain
   the point.  A cube is covered by the others iff every count on its
   points, for each of its outputs, is at least 2 (it counts itself);
   the points only it covers are those with count 1.  Dropping or
   shrinking a cube updates its points' counts.
   -------------------------------------------------------------------- *)

let m_count = Stc_obs.Metrics.counter "minimize.count_queries"

(* 16-bit counts, output [o]'s point [p] at [2 * ((o lsl nv) + p)];
   points number the variables from bit 0. *)
type counts = { nv : int; tbl : Bytes.t }

(* The variables of input part [w] (one word: at most 21 variables)
   whose pair is [code]: with [code] 2 those fixed to 1, with 3 the free
   ones.  A cube's points are [ones lor f] for every subset [f] of its
   free variables, walked as in {!Chunk.add}. *)
let vars_with code nv w =
  let v = ref 0 in
  for k = 0 to nv - 1 do
    if (w lsr (2 * k)) land 3 = code then v := !v lor (1 lsl k)
  done;
  !v

(* Whether a pass over the first [n] of [cubes] (the rest are don't-care
   cubes) pays for a table.  The per-query scan visits about
   [n * Array.length cubes] cubes per pass, the table clears its points
   and walks the cubes' own points, once to fill and again to query.
   Running IRREDUNDANT and REDUCE on 160 random covers of 6-18
   variables (1-4 outputs, 8-1024 cubes) with each form forced, the
   table took 0.01-0.76 of the scan's time while its points and the
   cubes' were at most 8 visits, 0.08-2.5 at 8-32 and 0.34-57 above.
   The bounds keep the table at most 2^21 points (4 MB) and every
   count below 2^16; [num_vars] is checked before any shift by it. *)
let counts_pay ~num_vars ~num_outputs ~n cubes =
  let total = Array.length cubes in
  num_vars <= 21 && total < 0xFFFF
  &&
  let points = num_outputs lsl num_vars in
  points <= 1 lsl 21
  &&
  let cube_points =
    Array.fold_left
      (fun acc c -> acc + (Cube.output_count c lsl Cube.dc_count c))
      0 cubes
  in
  points + cube_points <= 8 * n * total

(* Add [delta] to the counts of [cube]'s points on each of its
   outputs. *)
let count_cube t delta cube =
  let w = (R.input_words cube).(0) in
  let v = vars_with 2 t.nv w and m = vars_with 3 t.nv w in
  for o = 0 to Cube.num_outputs cube - 1 do
    if Cube.output_bit cube o then begin
      let base = o lsl t.nv in
      let f = ref 0 and more = ref true in
      while !more do
        let x = 2 * (base + (v lor !f)) in
        Bytes.set_uint16_ne t.tbl x (Bytes.get_uint16_ne t.tbl x + delta);
        if !f = m then more := false else f := (!f - m) land m
      done
    end
  done

(* Is every point of [cube], on each of its outputs, covered by another
   counted cube? *)
let covered_twice t cube =
  Stc_obs.Metrics.incr m_count;
  let w = (R.input_words cube).(0) in
  let v = vars_with 2 t.nv w and m = vars_with 3 t.nv w in
  let no = Cube.num_outputs cube in
  let ok = ref true and o = ref 0 in
  while !ok && !o < no do
    if Cube.output_bit cube !o then begin
      let base = !o lsl t.nv in
      let f = ref 0 and more = ref true in
      while !more do
        if Bytes.get_uint16_ne t.tbl (2 * (base + (v lor !f))) < 2 then begin
          ok := false;
          more := false
        end
        else if !f = m then more := false
        else f := (!f - m) land m
      done
    end;
    incr o
  done;
  !ok

(* REDUCE's query on the table: the supercube of the points of [cube]
   counted once (covered by no other cube), per output of [cube], or
   [None] when there is none.  A free variable keeps the halves the OR
   and the AND of those points show, an output stays iff it has one. *)
let counted_once_supercube t cube =
  Stc_obs.Metrics.incr m_count;
  let nv = t.nv and no = Cube.num_outputs cube in
  let inw = Array.copy (R.input_words cube) in
  let v = vars_with 2 nv inw.(0) and m = vars_with 3 nv inw.(0) in
  let outw = Array.make (R.out_words no) 0 in
  let any = ref 0 and all = ref (-1) in
  for o = 0 to no - 1 do
    if Cube.output_bit cube o then begin
      let base = o lsl nv in
      let f = ref 0 and more = ref true in
      while !more do
        let p = v lor !f in
        if Bytes.get_uint16_ne t.tbl (2 * (base + p)) = 1 then begin
          any := !any lor p;
          all := !all land p;
          let wi = o / R.outs_per_word in
          outw.(wi) <- outw.(wi) lor (1 lsl (o mod R.outs_per_word))
        end;
        if !f = m then more := false else f := (!f - m) land m
      done
    end
  done;
  if Array.for_all (fun x -> x = 0) outw then None
  else begin
    for k = 0 to nv - 1 do
      if m land (1 lsl k) <> 0 then begin
        let zero = !all land (1 lsl k) = 0 and one = !any land (1 lsl k) <> 0 in
        let code = Bool.to_int zero lor (Bool.to_int one lsl 1) in
        inw.(0) <- inw.(0) land lnot (3 lsl (2 * k)) lor (code lsl (2 * k))
      end
    done;
    Some (R.make_packed ~num_vars:nv ~num_outputs:no inw outw)
  end

(* The table of [cubes], if one pays for a pass over its first [n], in
   [scratch]'s bytes when they are large enough. *)
let table_for scratch ~num_vars ~num_outputs ~n cubes =
  if not (counts_pay ~num_vars ~num_outputs ~n cubes) then None
  else begin
    let len = 2 * (num_outputs lsl num_vars) in
    if Bytes.length !scratch < len then scratch := Bytes.create len;
    Bytes.fill !scratch 0 len '\000';
    let t = { nv = num_vars; tbl = !scratch } in
    Array.iter (count_cube t 1) cubes;
    Some t
  end

(* IRREDUNDANT via the relatively-essential / partially-redundant split:
   one (parallelizable) covered-by-all-others test per cube classifies it
   as relatively essential (kept unconditionally) or partially redundant;
   only the partially-redundant cubes then go through the sequential
   greedy drop, most-specific first.  The tests read a point-count table
   when one pays, shared read-only by the classifying domains; otherwise
   each is one per-query scan of [cover + dc]. *)
let irredundant_in scratch ~jobs ?dc cover =
  Stc_obs.Trace.span ~cat:"logic" "irredundant" @@ fun () ->
  let cubes = cover.Cover.cubes in
  let n = Array.length cubes in
  if n = 0 || (n = 1 && Option.is_none dc) then cover
  else begin
    let num_vars = cover.Cover.num_vars
    and num_outputs = cover.Cover.num_outputs in
    let context = with_dc ?dc cover in
    let table = table_for scratch ~num_vars ~num_outputs ~n context.Cover.cubes in
    let covered_by_others alive i =
      match table with
      | Some t -> covered_twice t cubes.(i)
      | None -> Cover.covers_cube ~keep:(others ~n alive i) context cubes.(i)
    in
    let covered =
      Stc_util.Parallel.map_range ~jobs n
        (covered_by_others (Array.make n true))
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
        if covered_by_others alive i then begin
          alive.(i) <- false;
          Option.iter (fun t -> count_cube t (-1) cubes.(i)) table
        end)
      order;
    let kept = ref [] in
    for i = n - 1 downto 0 do
      if alive.(i) then kept := cubes.(i) :: !kept
    done;
    Cover.make ~num_vars ~num_outputs !kept
  end

let irredundant ?(jobs = 1) ?dc cover =
  irredundant_in (ref Bytes.empty) ~jobs ?dc cover

(* REDUCE, also flagging each kept cube that came out unchanged. *)
let reduce_in scratch ?dc cover =
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
  let table = table_for scratch ~num_vars ~num_outputs ~n cubes in
  let alive = Array.make n true in
  for i = 0 to n - 1 do
    let shrunk =
      match table with
      | Some t -> counted_once_supercube t cubes.(i)
      | None -> Cover.sharp_supercube ~keep:(others ~n alive i) cubes.(i) context
    in
    (* The table follows: the old cube's points lose a count, the
       shrunk cube's gain one. *)
    (match (table, shrunk) with
     | Some t, None -> count_cube t (-1) cubes.(i)
     | Some t, Some s when not (Cube.equal s cubes.(i)) ->
       count_cube t (-1) cubes.(i);
       count_cube t 1 s
     | _ -> ());
    match shrunk with
    | None -> alive.(i) <- false (* fully covered elsewhere: drop *)
    | Some s -> cubes.(i) <- s
  done;
  let kept = ref [] and unchanged = ref [] in
  for i = n - 1 downto 0 do
    if alive.(i) then begin
      kept := cubes.(i) :: !kept;
      unchanged := Cube.equal cubes.(i) cover.Cover.cubes.(i) :: !unchanged
    end
  done;
  (Cover.make ~num_vars ~num_outputs !kept, Array.of_list !unchanged)

let reduce ?dc cover = fst (reduce_in (ref Bytes.empty) ?dc cover)

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

let minimize ?(jobs = 1) ?dc on =
  Stc_obs.Trace.span ~cat:"logic" "minimize" @@ fun () ->
  Stc_obs.Metrics.incr m_calls;
  let initial_cubes, initial_literals = Cover.cost on in
  let off = view_off ~cubes:(Cover.size on) (off_set ~jobs ?dc on) in
  (* One point-count table's bytes, refilled by every pass that uses
     one. *)
  let scratch = ref Bytes.empty in
  let expand ?prime c = gained g_expand c (expand_viewed ~jobs ?prime off c) in
  let irredundant c = gained g_irredundant c (irredundant_in scratch ~jobs ?dc c) in
  let current = ref (irredundant (expand (Cover.single_cube_containment on))) in
  let best = ref !current in
  let best_cost = ref (Cover.cost !current) in
  let iterations = ref 1 in
  let improving = ref true in
  while !improving && !iterations < 10 do
    incr iterations;
    (* Every cube of [current] came out of EXPAND, so the ones REDUCE
       leaves unchanged are still prime. *)
    let reduced, prime = reduce_in scratch ?dc !current in
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
