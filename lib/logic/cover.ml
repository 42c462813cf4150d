type t = { num_vars : int; num_outputs : int; cubes : Cube.t array }

module R = Cube.Raw

let check_dims ~num_vars ~num_outputs c =
  if Cube.num_vars c <> num_vars || Cube.num_outputs c <> num_outputs then
    invalid_arg "Cover.make: cube dimension mismatch"

let of_array ~num_vars ~num_outputs cubes =
  Array.iter (check_dims ~num_vars ~num_outputs) cubes;
  { num_vars; num_outputs; cubes }

let make ~num_vars ~num_outputs cubes =
  of_array ~num_vars ~num_outputs (Array.of_list cubes)

let empty ~num_vars ~num_outputs = { num_vars; num_outputs; cubes = [||] }

let of_strings ~num_vars ~num_outputs rows =
  make ~num_vars ~num_outputs (List.map Cube.of_string rows)

let size c = Array.length c.cubes

let cost c =
  let literals =
    Array.fold_left
      (fun acc cube -> acc + Cube.literals cube + Cube.output_count cube)
      0 c.cubes
  in
  (Array.length c.cubes, literals)

let eval c v =
  let ow = R.out_words c.num_outputs in
  let acc = Array.make ow 0 in
  Array.iter
    (fun cube ->
      if Cube.matches cube v then begin
        let w = R.output_words cube in
        for i = 0 to ow - 1 do
          acc.(i) <- acc.(i) lor w.(i)
        done
      end)
    c.cubes;
  Array.init c.num_outputs (fun o ->
      acc.(o / R.outs_per_word) land (1 lsl (o mod R.outs_per_word)) <> 0)

let add c cube =
  check_dims ~num_vars:c.num_vars ~num_outputs:c.num_outputs cube;
  { c with cubes = Array.append [| cube |] c.cubes }

let union a b =
  if a.num_vars <> b.num_vars || a.num_outputs <> b.num_outputs then
    invalid_arg "Cover.union: dimension mismatch";
  { a with cubes = Array.append a.cubes b.cubes }

(* --------------------------------------------------------------------
   Single-output engine: rows are bare packed input parts (the word
   arrays of {!Cube.Raw}), shared with the cubes they come from and
   never mutated in place.  Tautology and complement are plain Shannon
   recursions on row arrays kept canonical (sorted, deduped) at every
   cofactor, so each result is a pure function of row content and does
   not depend on which domain computes it.
   -------------------------------------------------------------------- *)

let m_taut_calls = Stc_obs.Metrics.counter "minimize.tautology_calls"

(* Lexicographic word order; on the equal-length rows of one cover it is
   the order [Stdlib.compare] gives, without the polymorphic dispatch. *)
let compare_row (a : int array) (b : int array) =
  let n = Array.length a in
  let rec go i =
    if i = n then 0
    else
      let c = Int.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* Canonicalize a row list: sorted, duplicates removed.  Rows are shared,
   not copied. *)
let canonical_rows rows_list =
  let a = Array.of_list rows_list in
  Array.sort compare_row a;
  let n = Array.length a in
  if n = 0 then a
  else begin
    let out = ref 1 in
    for i = 1 to n - 1 do
      if compare_row a.(i) a.(!out - 1) <> 0 then begin
        a.(!out) <- a.(i);
        incr out
      end
    done;
    if !out = n then a else Array.sub a 0 !out
  end

let row_all_dc row = Array.for_all (fun w -> w = R.mask11) row

let row_with_pair row k code =
  let r = Array.copy row in
  let wi = k / R.vars_per_word and p = 2 * (k mod R.vars_per_word) in
  r.(wi) <- r.(wi) land lnot (3 lsl p) lor (code lsl p);
  r

(* Cofactor one row by [x_k = polarity]: [None] when the row dies, the
   unchanged (shared) row when [x_k] is don't-care. *)
let row_cofactor row k polarity =
  match R.pair row k with
  | 3 -> Some row
  | 2 -> if polarity then Some (row_with_pair row k 3) else None
  | 1 -> if polarity then None else Some (row_with_pair row k 3)
  | _ -> None

(* Pick the variable on which the rows are "most binate":
   lexicographically maximal [(min ones zeros, ones + zeros)].  [None]
   when all rows are all-dc or the set is empty. *)
let select_var nv rows =
  let ones = Array.make nv 0 and zeros = Array.make nv 0 in
  Array.iter
    (fun row ->
      for k = 0 to nv - 1 do
        match R.pair row k with
        | 1 -> zeros.(k) <- zeros.(k) + 1
        | 2 -> ones.(k) <- ones.(k) + 1
        | _ -> ()
      done)
    rows;
  let best = ref (-1) and best_min = ref (-1) and best_tot = ref (-1) in
  for k = 0 to nv - 1 do
    let o = ones.(k) and z = zeros.(k) in
    let m = min o z and tot = o + z in
    if tot > 0 && (m > !best_min || (m = !best_min && tot > !best_tot)) then begin
      best := k;
      best_min := m;
      best_tot := tot
    end
  done;
  if !best < 0 then None
  else Some (!best, !best_min > 0)

let rows_cofactor rows k polarity =
  let out = ref [] in
  for i = Array.length rows - 1 downto 0 do
    match row_cofactor rows.(i) k polarity with
    | Some r -> out := r :: !out
    | None -> ()
  done;
  canonical_rows !out

let rec rows_tautology nv rows =
  Stc_obs.Metrics.incr m_taut_calls;
  if Array.exists row_all_dc rows then true
  else
    match select_var nv rows with
    | None -> false (* empty, or no fixed literal and no all-dc row *)
    | Some (k, binate) ->
      (* Unate leaf: a unate cover is a tautology iff it contains the
         universal row, which was just ruled out. *)
      binate
      && rows_tautology nv (rows_cofactor rows k true)
      && rows_tautology nv (rows_cofactor rows k false)

(* Complement of a single row by De Morgan: one row per fixed position,
   carrying only the opposite literal (everything else don't-care). *)
let single_row_complement nv row =
  let all_dc = Array.make (Array.length row) R.mask11 in
  let out = ref [] in
  for k = nv - 1 downto 0 do
    match R.pair row k with
    | 1 -> out := row_with_pair all_dc k 2 :: !out
    | 2 -> out := row_with_pair all_dc k 1 :: !out
    | _ -> ()
  done;
  Array.of_list !out

let rec rows_complement nv nw rows =
  if Array.length rows = 0 then [| Array.make nw R.mask11 |]
  else if Array.exists row_all_dc rows then [||]
  else if Array.length rows = 1 then single_row_complement nv rows.(0)
  else
    match select_var nv rows with
    | None -> assert false (* nonempty without all-dc row has a literal *)
    | Some (k, _) ->
      let branch polarity =
        Array.map
          (fun r -> row_with_pair r k (if polarity then 2 else 1))
          (rows_complement nv nw (rows_cofactor rows k polarity))
      in
      Array.append (branch true) (branch false)

(* --------------------------------------------------------------------
   Cover-level operations on top of the engine.
   -------------------------------------------------------------------- *)

let output_words_singleton num_outputs o =
  let w = Array.make (R.out_words num_outputs) 0 in
  w.(o / R.outs_per_word) <- 1 lsl (o mod R.outs_per_word);
  w

let rows_for_output c o =
  let rows = ref [] in
  for i = Array.length c.cubes - 1 downto 0 do
    let cube = c.cubes.(i) in
    if Cube.output_bit cube o then rows := R.input_words cube :: !rows
  done;
  !rows

(* Cofactor [row] by the (non-conflicting) input part [wrt]: every
   variable fixed in [wrt] is raised to don't-care. *)
let row_cofactor_wrt nw wrt row =
  Array.init nw (fun i ->
      let f = wrt.(i) in
      let dc01 = f land (f lsr 1) land R.mask01 in
      let fixed01 = R.mask01 land lnot dc01 in
      row.(i) lor fixed01 lor (fixed01 lsl 1))

let rows_conflict nw a b =
  let conflict = ref false in
  for i = 0 to nw - 1 do
    if R.words_conflict (a.(i) land b.(i)) then conflict := true
  done;
  !conflict

let keep_all _ = true

(* The cubes of [c] that [keep] accepts, share an output with [cube] and
   meet its input part, each with its input row cofactored by that part:
   one scan of [c] per query, then a filter per output of [cube].  A scan
   per output measured slower on s1's many-output blocks. *)
let meeting ~keep c cube =
  let nw = R.in_words (Cube.num_vars cube) in
  let wrt = R.input_words cube in
  let hits = ref [] in
  for i = Array.length c.cubes - 1 downto 0 do
    let cc = c.cubes.(i) in
    if Cube.output_overlap cc cube && keep i then begin
      let r = R.input_words cc in
      if not (rows_conflict nw r wrt) then
        hits := (cc, row_cofactor_wrt nw wrt r) :: !hits
    end
  done;
  !hits

let rows_of_output hits o =
  List.filter_map
    (fun (cc, row) -> if Cube.output_bit cc o then Some row else None)
    hits

(* --------------------------------------------------------------------
   Truth-table leaf.  A query about one cube looks only at the cube's
   own points, so the meeting cubes matter only on the cube's free
   (don't-care) variables.  With at most [leaf_vars] of them, the
   cube's points fit a {!Chunk} table over those variables, at most 32
   chunks.  A meeting cube, cofactored onto the query cube, is then one
   span of that table: the AND of its literals' patterns on the free
   variables.  Wider cubes keep the recursion above.  At 10 variables
   every query of the corpus machines' blocks takes the leaf; at 8,
   s1's output block sent 4 815 queries with 9 or 10 free variables to
   the recursion.
   -------------------------------------------------------------------- *)

let m_dense = Stc_obs.Metrics.counter "minimize.dense_queries"

let m_wide = Stc_obs.Metrics.counter "minimize.wide_queries"

let leaf_vars = 10

(* Per-domain scratch: the cube's free variables, the span of the
   meeting cube at hand, and per output [o] the points the meeting
   cubes asserting [o] cover, chunk [x] at [acc.(o * chunks + x)]. *)
type leaf = {
  mutable free : int array;
  span : Chunk.span;
  mutable acc : int array;
}

let leaf_key =
  Domain.DLS.new_key (fun () -> { free = [||]; span = Chunk.span (); acc = [||] })

let clear_caches () =
  let l = Domain.DLS.get leaf_key in
  l.free <- [||];
  l.acc <- [||]

let ensure = Stc_bits.Arena.ensure

(* Fill the accumulators for [cube] from the cubes of [c] that [keep]
   accepts, share an output with [cube] and meet its input part - the
   rows {!meeting} would cofactor.  [None] when [cube] has more than
   [leaf_vars] free variables, else the number of them. *)
let leaf_scan ~keep c cube =
  let nfree = Cube.dc_count cube in
  if nfree > leaf_vars then None
  else begin
    Stc_obs.Metrics.incr m_dense;
    let l = Domain.DLS.get leaf_key in
    let nv = Cube.num_vars cube and no = Cube.num_outputs cube in
    let cin = R.input_words cube in
    l.free <- ensure l.free nfree;
    let j = ref 0 in
    for k = 0 to nv - 1 do
      if R.pair cin k = 3 then begin
        l.free.(!j) <- k;
        incr j
      end
    done;
    let chunks = Chunk.count nfree in
    l.acc <- ensure l.acc (no * chunks);
    Array.fill l.acc 0 (no * chunks) 0;
    let nw = R.in_words nv in
    for i = 0 to Array.length c.cubes - 1 do
      let cc = c.cubes.(i) in
      let row = R.input_words cc in
      if Cube.output_overlap cc cube && keep i && not (rows_conflict nw row cin)
      then begin
        Chunk.set_span l.span ~vars:l.free nfree row;
        for o = 0 to no - 1 do
          if Cube.output_bit cc o && Cube.output_bit cube o then
            Chunk.add l.span l.acc ~base:(o * chunks) nfree
        done
      end
    done;
    Some nfree
  end

(* The supercube of the points of [cube] the accumulators leave
   uncovered, read off their union: a free variable keeps each half
   that holds an uncovered point, an output stays iff it has one. *)
let leaf_sharp_supercube cube nfree =
  let l = Domain.DLS.get leaf_key in
  let num_vars = Cube.num_vars cube and num_outputs = Cube.num_outputs cube in
  let chunks = Chunk.count nfree and ones = Chunk.ones nfree in
  let union = Array.make chunks 0 in
  let outw = Array.make (R.out_words num_outputs) 0 in
  for o = 0 to num_outputs - 1 do
    if Cube.output_bit cube o then
      for x = 0 to chunks - 1 do
        let u = ones land lnot l.acc.((o * chunks) + x) in
        if u <> 0 then begin
          union.(x) <- union.(x) lor u;
          let wi = o / R.outs_per_word in
          outw.(wi) <- outw.(wi) lor (1 lsl (o mod R.outs_per_word))
        end
      done
  done;
  if Array.for_all (fun u -> u = 0) union then None
  else begin
    let inw = Array.copy (R.input_words cube) in
    for j = 0 to nfree - 1 do
      let zero = ref false and one = ref false in
      for x = 0 to chunks - 1 do
        let u = union.(x) in
        if j < 5 then begin
          if u land lnot (Chunk.pattern j) <> 0 then zero := true;
          if u land Chunk.pattern j <> 0 then one := true
        end
        else if u <> 0 then begin
          if x land (1 lsl (j - 5)) = 0 then zero := true else one := true
        end
      done;
      let code = Bool.to_int !zero lor (Bool.to_int !one lsl 1) in
      let k = l.free.(j) in
      let wi = k / R.vars_per_word and p = 2 * (k mod R.vars_per_word) in
      inw.(wi) <- inw.(wi) land lnot (3 lsl p) lor (code lsl p)
    done;
    Some (R.make_packed ~num_vars ~num_outputs inw outw)
  end

let covers_cube ?(keep = keep_all) c cube =
  match leaf_scan ~keep c cube with
  | Some nfree -> Option.is_none (leaf_sharp_supercube cube nfree)
  | None ->
    Stc_obs.Metrics.incr m_wide;
    let hits = meeting ~keep c cube in
    let ok = ref true in
    let o = ref 0 in
    while !ok && !o < c.num_outputs do
      if Cube.output_bit cube !o then begin
        let rows = canonical_rows (rows_of_output hits !o) in
        if not (rows_tautology c.num_vars rows) then ok := false
      end;
      incr o
    done;
    !ok

let tautology c =
  covers_cube c (Cube.full ~num_vars:c.num_vars ~num_outputs:c.num_outputs)

let equivalent a b =
  let covers a b = Array.for_all (covers_cube a) b.cubes in
  covers a b && covers b a

let complement ?(jobs = 1) c =
  let per_output =
    Stc_util.Parallel.map_range ~jobs c.num_outputs
      (fun o ->
        rows_complement c.num_vars (R.in_words c.num_vars)
          (canonical_rows (rows_for_output c o)))
      ~init:[||]
  in
  let cubes = ref [] in
  for o = c.num_outputs - 1 downto 0 do
    let outw = output_words_singleton c.num_outputs o in
    let rows = per_output.(o) in
    for i = Array.length rows - 1 downto 0 do
      cubes :=
        R.make_packed ~num_vars:c.num_vars ~num_outputs:c.num_outputs rows.(i)
          outw
        :: !cubes
    done
  done;
  { c with cubes = Array.of_list !cubes }

let sharp_cube ?(keep = keep_all) cube c =
  let num_vars = Cube.num_vars cube in
  let num_outputs = Cube.num_outputs cube in
  let nw = R.in_words num_vars in
  let cube_in = R.input_words cube in
  (* Complement [c] inside the subspace of [cube]: cofactor the
     intersecting rows first, so the recursion only sees the cube's free
     variables.  For points of [cube] the cofactored cover agrees with
     [c], so complement-then-intersect yields the same point set as a
     global complement restricted to [cube], from much smaller row
     sets. *)
  let hits = meeting ~keep c cube in
  let cubes = ref [] in
  for o = num_outputs - 1 downto 0 do
    if Cube.output_bit cube o then begin
      let comp =
        rows_complement num_vars nw (canonical_rows (rows_of_output hits o))
      in
      for i = Array.length comp - 1 downto 0 do
        let r = comp.(i) in
        if not (rows_conflict nw r cube_in) then begin
          let piece = Array.init nw (fun j -> r.(j) land cube_in.(j)) in
          cubes :=
            R.make_packed ~num_vars ~num_outputs piece
              (output_words_singleton num_outputs o)
            :: !cubes
        end
      done
    end
  done;
  { num_vars; num_outputs; cubes = Array.of_list !cubes }

let sharp_supercube ?(keep = keep_all) cube c =
  match leaf_scan ~keep c cube with
  | Some nfree -> leaf_sharp_supercube cube nfree
  | None ->
    Stc_obs.Metrics.incr m_wide;
    let pieces = (sharp_cube ~keep cube c).cubes in
    if Array.length pieces = 0 then None
    else Some (Array.fold_left Cube.supercube pieces.(0) pieces)

(* Keep only maximal cubes, canonically: sort most-general-first (fewer
   input literals, then more outputs, then {!Cube.compare}) and keep a
   cube iff no already-kept cube contains it.  A container has at most
   as many input literals and at least as many outputs as the cubes it
   contains, so it sorts before them and one forward pass over the kept
   prefix suffices; equal duplicates collapse onto the first copy.  The
   result order is the sorted order - a canonical function of the cover
   as a set, independent of the input arrangement.

   When the input part is one word (at most 31 variables), the kept
   cubes are indexed by the set of variables they fix (a bitmask, one
   bit per variable at the low bit of its pair), then by their input
   word.  A container fixes a subset of the candidate's fixed variables,
   to the same values, and leaves the rest don't-care, so for each such
   subset its input word is the candidate's with every other pair raised
   to [11]: one hash lookup.  The subsets are enumerated when there are
   fewer of them than distinct fixed sets kept, else the kept sets are
   scanned.  Only the cubes found are tested in full.  Wider covers scan
   the kept list. *)
let single_cube_containment c =
  Stc_obs.Trace.span ~cat:"logic" "scc" @@ fun () ->
  let order (la, oa, a) (lb, ob, b) =
    if la <> lb then Int.compare la lb
    else if oa <> ob then Int.compare ob oa
    else Cube.compare a b
  in
  let sorted =
    Array.map (fun q -> (Cube.literals q, Cube.output_count q, q)) c.cubes
  in
  Array.sort order sorted;
  let sorted = Array.map (fun (_, _, q) -> q) sorted in
  let kept = ref [] in
  let contained, index =
    if R.in_words c.num_vars <> 1 then
      ((fun cube -> List.exists (fun k -> Cube.contains k cube) !kept), ignore)
    else begin
      (* fixed set -> input word -> kept cubes *)
      let by_fixed : (int, (int, Cube.t list) Hashtbl.t) Hashtbl.t =
        Hashtbl.create 64
      in
      let sets = ref [] and nsets = ref 0 in
      let fixed w = (w lxor (w lsr 1)) land R.mask01 in
      let found cube w f by_word =
        let pairs = f lor (f lsl 1) in
        match Hashtbl.find_opt by_word ((w land pairs) lor (R.mask11 land lnot pairs)) with
        | Some ks -> List.exists (fun k -> Cube.contains k cube) ks
        | None -> false
      in
      let contained cube =
        let w = (R.input_words cube).(0) in
        let fc = fixed w in
        if 1 lsl R.popcount fc <= !nsets then
          let rec subsets f =
            (match Hashtbl.find_opt by_fixed f with
             | Some by_word -> found cube w f by_word
             | None -> false)
            || (f <> 0 && subsets ((f - 1) land fc))
          in
          subsets fc
        else
          List.exists
            (fun (f, by_word) -> f land lnot fc = 0 && found cube w f by_word)
            !sets
      in
      let index cube =
        let w = (R.input_words cube).(0) in
        let f = fixed w in
        let by_word =
          match Hashtbl.find_opt by_fixed f with
          | Some t -> t
          | None ->
            let t = Hashtbl.create 8 in
            Hashtbl.add by_fixed f t;
            sets := (f, t) :: !sets;
            incr nsets;
            t
        in
        Hashtbl.replace by_word w
          (cube :: Option.value (Hashtbl.find_opt by_word w) ~default:[])
      in
      (contained, index)
    end
  in
  Array.iter
    (fun cube ->
      if not (contained cube) then begin
        kept := cube :: !kept;
        index cube
      end)
    sorted;
  { c with cubes = Array.of_list (List.rev !kept) }

let minterms c =
  if c.num_vars > 16 then invalid_arg "Cover.minterms: too many variables";
  let cubes = ref [] in
  for v = (1 lsl c.num_vars) - 1 downto 0 do
    let out = eval c v in
    if Array.exists Fun.id out then begin
      let m = Cube.minterm ~num_vars:c.num_vars ~num_outputs:c.num_outputs v in
      cubes := Cube.make ~input:(Cube.input m) ~output:out :: !cubes
    end
  done;
  { c with cubes = Array.of_list !cubes }

let pp ppf c =
  Format.fprintf ppf "@[<v>";
  Array.iter
    (fun cube -> Format.fprintf ppf "%s@," (Cube.to_string cube))
    c.cubes;
  Format.fprintf ppf "@]"

let to_string c = Format.asprintf "%a" pp c
