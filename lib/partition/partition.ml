module Word = Stc_bits.Word
module Arena = Stc_bits.Arena

(* A partition carries two synchronized representations:

   - [cls], the canonical class map (dense ids by first occurrence) -
     the external interface and the basis of the [compare] order that
     the solver's deterministic traversal depends on;
   - [rows], packed membership bitvectors, one block per [wpr] words
     ([wpr = ceil (n / Word.bits)]), in class-id order.

   The row family is where the speed lives: refinement checks become a
   couple of word subset tests per block, [join] becomes a merge of
   disjoint rows, and block iteration skips singletons without touching
   their elements.  The class map keeps [meet]/[meet_subseteq] O(n) via
   epoch-stamped pair renumbering, with no hashing on the hot path. *)

type t = {
  n : int;
  cls : int array;  (* canonical: dense class ids by first occurrence *)
  count : int;
  wpr : int;  (* words per row *)
  rows : int array;  (* count * wpr words; row c = block c's members *)
  hcache : int;  (* cached hash over (n, rows) *)
}

let wb = Word.bits

let words_per_row n = (n + wb - 1) / wb

(* [cls] must be canonical with [count] classes. *)
let rows_of_cls ~n ~count ~wpr cls =
  let rows = Array.make (count * wpr) 0 in
  for s = 0 to n - 1 do
    let idx = (Array.unsafe_get cls s * wpr) + (s / wb) in
    Array.unsafe_set rows idx
      (Array.unsafe_get rows idx lor (1 lsl (s mod wb)))
  done;
  rows

(* ------------------------------------------------------------------ *)
(* Hash-consing                                                        *)
(* ------------------------------------------------------------------ *)

(* Every constructor funnels through [intern], which keeps one canonical
   value per distinct class map in a weak table.  Within a domain, equal
   partitions are therefore physically equal, [equal] is a pointer check
   in the common case, and [hash] is a cached int - exactly what the
   solver's memo tables need for O(1) keys.

   The intern table is domain-local ([Domain.DLS]): [Weak.Make] tables
   are not safe for concurrent mutation, and a lock around a global one
   would serialize the parallel search's hottest allocation path.  The
   price is that values built in different domains may be physically
   distinct, so [equal] keeps a structural fallback (guarded by the
   cached hash); all semantics are unchanged. *)

(* Full-width FNV-style mix over the packed rows ([Hashtbl.hash] only
   samples a prefix, which collides badly on the long class maps of
   dk16/tbk).  The row family determines the partition, and at
   [count * wpr] words it is shorter than the [n]-element class map.

   Unlike class ids, row words carry their entropy in arbitrary bit
   positions (member [s] sets bit [s mod 63]), and an FNV multiply only
   diffuses low bits upward - hash tables index with the low bits, so
   partitions differing in high-half words would all share buckets.
   Each word is therefore folded onto its low half before mixing, and a
   xorshift-multiply avalanche spreads the final state both ways. *)
let hash_rows n rows =
  let h = ref (0x811c9dc5 + n) in
  for i = 0 to Array.length rows - 1 do
    let w = Array.unsafe_get rows i in
    h := (!h lxor (w lxor (w lsr 31))) * 0x01000193
  done;
  let h = !h in
  let h = (h lxor (h lsr 29)) * 0x2545f4914f6cdd1d in
  (h lxor (h lsr 32)) land max_int

module Intern = Weak.Make (struct
  type nonrec t = t

  let equal a b = a.hcache = b.hcache && a.n = b.n && a.rows = b.rows
  let hash p = p.hcache
end)

let intern_table = Domain.DLS.new_key (fun () -> Intern.create 4096)

(* [cls] must already be canonical and must not be mutated afterwards.
   [rows], when given, must be the matching row family (callers that
   already materialized the rows, e.g. [join], pass them through). *)
let intern ?rows ~n ~count cls =
  let wpr = words_per_row n in
  let rows =
    match rows with Some r -> r | None -> rows_of_cls ~n ~count ~wpr cls
  in
  let p = { n; cls; count; wpr; rows; hcache = hash_rows n rows } in
  Intern.merge (Domain.DLS.get intern_table) p

let size p = p.n

let num_classes p = p.count

let class_of p s = p.cls.(s)

let same p s t = p.cls.(s) = p.cls.(t)

(* ------------------------------------------------------------------ *)
(* Canonicalization                                                    *)
(* ------------------------------------------------------------------ *)

(* Dense renumbering by first occurrence.  The hot path (every id
   already in [0..n-1], true for every internally produced class map)
   renumbers through an epoch-stamped scratch arena: no hashing, no
   per-call allocation beyond the result.  Arbitrary ids from
   [of_class_map] fall back to a hash table. *)

let scratch = Domain.DLS.new_key (fun () -> Arena.Stamped.create 256)

let canonicalize_small cls n =
  let a = Domain.DLS.get scratch in
  Arena.Stamped.ensure a n;
  let e = Arena.Stamped.bump a in
  let data = a.data and stamp = a.stamp in
  let out = Array.make n 0 in
  let count = ref 0 in
  for s = 0 to n - 1 do
    let c = Array.unsafe_get cls s in
    if Array.unsafe_get stamp c = e then
      Array.unsafe_set out s (Array.unsafe_get data c)
    else begin
      Array.unsafe_set stamp c e;
      Array.unsafe_set data c !count;
      Array.unsafe_set out s !count;
      incr count
    end
  done;
  intern ~n ~count:!count out

let canonicalize_slow cls n =
  let remap = Hashtbl.create 16 in
  let out = Array.make n 0 in
  for s = 0 to n - 1 do
    out.(s) <-
      (match Hashtbl.find_opt remap cls.(s) with
      | Some id -> id
      | None ->
        let id = Hashtbl.length remap in
        Hashtbl.replace remap cls.(s) id;
        id)
  done;
  intern ~n ~count:(Hashtbl.length remap) out

let canonicalize cls =
  let n = Array.length cls in
  let in_range = ref true in
  for s = 0 to n - 1 do
    let c = Array.unsafe_get cls s in
    if c < 0 || c >= n then in_range := false
  done;
  if !in_range then canonicalize_small cls n else canonicalize_slow cls n

let of_class_map cls =
  if Array.length cls = 0 then invalid_arg "Partition.of_class_map: empty";
  canonicalize cls

let class_map p = Array.copy p.cls

let identity n =
  if n <= 0 then invalid_arg "Partition.identity: n must be positive";
  intern ~n ~count:n (Array.init n (fun s -> s))

let universal n =
  if n <= 0 then invalid_arg "Partition.universal: n must be positive";
  intern ~n ~count:1 (Array.make n 0)

let is_identity p = p.count = p.n

let is_universal p = p.count = 1

let of_blocks ~n blocks =
  let cls = Array.make n (-1) in
  List.iteri
    (fun b block ->
      List.iter
        (fun s ->
          if s < 0 || s >= n then
            invalid_arg (Printf.sprintf "Partition.of_blocks: %d out of range" s);
          if cls.(s) >= 0 then
            invalid_arg (Printf.sprintf "Partition.of_blocks: %d in two blocks" s);
          cls.(s) <- b)
        block)
    blocks;
  let next = ref (List.length blocks) in
  for s = 0 to n - 1 do
    if cls.(s) < 0 then begin
      cls.(s) <- !next;
      incr next
    end
  done;
  canonicalize cls

let pair_relation ~n s t =
  if s < 0 || s >= n || t < 0 || t >= n then
    invalid_arg "Partition.pair_relation: out of range";
  let cls = Array.init n (fun x -> x) in
  cls.(max s t) <- min s t;
  canonicalize cls

(* ------------------------------------------------------------------ *)
(* Move kernels                                                        *)
(* ------------------------------------------------------------------ *)

(* One-step lattice moves for the stochastic search: direct class-map
   surgery plus one canonicalization pass, cheaper than composing
   [join p (pair_relation s t)] (which interns an intermediate basis
   partition and runs the general join). *)

let merge_classes p c d =
  if c < 0 || c >= p.count || d < 0 || d >= p.count then
    invalid_arg "Partition.merge_classes: class out of range";
  if c = d then p
  else begin
    let lo = min c d and hi = max c d in
    let cls = Array.init p.n (fun s ->
        let x = Array.unsafe_get p.cls s in
        if x = hi then lo else x)
    in
    canonicalize_small cls p.n
  end

(* Row population count, two words per iteration. *)
let row_popcount rows wpr c =
  let base = c * wpr in
  let pop = ref 0 in
  let wi = ref 0 in
  while !wi + 1 < wpr do
    pop :=
      !pop
      + Word.Lane.popcount2
          (Array.unsafe_get rows (base + !wi))
          (Array.unsafe_get rows (base + !wi + 1));
    wi := !wi + 2
  done;
  if !wi < wpr then pop := !pop + Word.popcount (Array.unsafe_get rows (base + !wi));
  !pop

let class_size p c =
  if c < 0 || c >= p.count then invalid_arg "Partition.class_size: out of range";
  row_popcount p.rows p.wpr c

let split_singleton p s =
  if s < 0 || s >= p.n then
    invalid_arg "Partition.split_singleton: out of range";
  (* A singleton block cannot be refined further. *)
  let c = p.cls.(s) in
  if row_popcount p.rows p.wpr c <= 1 then p
  else begin
    (* [count] is a fresh id; count < n here since block [c] has >= 2
       members, so the fast canonicalizer applies. *)
    let cls = Array.copy p.cls in
    cls.(s) <- p.count;
    canonicalize_small cls p.n
  end

(* Batch coarsening for the incremental closure engine (Pair.close_merge):
   [f] maps every class id onto a group representative ([f (f c) = f c]);
   the result merges each group into one block.  Unlike [join], nothing
   global is recomputed: unchanged groups blit their packed row straight
   through and only dirty groups union rows, so the cost is
   O(count * wpr) row words plus the O(n) class-map pass - never a
   pairwise block scan.  Group numbering by smallest member class id is
   first-occurrence canonical (class ids are themselves ordered by first
   occurrence). *)
let coarsen_with p f =
  let count = p.count and wpr = p.wpr in
  let newid = Array.make count (-1) in
  let count' = ref 0 in
  for c = 0 to count - 1 do
    let r = f c in
    if r < 0 || r >= count then
      invalid_arg "Partition.coarsen_with: map out of range";
    if Array.unsafe_get newid r < 0 then begin
      Array.unsafe_set newid r !count';
      incr count'
    end
  done;
  if !count' = count then p
  else begin
    let count' = !count' in
    let rows = Array.make (count' * wpr) 0 in
    for c = 0 to count - 1 do
      let dest = Array.unsafe_get newid (f c) * wpr in
      let base = c * wpr in
      let wi = ref 0 in
      while !wi + 1 < wpr do
        Array.unsafe_set rows (dest + !wi)
          (Array.unsafe_get rows (dest + !wi)
          lor Array.unsafe_get p.rows (base + !wi));
        Array.unsafe_set rows (dest + !wi + 1)
          (Array.unsafe_get rows (dest + !wi + 1)
          lor Array.unsafe_get p.rows (base + !wi + 1));
        wi := !wi + 2
      done;
      if !wi < wpr then
        Array.unsafe_set rows (dest + !wi)
          (Array.unsafe_get rows (dest + !wi)
          lor Array.unsafe_get p.rows (base + !wi))
    done;
    let cls = Array.make p.n 0 in
    for s = 0 to p.n - 1 do
      Array.unsafe_set cls s
        (Array.unsafe_get newid (f (Array.unsafe_get p.cls s)))
    done;
    intern ~rows ~n:p.n ~count:count' cls
  end

(* ------------------------------------------------------------------ *)
(* Row iteration                                                       *)
(* ------------------------------------------------------------------ *)

(* [iter_row_members rows wpr c f] calls [f] on block [c]'s members in
   ascending order, one [ffs] per member. *)
let iter_row_members rows wpr c f =
  let base = c * wpr in
  for wi = 0 to wpr - 1 do
    let w = ref (Array.unsafe_get rows (base + wi)) in
    while !w <> 0 do
      f ((wi * wb) + Word.ffs !w);
      w := !w land (!w - 1)
    done
  done

let blocks p =
  let out = ref [] in
  for c = p.count - 1 downto 0 do
    let members = ref [] in
    iter_row_members p.rows p.wpr c (fun s -> members := s :: !members);
    out := List.rev !members :: !out
  done;
  !out

(* Classes are numbered by first occurrence, so scanning the class map
   meets them in id order: element [s] is the smallest member of its
   class iff its id is the next one not seen yet. *)
let representatives p =
  let reps = Array.make p.count 0 in
  let seen = ref 0 and s = ref 0 in
  while !seen < p.count do
    if Array.unsafe_get p.cls !s = !seen then begin
      Array.unsafe_set reps !seen !s;
      incr seen
    end;
    incr s
  done;
  reps

let members p c =
  let acc = ref [] in
  iter_row_members p.rows p.wpr c (fun s -> acc := s :: !acc);
  List.rev !acc

let iter_coarse_members p f =
  for c = 0 to p.count - 1 do
    let base = c * p.wpr in
    let rep = ref (-1) in
    for wi = 0 to p.wpr - 1 do
      let w = ref (Array.unsafe_get p.rows (base + wi)) in
      if !rep < 0 && !w <> 0 then begin
        rep := (wi * wb) + Word.ffs !w;
        w := !w land (!w - 1)
      end;
      while !w <> 0 do
        f !rep ((wi * wb) + Word.ffs !w);
        w := !w land (!w - 1)
      done
    done
  done

(* ------------------------------------------------------------------ *)
(* Lattice operations                                                  *)
(* ------------------------------------------------------------------ *)

(* Pair-key renumbering cap: beyond [count_p * count_q] stamped slots of
   this budget, fall back to hashing so scratch memory stays O(n). *)
let pair_key_cap n = max 1024 (4 * n)

let meet_slow p q =
  let table = Hashtbl.create 16 in
  let cls = Array.make p.n 0 in
  for s = 0 to p.n - 1 do
    let key = (p.cls.(s), q.cls.(s)) in
    cls.(s) <-
      (match Hashtbl.find_opt table key with
      | Some id -> id
      | None ->
        let id = Hashtbl.length table in
        Hashtbl.replace table key id;
        id)
  done;
  intern ~n:p.n ~count:(Hashtbl.length table) cls

let meet p q =
  if p.n <> q.n then invalid_arg "Partition.meet: size mismatch";
  if p == q || is_identity p || is_universal q then p
  else if is_identity q || is_universal p then q
  else if p.count * q.count > pair_key_cap p.n then meet_slow p q
  else begin
    let a = Domain.DLS.get scratch in
    Arena.Stamped.ensure a (p.count * q.count);
    let e = Arena.Stamped.bump a in
    let data = a.data and stamp = a.stamp in
    let pc = p.cls and qc = q.cls and qn = q.count in
    let cls = Array.make p.n 0 in
    let count = ref 0 in
    for s = 0 to p.n - 1 do
      let key = (Array.unsafe_get pc s * qn) + Array.unsafe_get qc s in
      if Array.unsafe_get stamp key = e then
        Array.unsafe_set cls s (Array.unsafe_get data key)
      else begin
        Array.unsafe_set stamp key e;
        Array.unsafe_set data key !count;
        Array.unsafe_set cls s !count;
        incr count
      end
    done;
    (* first-occurrence numbering of the pair keys is already canonical *)
    intern ~n:p.n ~count:!count cls
  end

(* Coarse-regime join by row merging.  Start from [p]'s rows; for each
   block of [q], union every live row it touches into the first one.
   One pass suffices: live rows stay pairwise disjoint (they only ever
   merge), so a row can meet a [q]-block group only through the block's
   own bits, and later blocks absorb previously merged rows the same
   way.

   Canonical numbering comes for free: the canonical row family has
   strictly increasing minimum elements, a merged group survives at the
   minimum index of its members, and min-index order equals min-element
   order - so scanning surviving rows in index order is first-occurrence
   order. *)
let join_rows p q =
  let n = p.n and wpr = p.wpr in
  let live = Array.copy p.rows in
  let alive = Array.make p.count true in
  let survivors = ref p.count in
  for j = 0 to q.count - 1 do
    let qbase = j * wpr in
    let acc = ref (-1) in
    for r = 0 to p.count - 1 do
      if Array.unsafe_get alive r then begin
        let rbase = r * wpr in
        let hit = ref false in
        let wi = ref 0 in
        while (not !hit) && !wi + 1 < wpr do
          if
            Word.Lane.inter2
              (Array.unsafe_get live (rbase + !wi))
              (Array.unsafe_get q.rows (qbase + !wi))
              (Array.unsafe_get live (rbase + !wi + 1))
              (Array.unsafe_get q.rows (qbase + !wi + 1))
          then hit := true;
          wi := !wi + 2
        done;
        if
          (not !hit) && !wi < wpr
          && Array.unsafe_get live (rbase + !wi)
             land Array.unsafe_get q.rows (qbase + !wi)
             <> 0
        then hit := true;
        if !hit then
          if !acc < 0 then acc := r
          else begin
            let abase = !acc * wpr in
            for wi = 0 to wpr - 1 do
              Array.unsafe_set live (abase + wi)
                (Array.unsafe_get live (abase + wi)
                lor Array.unsafe_get live (rbase + wi))
            done;
            Array.unsafe_set alive r false;
            decr survivors
          end
      end
    done
  done;
  let count = !survivors in
  let cls = Array.make n 0 in
  let rows = Array.make (count * wpr) 0 in
  let id = ref 0 in
  for r = 0 to p.count - 1 do
    if alive.(r) then begin
      let c = !id in
      incr id;
      Array.blit live (r * wpr) rows (c * wpr) wpr;
      iter_row_members live wpr r (fun s -> Array.unsafe_set cls s c)
    end
  done;
  intern ~rows ~n ~count cls

(* Union-find over [p]'s class ids (path halving, no ranks - the forests
   are tiny), unioning along each coarse block of [q]: singleton
   [q]-blocks merge nothing and are skipped via the rows.  Afterwards
   classes [c] and [d] of [p] lie in one block of [join p q] iff
   [uf_find parent c = uf_find parent d].  [parent] needs [p.count]
   slots. *)
let rec uf_find parent c =
  let pc = Array.unsafe_get parent c in
  if pc = c then c
  else begin
    let gp = Array.unsafe_get parent pc in
    Array.unsafe_set parent c gp;
    uf_find parent gp
  end

let uf_join_classes parent p q =
  for c = 0 to p.count - 1 do
    Array.unsafe_set parent c c
  done;
  iter_coarse_members q (fun rep s ->
      let a = uf_find parent (Array.unsafe_get p.cls rep)
      and b = uf_find parent (Array.unsafe_get p.cls s) in
      if a <> b then Array.unsafe_set parent b a)

(* Fine-regime join: the class-id union-find above, then one output pass
   that fuses find with the stamped first-occurrence renumbering - the
   whole join is one scan of [q]'s coarse members plus one scan of the
   elements. *)
let join_uf p q =
  let n = p.n in
  let parent = Array.make p.count 0 in
  uf_join_classes parent p q;
  let a = Domain.DLS.get scratch in
  Arena.Stamped.ensure a p.count;
  let e = Arena.Stamped.bump a in
  let data = a.data and stamp = a.stamp in
  let out = Array.make n 0 in
  let count = ref 0 in
  for s = 0 to n - 1 do
    let c = uf_find parent (Array.unsafe_get p.cls s) in
    if Array.unsafe_get stamp c = e then
      Array.unsafe_set out s (Array.unsafe_get data c)
    else begin
      Array.unsafe_set stamp c e;
      Array.unsafe_set data c !count;
      Array.unsafe_set out s !count;
      incr count
    end
  done;
  intern ~n ~count:!count out

let join p q =
  if p.n <> q.n then invalid_arg "Partition.join: size mismatch";
  if p == q || is_identity q || is_universal p then p
  else if is_identity p || is_universal q then q
  else if p.count * q.count * p.wpr <= 2 * p.n then join_rows p q
  else join_uf p q

let join_all ~n ps = List.fold_left join (identity n) ps

(* p refines q iff every row of p is a subset of the q-row of its
   representative: one class lookup plus [wpr] word tests per block. *)
let subseteq p q =
  p.n = q.n
  && (p == q || is_universal q || is_identity p
     || p.count >= q.count
        && begin
          let wpr = p.wpr in
          let ok = ref true in
          let c = ref 0 in
          while !ok && !c < p.count do
            let base = !c * wpr in
            let rec rep wi =
              let w = Array.unsafe_get p.rows (base + wi) in
              if w = 0 then rep (wi + 1) else (wi * wb) + Word.ffs w
            in
            let qbase = Array.unsafe_get q.cls (rep 0) * wpr in
            let wi = ref 0 in
            while !ok && !wi + 1 < wpr do
              if
                Word.Lane.diffsub2
                  (Array.unsafe_get p.rows (base + !wi))
                  (Array.unsafe_get q.rows (qbase + !wi))
                  (Array.unsafe_get p.rows (base + !wi + 1))
                  (Array.unsafe_get q.rows (qbase + !wi + 1))
              then ok := false;
              wi := !wi + 2
            done;
            if
              !ok && !wi < wpr
              && Array.unsafe_get p.rows (base + !wi)
                 land lnot (Array.unsafe_get q.rows (qbase + !wi))
                 <> 0
            then ok := false;
            incr c
          done;
          !ok
        end)

(* Meet-refinement kernel over raw id maps: the meet of [a] and [b]
   refines [r] iff all elements sharing an ([a], [b]) id pair share
   their [r] class.

   Small key spaces ([na * nb] within [pair_key_cap]) stamp one table
   indexed by the pair key with the [r] class seen first.  Larger ones
   counting-sort the elements by their [a] id, and each bucket of two or
   more gets a fresh epoch of one stamped table indexed by [b] id: O(n +
   na) time and O(n + na + nb) reused per-domain scratch, no hashing.
   Both paths stop at the first witness, and both index their stamped
   table with checked accesses: the maps come from outside the module. *)
type map_scratch = {
  mutable ends : int array;
  mutable order : int array;
  mutable parent : int array;  (* union-find of [join_meet_subseteq] *)
  mutable roots : int array;  (* its root map, one id per element *)
}

let map_scratch =
  Domain.DLS.new_key (fun () ->
      { ends = [||]; order = [||]; parent = [||]; roots = [||] })

let meet_subseteq_pairs a ~na b ~nb r =
  let st = Domain.DLS.get scratch in
  Arena.Stamped.ensure st (na * nb);
  let ok = ref true in
  let e = Arena.Stamped.bump st in
  let data = st.data and stamp = st.stamp and rc = r.cls in
  let s = ref 0 in
  while !ok && !s < r.n do
    let key = (Array.unsafe_get a !s * nb) + Array.unsafe_get b !s in
    let cr = Array.unsafe_get rc !s in
    if stamp.(key) = e then begin
      if data.(key) <> cr then ok := false
    end
    else begin
      stamp.(key) <- e;
      data.(key) <- cr
    end;
    incr s
  done;
  !ok

let meet_subseteq_buckets a ~na b ~nb r =
  let n = r.n in
  let sc = Domain.DLS.get map_scratch in
  sc.ends <- Arena.ensure sc.ends (na + 1);
  sc.order <- Arena.ensure sc.order n;
  let ends = sc.ends and order = sc.order in
  Array.fill ends 0 (na + 1) 0;
  for t = 0 to n - 1 do
    let x = a.(t) in
    ends.(x) <- ends.(x) + 1
  done;
  for x = 1 to na - 1 do
    Array.unsafe_set ends x
      (Array.unsafe_get ends x + Array.unsafe_get ends (x - 1))
  done;
  ends.(na) <- n;
  (* placing backwards turns each bucket's end into its start *)
  for t = n - 1 downto 0 do
    let x = Array.unsafe_get a t in
    let pos = Array.unsafe_get ends x - 1 in
    Array.unsafe_set ends x pos;
    Array.unsafe_set order pos t
  done;
  let st = Domain.DLS.get scratch in
  Arena.Stamped.ensure st nb;
  let data = st.data and stamp = st.stamp and rc = r.cls in
  let ok = ref true in
  let x = ref 0 in
  while !ok && !x < na do
    let lo = Array.unsafe_get ends !x and hi = Array.unsafe_get ends (!x + 1) in
    if hi - lo >= 2 then begin
      let e = Arena.Stamped.bump st in
      let i = ref lo in
      while !ok && !i < hi do
        let t = Array.unsafe_get order !i in
        let key = b.(t) in
        let cr = Array.unsafe_get rc t in
        if stamp.(key) = e then begin
          if data.(key) <> cr then ok := false
        end
        else begin
          stamp.(key) <- e;
          data.(key) <- cr
        end;
        incr i
      done
    end;
    incr x
  done;
  !ok

let meet_subseteq_maps a ~na b ~nb r =
  if Array.length a < r.n || Array.length b < r.n then
    invalid_arg "Partition.meet_subseteq_maps: map shorter than n";
  if na * nb <= pair_key_cap r.n then meet_subseteq_pairs a ~na b ~nb r
  else meet_subseteq_buckets a ~na b ~nb r

let meet_subseteq p q r =
  if p.n <> q.n || p.n <> r.n then
    invalid_arg "Partition.meet_subseteq: size mismatch";
  if is_universal r || is_identity p || is_identity q then true
  else if p == q then subseteq p r
  else if is_universal p then subseteq q r
  else if is_universal q then subseteq p r
  else meet_subseteq_maps p.cls ~na:p.count q.cls ~nb:q.count r

(* [subseteq (meet (join a b) p) r] with neither the join nor the meet
   built: the class-id union-find of [join_uf] gives every element the
   root of its [join a b] block, and that root map goes straight into
   the meet kernel.  The forest and the root map are per-domain
   scratch, so a test allocates nothing but the closure of the member
   walk. *)
let join_meet_subseteq a b p r =
  if a.n <> b.n || a.n <> p.n || a.n <> r.n then
    invalid_arg "Partition.join_meet_subseteq: size mismatch";
  if a == b || is_identity b || is_universal a then meet_subseteq a p r
  else if is_identity a || is_universal b then meet_subseteq b p r
  else begin
    let sc = Domain.DLS.get map_scratch in
    sc.parent <- Arena.ensure sc.parent a.count;
    sc.roots <- Arena.ensure sc.roots a.n;
    let parent = sc.parent and roots = sc.roots in
    uf_join_classes parent a b;
    for s = 0 to a.n - 1 do
      Array.unsafe_set roots s (uf_find parent (Array.unsafe_get a.cls s))
    done;
    meet_subseteq_maps roots ~na:a.count p.cls ~nb:p.count r
  end

let equal p q =
  p == q || (p.hcache = q.hcache && p.n = q.n && p.rows = q.rows)

let compare p q =
  if p == q then 0
  else
    let c = Stdlib.compare p.n q.n in
    if c <> 0 then c else Stdlib.compare p.cls q.cls

let hash p = p.hcache

let pp ppf p =
  List.iter
    (fun block ->
      Format.fprintf ppf "{%s}"
        (String.concat "," (List.map string_of_int block)))
    (blocks p)

let to_string p = Format.asprintf "%a" pp p
