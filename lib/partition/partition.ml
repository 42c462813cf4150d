module Arena = Stc_bits.Arena

(* A partition is its canonical class map: element [s] lies in block
   [cls.(s)], blocks numbered densely by first occurrence.  Every kernel
   is one or two passes over that map.  Renumbering (pair keys,
   union-find roots) goes through an epoch-stamped per-domain scratch
   arena, so the hot paths neither hash nor allocate beyond their
   result.

   First-occurrence numbering also hands out every block's smallest
   member for free: scanning the elements in order, [s] is the first
   member of its block iff [cls.(s)] is the number of blocks met so far.
   [subseteq], [iter_coarse_members] and [representatives] rely on
   this. *)

type t = {
  n : int;
  cls : int array;  (* canonical: dense class ids by first occurrence *)
  count : int;
  hcache : int;  (* cached hash over (n, cls) *)
}

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

(* Full-width FNV-style mix over the class map ([Hashtbl.hash] only
   samples a prefix, which collides badly on the long class maps of
   dk16/tbk).  An FNV multiply only diffuses low bits upward and hash
   tables index with the low bits, so a xorshift-multiply avalanche
   spreads the final state both ways. *)
let hash_cls n cls =
  let h = ref (0x811c9dc5 + n) in
  for s = 0 to n - 1 do
    h := (!h lxor Array.unsafe_get cls s) * 0x01000193
  done;
  let h = !h in
  let h = (h lxor (h lsr 29)) * 0x2545f4914f6cdd1d in
  (h lxor (h lsr 32)) land max_int

module Intern = Weak.Make (struct
  type nonrec t = t

  let equal a b = a.hcache = b.hcache && a.n = b.n && a.cls = b.cls
  let hash p = p.hcache
end)

let intern_table = Domain.DLS.new_key (fun () -> Intern.create 4096)

(* [cls] must already be canonical and must not be mutated afterwards. *)
let intern ~n ~count cls =
  let p = { n; cls; count; hcache = hash_cls n cls } in
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

let class_size p c =
  if c < 0 || c >= p.count then invalid_arg "Partition.class_size: out of range";
  (* the first member of class [c] is at least [c] *)
  let size = ref 0 in
  for s = c to p.n - 1 do
    if Array.unsafe_get p.cls s = c then incr size
  done;
  !size

let split_singleton p s =
  if s < 0 || s >= p.n then
    invalid_arg "Partition.split_singleton: out of range";
  (* A singleton block cannot be refined further. *)
  let c = p.cls.(s) in
  let rec alone t =
    t >= p.n || ((t = s || Array.unsafe_get p.cls t <> c) && alone (t + 1))
  in
  if alone c then p
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
   global is recomputed: one pass over the class ids numbers the groups,
   one pass over the class map renames the elements.  Group numbering by
   smallest member class id is first-occurrence canonical (class ids are
   themselves ordered by first occurrence). *)
let coarsen_with p f =
  let count = p.count in
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
    let cls = Array.make p.n 0 in
    for s = 0 to p.n - 1 do
      Array.unsafe_set cls s
        (Array.unsafe_get newid (f (Array.unsafe_get p.cls s)))
    done;
    intern ~n:p.n ~count:!count' cls
  end

(* ------------------------------------------------------------------ *)
(* Block iteration                                                     *)
(* ------------------------------------------------------------------ *)

let blocks p =
  let out = Array.make p.count [] in
  for s = p.n - 1 downto 0 do
    let c = Array.unsafe_get p.cls s in
    Array.unsafe_set out c (s :: Array.unsafe_get out c)
  done;
  Array.to_list out

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
  for s = p.n - 1 downto max c 0 do
    if Array.unsafe_get p.cls s = c then acc := s :: !acc
  done;
  !acc

(* The walk's first-member table is its own per-domain slot, lent out
   for the duration of the walk: a callback may call any other kernel
   (they renumber through [scratch]), and one that re-enters
   [iter_coarse_members] finds the slot empty and gets a fresh table. *)
let first_members = Domain.DLS.new_key (fun () -> ref [||])

let iter_coarse_members p f =
  if p.count < p.n then begin
    let slot = Domain.DLS.get first_members in
    let first = Arena.ensure !slot p.count in
    slot := [||];
    let cls = p.cls in
    let walk () =
      let seen = ref 0 in
      for s = 0 to p.n - 1 do
        let c = Array.unsafe_get cls s in
        if c = !seen then begin
          Array.unsafe_set first c s;
          incr seen
        end
        else f (Array.unsafe_get first c) s
      done
    in
    match walk () with
    | () -> slot := first
    | exception e ->
      slot := first;
      raise e
  end

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

(* Union-find over [p]'s class ids (path halving, no ranks - the forests
   are tiny), unioning every element of [q] with its block's first
   member: singleton [q]-blocks merge nothing and cost one class-map
   read each.  Afterwards classes [c] and [d] of [p] lie in one block of
   [join p q] iff [uf_find parent c = uf_find parent d].  [parent] needs
   [p.count] slots. *)
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

(* Per-domain scratch of the union-find and meet-refinement kernels. *)
type map_scratch = {
  mutable ends : int array;  (* bucket bounds of [meet_subseteq_buckets] *)
  mutable order : int array;  (* its elements, sorted by bucket *)
  mutable parent : int array;  (* union-find of [join_roots] *)
  mutable roots : int array;  (* its root map, one id per element *)
}

let map_scratch =
  Domain.DLS.new_key (fun () ->
      { ends = [||]; order = [||]; parent = [||]; roots = [||] })

(* [join_roots p q] maps every element to the root of its [join p q]
   block, a class id of [p], in the per-domain root map. *)
let join_roots p q =
  let sc = Domain.DLS.get map_scratch in
  sc.parent <- Arena.ensure sc.parent p.count;
  sc.roots <- Arena.ensure sc.roots p.n;
  let parent = sc.parent and roots = sc.roots in
  uf_join_classes parent p q;
  for s = 0 to p.n - 1 do
    Array.unsafe_set roots s (uf_find parent (Array.unsafe_get p.cls s))
  done;
  roots

let join p q =
  if p.n <> q.n then invalid_arg "Partition.join: size mismatch";
  if p == q || is_identity q || is_universal p then p
  else if is_identity p || is_universal q then q
  else canonicalize_small (join_roots p q) p.n

let join_all ~n ps = List.fold_left join (identity n) ps

(* p refines q iff the class map of p determines that of q: record the
   q-class of each p-block's first member and check every other member
   against it, in one pass that stops at the first witness.  The table
   is [scratch]'s data, written before it is read (first-occurrence
   order), so no epoch is needed. *)
let subseteq p q =
  p.n = q.n
  && (p == q || is_universal q || is_identity p
     || p.count >= q.count
        && begin
          let a = Domain.DLS.get scratch in
          Arena.Stamped.ensure a p.count;
          let image = a.data and pc = p.cls and qc = q.cls in
          let seen = ref 0 and ok = ref true and s = ref 0 in
          while !ok && !s < p.n do
            let c = Array.unsafe_get pc !s and d = Array.unsafe_get qc !s in
            if c = !seen then begin
              Array.unsafe_set image c d;
              incr seen
            end
            else if Array.unsafe_get image c <> d then ok := false;
            incr s
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
   built: the root map of [join_roots] goes straight into the meet
   kernel.  The forest and the root map are per-domain scratch, so a
   test allocates nothing but the closure of the member walk. *)
let join_meet_subseteq a b p r =
  if a.n <> b.n || a.n <> p.n || a.n <> r.n then
    invalid_arg "Partition.join_meet_subseteq: size mismatch";
  if a == b || is_identity b || is_universal a then meet_subseteq a p r
  else if is_identity a || is_universal b then meet_subseteq b p r
  else meet_subseteq_maps (join_roots a b) ~na:a.count p.cls ~nb:p.count r

let equal p q =
  p == q || (p.hcache = q.hcache && p.n = q.n && p.cls = q.cls)

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
