module Union_find = Stc_util.Union_find
module Arena = Stc_bits.Arena

let dims next =
  let n = Array.length next in
  if n = 0 then invalid_arg "Pair: empty transition table";
  (n, Array.length next.(0))

let is_pair ~next pi rho =
  let n, k = dims next in
  if Partition.size pi <> n || Partition.size rho <> n then
    invalid_arg "Pair.is_pair: size mismatch";
  (* Enough to compare each state against its block representative. *)
  match
    Partition.iter_coarse_members pi (fun r s ->
        let nr = next.(r) and ns = next.(s) in
        for i = 0 to k - 1 do
          if not (Partition.same rho ns.(i) nr.(i)) then raise Exit
        done)
  with
  | () -> true
  | exception Exit -> false

let is_symmetric_pair ~next pi rho =
  is_pair ~next pi rho && is_pair ~next rho pi

let m ~next pi =
  let n, k = dims next in
  let uf = Union_find.create n in
  Partition.iter_coarse_members pi (fun r s ->
      let nr = next.(r) and ns = next.(s) in
      for i = 0 to k - 1 do
        ignore (Union_find.union uf ns.(i) nr.(i))
      done);
  Partition.of_class_map (Union_find.class_map uf)

(* Successor-signature grouping.  When the [k] rho-class ids fit one
   native word the signature packs into an int key (cheap hash, cheap
   compare); the int-array keying remains as fallback for very wide
   input alphabets. *)
let big_m ~next rho =
  let n, k = dims next in
  let width =
    let rec go b = if 1 lsl b >= Partition.num_classes rho then b else go (b + 1) in
    go 1
  in
  let cls = Array.make n 0 in
  if k * width <= 62 then begin
    let table = Hashtbl.create 16 in
    for s = 0 to n - 1 do
      let ns = next.(s) in
      let key = ref 0 in
      for i = 0 to k - 1 do
        key := (!key lsl width) lor Partition.class_of rho ns.(i)
      done;
      cls.(s) <-
        (match Hashtbl.find_opt table !key with
        | Some id -> id
        | None ->
          let id = Hashtbl.length table in
          Hashtbl.replace table !key id;
          id)
    done
  end
  else begin
    let table = Hashtbl.create 16 in
    for s = 0 to n - 1 do
      let signature =
        Array.init k (fun i -> Partition.class_of rho next.(s).(i))
      in
      cls.(s) <-
        (match Hashtbl.find_opt table signature with
        | Some id -> id
        | None ->
          let id = Hashtbl.length table in
          Hashtbl.replace table signature id;
          id)
    done
  end;
  Partition.of_class_map cls

(* [big_m rho] derived from [bm = big_m base] for a refinement
   [base subseteq rho]: states grouped together by [bm] have identical
   successor signatures under [base], hence under the coarser [rho], so
   [big_m rho] only ever merges whole [bm]-blocks - grouping the
   [num_classes bm] representatives is enough, O(classes * k) instead of
   O(n * k).  Same packed-int signature keying as [big_m]. *)
let big_m_coarse ~next ~rho bm =
  let n, k = dims next in
  let kb = Partition.num_classes bm in
  let rep = Array.make kb 0 in
  for s = n - 1 downto 0 do
    Array.unsafe_set rep (Partition.class_of bm s) s
  done;
  let width =
    let rec go b = if 1 lsl b >= Partition.num_classes rho then b else go (b + 1) in
    go 1
  in
  let group = Array.make kb 0 in
  if k * width <= 62 then begin
    let table = Hashtbl.create 16 in
    for c = 0 to kb - 1 do
      let ns = next.(Array.unsafe_get rep c) in
      let key = ref 0 in
      for i = 0 to k - 1 do
        key := (!key lsl width) lor Partition.class_of rho ns.(i)
      done;
      group.(c) <-
        (match Hashtbl.find_opt table !key with
        | Some id -> id
        | None ->
          let id = Hashtbl.length table in
          Hashtbl.replace table !key id;
          id)
    done
  end
  else begin
    let table = Hashtbl.create 16 in
    for c = 0 to kb - 1 do
      let signature =
        Array.init k (fun i -> Partition.class_of rho next.(rep.(c)).(i))
      in
      group.(c) <-
        (match Hashtbl.find_opt table signature with
        | Some id -> id
        | None ->
          let id = Hashtbl.length table in
          Hashtbl.replace table signature id;
          id)
    done
  end;
  let cls = Array.make n 0 in
  for s = 0 to n - 1 do
    Array.unsafe_set cls s
      (Array.unsafe_get group (Partition.class_of bm s))
  done;
  Partition.of_class_map cls

(* m(p_{s,t}) without building the intermediate pair relation: the join of
   the pairs (delta(s,i), delta(t,i)). *)
let m_of_state_pair ~next s t =
  let n, k = dims next in
  let uf = Union_find.create n in
  for i = 0 to k - 1 do
    ignore (Union_find.union uf next.(s).(i) next.(t).(i))
  done;
  Partition.of_class_map (Union_find.class_map uf)

module PTbl = Hashtbl.Make (struct
  type t = Partition.t

  let equal = Partition.equal
  let hash = Partition.hash
end)

let basis ~next =
  let n, _ = dims next in
  let seen = PTbl.create 64 in
  for s = 0 to n - 1 do
    for t = s + 1 to n - 1 do
      let p = m_of_state_pair ~next s t in
      if not (PTbl.mem seen p) then PTbl.replace seen p ()
    done
  done;
  PTbl.fold (fun p () acc -> p :: acc) seen [] |> List.sort Partition.compare

module Memo = struct
  type nonrec t = {
    next : int array array;
    m_tbl : Partition.t PTbl.t;
    big_m_tbl : Partition.t PTbl.t;
    mutable hits : int;
    mutable misses : int;
  }

  let create ~next =
    {
      next;
      m_tbl = PTbl.create 1024;
      big_m_tbl = PTbl.create 1024;
      hits = 0;
      misses = 0;
    }

  let lookup memo tbl op pi =
    match PTbl.find_opt tbl pi with
    | Some r ->
      memo.hits <- memo.hits + 1;
      r
    | None ->
      memo.misses <- memo.misses + 1;
      let r = op ~next:memo.next pi in
      PTbl.add tbl pi r;
      r

  (* The memoized operators below shadow the module-level functions; keep
     a handle on the raw [big_m] for the hinted variant's base case. *)
  let big_m_op = big_m
  let m memo pi = lookup memo memo.m_tbl m pi
  let big_m memo rho = lookup memo memo.big_m_tbl big_m rho

  (* Hinted variant for the incremental polish: on a cache miss, derive
     [big_m rho] from the memoized [big_m base] by per-class grouping
     ([big_m_coarse]) instead of the O(n * k) state sweep.  [base] must
     refine [rho] (the anytime tier passes the parent's side, which every
     closure iterate coarsens); the derived value is the same partition
     [big_m rho] returns, so the cache stays consistent whichever path
     filled it. *)
  let big_m_from memo ~base rho =
    match PTbl.find_opt memo.big_m_tbl rho with
    | Some r ->
      memo.hits <- memo.hits + 1;
      r
    | None ->
      memo.misses <- memo.misses + 1;
      let r =
        if Partition.equal base rho then big_m_op ~next:memo.next rho
        else big_m_coarse ~next:memo.next ~rho (big_m memo base)
      in
      PTbl.add memo.big_m_tbl rho r;
      r

  let hits memo = memo.hits
  let misses memo = memo.misses
end

(* ------------------------------------------------------------------ *)
(* Admissibility, closure and polish                                   *)
(* ------------------------------------------------------------------ *)

let admissible ~next ~equiv pi rho =
  is_symmetric_pair ~next pi rho && Partition.meet_subseteq pi rho equiv

(* Alternating joins with the m-images until neither side moves: the
   least symmetric pair above the seed, since each join adds only what
   the pair conditions force. *)
let rec close memo pi rho =
  let rho' = Partition.join rho (Memo.m memo pi) in
  let pi' = Partition.join pi (Memo.m memo rho') in
  if Partition.equal pi pi' && Partition.equal rho rho' then (pi, rho')
  else close memo pi' rho'

(* If (pi, rho) is a symmetric pair then so is (M rho, rho): it is a pair
   by definition of M, and (rho, M rho) is one because (rho, pi) is and
   pi refines M rho.  Symmetrically for (pi, M pi).  So from a symmetric
   input every iterate is symmetric, and admissibility reduces to the
   meet bound.  Coarsening only shrinks class counts, so each accepted
   step is a monotone improvement.
   With [from], every iterate coarsens the closed parent, so the M-images
   are derived from the parent's cached images ([Memo.big_m_from]). *)
let polish ?from memo ~equiv pi rho =
  let image_of_rho, image_of_pi =
    match from with
    | None -> (Memo.big_m memo, Memo.big_m memo)
    | Some (base_pi, base_rho) ->
      (Memo.big_m_from memo ~base:base_rho, Memo.big_m_from memo ~base:base_pi)
  in
  let rec go pi rho =
    let pi' = image_of_rho rho in
    if (not (Partition.equal pi' pi)) && Partition.meet_subseteq pi' rho equiv then
      go pi' rho
    else begin
      let rho' = image_of_pi pi in
      if (not (Partition.equal rho' rho)) && Partition.meet_subseteq pi rho' equiv
      then go pi rho'
      else (pi, rho)
    end
  in
  go pi rho

(* ------------------------------------------------------------------ *)
(* Incremental closure                                                 *)
(* ------------------------------------------------------------------ *)

(* One-step lattice moves of the anytime tier. *)
type move =
  | Merge of { on_pi : bool; c : int; d : int }
  | Split of { on_pi : bool; s : int }

type outcome = {
  closed : (Partition.t * Partition.t) option;
  dirty : int;
  collapsed : bool;
}

(* [close_merge] computes the least symmetric pair above a one-step move
   of a closed symmetric pair [(pi, rho)], or [None] when that pair fails
   the meet bound [pi' /\ rho' subseteq equiv] - the closure engine of
   the anytime tier.

   Merges run a dirty-group worklist instead of the from-scratch
   fixpoint (which re-derives whole m-images and joins per iteration):

   - a union-find per side over the parent's class ids holds the
     evolving coarsening (every constraint of the closed parent survives
     coarsening, so only merged groups can force anything);
   - each union of two groups enqueues one propagation task carrying a
     member state of either group (within a group, all members' images
     are pairwise united on the other side by induction, so one state
     per group is enough), and a task unites the two states' images
     input by input on the other side;
   - each union is also a witness test: if its two states already share
     a group on the other side but [equiv] separates them, they stay
     together in the meet of every coarsening, so the closed pair cannot
     be admissible and the proposal is rejected on the spot (both sides
     only ever coarsen - Lemma 1's monotonicity);
   - a proposal that reaches the fixpoint gets the complete meet check,
     bucketed over the union-find roots ([Partition.meet_subseteq_maps]),
     and only then is the closed pair materialized
     ([Partition.coarsen_with]) and interned.

   Splits have closed forms (the split bound lemma, DESIGN.md section
   10): the closure's split side is [side'] or [side] (collapsed: [s] is
   pulled back), decided by one pair test - see [close_split_pi] and
   [close_split_rho].

   All union-find forests, the worklist and the root maps live in
   per-domain scratch, so a rejected merge allocates nothing; the
   results are the partitions [close] reaches from the same seed,
   interned, hence pointer-equal within a domain. *)

type scratch = {
  mutable pi_parent : int array;  (* union-find forests *)
  mutable rho_parent : int array;
  mutable queue : int array;  (* merge worklist *)
  mutable pi_root : int array;  (* root maps; [M rho'] ids in a rho-split *)
  mutable rho_root : int array;
  blocks : Arena.Stamped.t;  (* first member per block *)
  marks : Arena.Stamped.t;  (* blocks near [s]; renumbering of [M rho'] *)
}

let scratch =
  Domain.DLS.new_key (fun () ->
      {
        pi_parent = [||];
        rho_parent = [||];
        queue = [||];
        pi_root = [||];
        rho_root = [||];
        blocks = Arena.Stamped.create 256;
        marks = Arena.Stamped.create 256;
      })

let rec uf_find parent x =
  let px = Array.unsafe_get parent x in
  if px = x then x
  else begin
    let gx = Array.unsafe_get parent px in
    Array.unsafe_set parent x gx;
    uf_find parent gx
  end

(* [uf_reset parent n] is a fresh forest over [0 .. n - 1]. *)
let uf_reset parent n =
  let parent = Arena.ensure parent n in
  for x = 0 to n - 1 do
    Array.unsafe_set parent x x
  done;
  parent

(* Union keeping the smaller root; [true] when two groups merged. *)
let uf_union parent a b =
  let ra = uf_find parent a and rb = uf_find parent b in
  if ra = rb then false
  else begin
    if ra < rb then Array.unsafe_set parent rb ra
    else Array.unsafe_set parent ra rb;
    true
  end

(* [iter_split_members sc p s f] calls [f r t] for every element [t] of
   [Partition.split_singleton p s] that is not the smallest member [r] of
   its block - [Partition.iter_coarse_members] of the split partition
   without building it, in element order, in one pass over the class
   map. *)
let iter_split_members sc p s f =
  let st = sc.blocks in
  Arena.Stamped.ensure st (Partition.num_classes p);
  let e = Arena.Stamped.bump st in
  let stamp = st.stamp and data = st.data in
  for t = 0 to Partition.size p - 1 do
    if t <> s then begin
      let c = Partition.class_of p t in
      if Array.unsafe_get stamp c = e then f (Array.unsafe_get data c) t
      else begin
        Array.unsafe_set stamp c e;
        Array.unsafe_set data c t
      end
    end
  done

exception Witness

let close_merge_classes sc ~next ~k ~equiv ~pi ~rho ~on_pi c d =
  let n = Array.length next in
  let np = Partition.num_classes pi and nr = Partition.num_classes rho in
  let pi_parent = uf_reset sc.pi_parent np in
  let rho_parent = uf_reset sc.rho_parent nr in
  sc.pi_parent <- pi_parent;
  sc.rho_parent <- rho_parent;
  (* Every task is pushed by a union, and every union removes a node, so
     the queue never holds more than [np + nr] tasks: side bit and the
     first state packed into one int, the second state next to it. *)
  let queue = Arena.ensure sc.queue (2 * (np + nr)) in
  sc.queue <- queue;
  let tail = ref 0 in
  let dirty = ref 0 in
  (* unite the groups of states [ta] and [tb] on one side *)
  let union ~on_pi ta tb =
    let side = if on_pi then pi else rho in
    let parent = if on_pi then pi_parent else rho_parent in
    if uf_union parent (Partition.class_of side ta) (Partition.class_of side tb)
    then begin
      incr dirty;
      let other_side = if on_pi then rho else pi in
      let other = if on_pi then rho_parent else pi_parent in
      if
        Partition.class_of equiv ta <> Partition.class_of equiv tb
        && uf_find other (Partition.class_of other_side ta)
           = uf_find other (Partition.class_of other_side tb)
      then raise Witness;
      Array.unsafe_set queue !tail ((ta lsl 1) lor Bool.to_int on_pi);
      Array.unsafe_set queue (!tail + 1) tb;
      tail := !tail + 2
    end
  in
  (* the smallest member of class [c]: canonical ids number classes by
     first occurrence, so it is at least [c] *)
  let first_member p c =
    let rec go s = if Partition.class_of p s = c then s else go (s + 1) in
    go c
  in
  match
    (let side = if on_pi then pi else rho in
     union ~on_pi (first_member side c) (first_member side d));
    let head = ref 0 in
    while !head < !tail do
      let packed = Array.unsafe_get queue !head in
      let tb = Array.unsafe_get queue (!head + 1) in
      head := !head + 2;
      (* a merge on one side forces the images together on the other:
         (pi, rho) and (rho, pi) must both stay pairs *)
      let na = next.(packed lsr 1) and nb = next.(tb) in
      let on_pi = packed land 1 = 0 in
      for i = 0 to k - 1 do
        union ~on_pi (Array.unsafe_get na i) (Array.unsafe_get nb i)
      done
    done
  with
  | exception Witness -> { closed = None; dirty = !dirty; collapsed = false }
  | () ->
    let pi_root = Arena.ensure sc.pi_root n in
    let rho_root = Arena.ensure sc.rho_root n in
    sc.pi_root <- pi_root;
    sc.rho_root <- rho_root;
    for t = 0 to n - 1 do
      Array.unsafe_set pi_root t (uf_find pi_parent (Partition.class_of pi t));
      Array.unsafe_set rho_root t
        (uf_find rho_parent (Partition.class_of rho t))
    done;
    let closed =
      if Partition.meet_subseteq_maps pi_root ~na:np rho_root ~nb:nr equiv
      then
        Some
          ( Partition.coarsen_with pi (uf_find pi_parent),
            Partition.coarsen_with rho (uf_find rho_parent) )
      else None
    in
    { closed; dirty = !dirty; collapsed = false }

(* The seed [(pi', m pi')] lies below [(pi, rho)] ([m pi' subseteq m pi
   subseteq rho]), so the closure's pi side is [pi'] or [pi].  It stays
   [pi'] iff [(m pi', pi')] is a pair.  States that [m pi'] joins have
   [pi]-equal images (they are [rho]-equal, and [(rho, pi)] is a pair),
   so the test only asks whether [s] is the image of one and not of the
   other, input by input - which only a predecessor of [s] can be.

   So only the blocks of [m pi] holding a predecessor of [s] matter:
   [m pi'] refines [m pi], and restricted to those blocks it is generated
   by the image pairs that land in them.  The union-find runs over those
   alone; the rest of [m pi'] is built only when the split survives. *)
let close_split_pi memo sc ~next ~k ~equiv ~pi s =
  let n = Array.length next in
  let mpi = Memo.m memo pi in
  let marks = sc.marks in
  Arena.Stamped.ensure marks (Partition.num_classes mpi);
  let e = Arena.Stamped.bump marks in
  let stamp = marks.stamp in
  for t = 0 to n - 1 do
    let nt = next.(t) in
    for i = 0 to k - 1 do
      if Array.unsafe_get nt i = s then
        Array.unsafe_set stamp (Partition.class_of mpi t) e
    done
  done;
  let near_s x = Array.unsafe_get stamp (Partition.class_of mpi x) = e in
  let uf = uf_reset sc.pi_parent n in
  sc.pi_parent <- uf;
  let unite ~all =
    iter_split_members sc pi s (fun a b ->
        let na = next.(a) and nb = next.(b) in
        for i = 0 to k - 1 do
          let x = Array.unsafe_get na i in
          if all || near_s x then ignore (uf_union uf x (Array.unsafe_get nb i))
        done)
  in
  unite ~all:false;
  let collapsed = ref false in
  let u = ref 0 in
  while (not !collapsed) && !u < n do
    if near_s !u then begin
      let r = uf_find uf !u in
      let nu = next.(!u) and nr = next.(r) in
      for i = 0 to k - 1 do
        if (Array.unsafe_get nu i = s) <> (Array.unsafe_get nr i = s) then
          collapsed := true
      done
    end;
    incr u
  done;
  let pi', rho' =
    if !collapsed then (pi, mpi)
    else begin
      unite ~all:true;
      ( Partition.split_singleton pi s,
        Partition.of_class_map (Array.init n (uf_find uf)) )
    end
  in
  let closed =
    if Partition.meet_subseteq pi' rho' equiv then Some (pi', rho') else None
  in
  { closed; dirty = 0; collapsed = !collapsed }

(* The seed [(M rho', rho')] lies below [(M rho, rho)], a symmetric pair
   ([m rho subseteq pi subseteq M rho]), so the closure's rho side is
   [rho'] or [rho].  It stays [rho'] iff [(rho', M rho')] is a pair;
   otherwise the least pi side above [M rho'] that pairs with [rho] both
   ways is [M rho' \/ m rho], which is [M rho] itself when [m rho]
   rejoins every split block.

   [M rho'] refines the memoized [M rho]: a state's successor signature
   under [rho'] is its signature under [rho] plus the set of inputs that
   lead to [s], so only blocks holding a predecessor of [s] split.  The
   renumbering below hands out dense first-occurrence ids - a stamped
   table for [M rho]'s blocks, a hash table only for predecessors. *)
let close_split_rho memo sc ~next ~k ~equiv ~rho s =
  let n = Array.length next in
  let bm = Memo.big_m memo rho in
  let ids = Arena.ensure sc.pi_root n in
  sc.pi_root <- ids;
  let marks = sc.marks in
  Arena.Stamped.ensure marks (Partition.num_classes bm);
  let e = Arena.Stamped.bump marks in
  let stamp = marks.stamp and data = marks.data in
  let preds = Hashtbl.create 8 in
  let count = ref 0 in
  let fresh () =
    let id = !count in
    incr count;
    id
  in
  for t = 0 to n - 1 do
    let nt = next.(t) in
    let hits = ref [] in
    for i = k - 1 downto 0 do
      if Array.unsafe_get nt i = s then hits := i :: !hits
    done;
    let c = Partition.class_of bm t in
    Array.unsafe_set ids t
      (match !hits with
      | [] ->
        if Array.unsafe_get stamp c = e then Array.unsafe_get data c
        else begin
          let id = fresh () in
          Array.unsafe_set stamp c e;
          Array.unsafe_set data c id;
          id
        end
      | hits -> (
        match Hashtbl.find_opt preds (c, hits) with
        | Some id -> id
        | None ->
          let id = fresh () in
          Hashtbl.replace preds (c, hits) id;
          id))
  done;
  let collapsed =
    match
      iter_split_members sc rho s (fun a b ->
          let na = next.(a) and nb = next.(b) in
          for i = 0 to k - 1 do
            if
              Array.unsafe_get ids (Array.unsafe_get na i)
              <> Array.unsafe_get ids (Array.unsafe_get nb i)
            then raise Exit
          done)
    with
    | () -> false
    | exception Exit -> true
  in
  let pi', rho' =
    if not collapsed then
      (Partition.of_class_map (Array.sub ids 0 n), Partition.split_singleton rho s)
    else begin
      let uf = uf_reset sc.rho_parent !count in
      sc.rho_parent <- uf;
      let classes = ref !count in
      Partition.iter_coarse_members (Memo.m memo rho) (fun a b ->
          if uf_union uf (Array.unsafe_get ids a) (Array.unsafe_get ids b) then
            decr classes);
      if !classes = Partition.num_classes bm then (bm, rho)
      else
        ( Partition.of_class_map
            (Array.init n (fun t -> uf_find uf (Array.unsafe_get ids t))),
          rho )
    end
  in
  let closed =
    if Partition.meet_subseteq pi' rho' equiv then Some (pi', rho') else None
  in
  { closed; dirty = 0; collapsed }

let close_merge memo ~equiv ~pi ~rho move =
  let next = memo.Memo.next in
  let n, k = dims next in
  if Partition.size pi <> n || Partition.size rho <> n
     || Partition.size equiv <> n
  then invalid_arg "Pair.close_merge: size mismatch";
  let sc = Domain.DLS.get scratch in
  match move with
  | Merge { on_pi; c; d } ->
    let classes = Partition.num_classes (if on_pi then pi else rho) in
    if c < 0 || c >= classes || d < 0 || d >= classes then
      invalid_arg "Pair.close_merge: class out of range";
    close_merge_classes sc ~next ~k ~equiv ~pi ~rho ~on_pi c d
  | Split { on_pi; s } ->
    if s < 0 || s >= n then invalid_arg "Pair.close_merge: state out of range";
    if on_pi then close_split_pi memo sc ~next ~k ~equiv ~pi s
    else close_split_rho memo sc ~next ~k ~equiv ~rho s
