module Union_find = Stc_util.Union_find

let dims next =
  let n = Array.length next in
  if n = 0 then invalid_arg "Pair: empty transition table";
  (n, Array.length next.(0))

let is_pair ~next pi rho =
  let n, k = dims next in
  if Partition.size pi <> n || Partition.size rho <> n then
    invalid_arg "Pair.is_pair: size mismatch";
  (* Enough to compare each state against its block representative;
     [iter_coarse_members] skips singleton blocks outright. *)
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

let is_mm_pair ~next pi rho =
  Partition.equal (big_m ~next rho) pi && Partition.equal (m ~next pi) rho

(* ------------------------------------------------------------------ *)
(* Incremental closure                                                 *)
(* ------------------------------------------------------------------ *)

(* One-step lattice moves of the anytime tier. *)
type move =
  | Merge of { on_pi : bool; c : int; d : int }
  | Split of { on_pi : bool; s : int }

(* [close_merge] computes the least symmetric pair above a one-step move
   of a closed symmetric pair [(pi, rho)], or [None] as soon as that pair
   is known to fail the meet bound [pi' /\ rho' subseteq equiv] - the
   closure engine of the anytime tier.  Where the from-scratch fixpoint
   re-derives whole m-images and whole-partition joins per iteration
   (O(n * k) each), this engine only replays the constraints of groups
   that actually merge:

   - a union-find per side holds the evolving coarsening.  Its nodes are
     the parent's class ids for a merge (every constraint of the closed
     parent survives coarsening, so only the merged groups can force
     anything) and the states for a split (a split refines the parent,
     whose closure then says nothing: the split side is seeded with its
     blocks, the pi side of a rho-split with [big_m rho'], the other
     side with singletons - the seeds [close] starts from);
   - each union of two groups enqueues one propagation task carrying a
     representative state of either group (within a group, all members'
     images are pairwise united on the other side by induction, so one
     state per group is enough), and a task unites the two states'
     images input by input on the other side;
   - each union is also a witness test: if its two representatives
     already share a group on the other side but [equiv] separates them,
     they stay together in the meet of every coarsening, so the closed
     pair cannot be admissible and the proposal is rejected on the spot
     (both sides only ever coarsen - Lemma 1's monotonicity);
   - a proposal that reaches the fixpoint gets the complete meet check,
     bucketed over the union-find roots ([Partition.meet_subseteq_maps]),
     and only then is the closed pair materialized and interned (a split
     also interns its moved side up front: the seed it iterates).

   Materialization goes through [Partition.coarsen_with] for merges,
   which unions only the dirty packed rows, and canonicalizes the root
   maps for splits.  The result is the least fixpoint [close] reaches
   from the same seed, hence bit-identical partitions.

   [dirty] counts the union events propagated, seed unions included.
   Precondition for merges: [(pi, rho)] is a symmetric pair; violating
   it silently under-closes. *)
let rec uf_find parent x =
  let px = Array.unsafe_get parent x in
  if px = x then x
  else begin
    let gx = Array.unsafe_get parent px in
    Array.unsafe_set parent x gx;
    uf_find parent gx
  end

exception Witness

let close_merge ~next ~equiv ~pi ~rho move =
  let n, k = dims next in
  if Partition.size pi <> n || Partition.size rho <> n
     || Partition.size equiv <> n
  then invalid_arg "Pair.close_merge: size mismatch";
  let by_state = match move with Merge _ -> false | Split _ -> true in
  (match move with
  | Merge { on_pi; c; d } ->
    let classes = Partition.num_classes (if on_pi then pi else rho) in
    if c < 0 || c >= classes || d < 0 || d >= classes then
      invalid_arg "Pair.close_merge: class out of range"
  | Split { s; _ } ->
    if s < 0 || s >= n then invalid_arg "Pair.close_merge: state out of range");
  let np = if by_state then n else Partition.num_classes pi in
  let nr = if by_state then n else Partition.num_classes rho in
  let pi_parent = Array.init np Fun.id and rho_parent = Array.init nr Fun.id in
  (* node -> smallest member state; a union keeps the smaller root, so a
     root's representative is its group's smallest state *)
  let pi_rep = if by_state then [||] else Partition.representatives pi in
  let rho_rep = if by_state then [||] else Partition.representatives rho in
  let node ~on_pi x =
    if by_state then x
    else Partition.class_of (if on_pi then pi else rho) x
  in
  let state ~on_pi r =
    if by_state then r
    else Array.unsafe_get (if on_pi then pi_rep else rho_rep) r
  in
  (* Every task is pushed by a union, and every union removes a node, so
     the queue never holds more than [np + nr] tasks: side bit and the
     first state packed into one int, the second state next to it. *)
  let queue = Array.make (2 * (np + nr)) 0 in
  let tail = ref 0 in
  let dirty = ref 0 in
  let union ~on_pi ~propagate a b =
    let parent = if on_pi then pi_parent else rho_parent in
    let other = if on_pi then rho_parent else pi_parent in
    let ra = uf_find parent a and rb = uf_find parent b in
    if ra <> rb then begin
      incr dirty;
      let lo = min ra rb and hi = max ra rb in
      Array.unsafe_set parent hi lo;
      let sa = state ~on_pi ra and sb = state ~on_pi rb in
      if
        Partition.class_of equiv sa <> Partition.class_of equiv sb
        && uf_find other (node ~on_pi:(not on_pi) sa)
           = uf_find other (node ~on_pi:(not on_pi) sb)
      then raise Witness;
      if propagate then begin
        Array.unsafe_set queue !tail ((sa lsl 1) lor Bool.to_int on_pi);
        Array.unsafe_set queue (!tail + 1) sb;
        tail := !tail + 2
      end
    end
  in
  let seed ~on_pi ~propagate p =
    Partition.iter_coarse_members p (fun r t -> union ~on_pi ~propagate r t)
  in
  match
    (match move with
    | Merge { on_pi; c; d } -> union ~on_pi ~propagate:true c d
    | Split { on_pi; s } ->
      let side' = Partition.split_singleton (if on_pi then pi else rho) s in
      seed ~on_pi ~propagate:true side';
      (* the pi side of a rho-split starts at big_m rho': already a pair
         with rho', so its seed unions force nothing and enqueue
         nothing *)
      if not on_pi then seed ~on_pi:true ~propagate:false (big_m ~next side'));
    let head = ref 0 in
    while !head < !tail do
      let packed = Array.unsafe_get queue !head in
      let sb = Array.unsafe_get queue (!head + 1) in
      head := !head + 2;
      let sa = packed lsr 1 and from_pi = packed land 1 = 1 in
      (* a merge on one side forces the images together on the other:
         (pi, rho) and (rho, pi) must both stay pairs *)
      let na = next.(sa) and nb = next.(sb) in
      let on_pi = not from_pi in
      for i = 0 to k - 1 do
        union ~on_pi ~propagate:true
          (node ~on_pi (Array.unsafe_get na i))
          (node ~on_pi (Array.unsafe_get nb i))
      done
    done
  with
  | exception Witness -> (None, !dirty)
  | () ->
    let pi_root =
      Array.init n (fun t -> uf_find pi_parent (node ~on_pi:true t))
    in
    let rho_root =
      Array.init n (fun t -> uf_find rho_parent (node ~on_pi:false t))
    in
    if not (Partition.meet_subseteq_maps pi_root ~na:np rho_root ~nb:nr equiv)
    then (None, !dirty)
    else if by_state then
      (Some (Partition.of_class_map pi_root, Partition.of_class_map rho_root),
       !dirty)
    else
      ( Some
          ( Partition.coarsen_with pi (uf_find pi_parent),
            Partition.coarsen_with rho (uf_find rho_parent) ),
        !dirty )

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

let basis_size ~next = List.length (basis ~next)

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
   pi refines M rho.  Symmetrically for (pi, M pi).  Coarsening only
   shrinks class counts, so each accepted step is a monotone improvement.
   With [from], every iterate coarsens the closed parent, so the M-images
   are derived from the parent's cached images ([Memo.big_m_from]). *)
let polish ?from memo ~equiv pi rho =
  let next = memo.Memo.next in
  let image_of_rho, image_of_pi =
    match from with
    | None -> (Memo.big_m memo, Memo.big_m memo)
    | Some (base_pi, base_rho) ->
      (Memo.big_m_from memo ~base:base_rho, Memo.big_m_from memo ~base:base_pi)
  in
  let rec go pi rho =
    let pi' = image_of_rho rho in
    if (not (Partition.equal pi' pi)) && admissible ~next ~equiv pi' rho then
      go pi' rho
    else begin
      let rho' = image_of_pi pi in
      if (not (Partition.equal rho' rho)) && admissible ~next ~equiv pi rho'
      then go pi rho'
      else (pi, rho)
    end
  in
  go pi rho

let mm_pairs ~next =
  let n, _ = dims next in
  let base = basis ~next in
  let seen = PTbl.create 64 in
  let queue = Queue.create () in
  let add p =
    if not (PTbl.mem seen p) then begin
      PTbl.replace seen p ();
      Queue.add p queue
    end
  in
  add (Partition.identity n);
  while not (Queue.is_empty queue) do
    let p = Queue.take queue in
    List.iter (fun b -> add (Partition.join p b)) base
  done;
  PTbl.fold (fun p () acc -> (p, big_m ~next p) :: acc) seen []
  |> List.sort (fun (a, _) (b, _) -> Partition.compare a b)
