(* The original partition kernels, retained verbatim (modulo operating
   on raw class maps instead of interned values) as the executable
   specification {!Partition} is property-tested and benchmarked
   against.  Nothing in the tree should call these on a hot path. *)

module Union_find = Stc_util.Union_find

let canonicalize cls =
  let n = Array.length cls in
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
  out

let num_classes cls =
  Array.fold_left (fun m c -> max m (c + 1)) 0 (canonicalize cls)

let meet a b =
  let n = Array.length a in
  if Array.length b <> n then invalid_arg "Reference.meet: size mismatch";
  let table = Hashtbl.create 16 in
  let cls = Array.make n 0 in
  for s = 0 to n - 1 do
    let key = (a.(s), b.(s)) in
    cls.(s) <-
      (match Hashtbl.find_opt table key with
      | Some id -> id
      | None ->
        let id = Hashtbl.length table in
        Hashtbl.replace table key id;
        id)
  done;
  cls

let join a b =
  let n = Array.length a in
  if Array.length b <> n then invalid_arg "Reference.join: size mismatch";
  let a = canonicalize a and b = canonicalize b in
  let uf = Union_find.create n in
  let first_a = Array.make n (-1) and first_b = Array.make n (-1) in
  for s = 0 to n - 1 do
    let ca = a.(s) and cb = b.(s) in
    if first_a.(ca) < 0 then first_a.(ca) <- s
    else ignore (Union_find.union uf first_a.(ca) s);
    if first_b.(cb) < 0 then first_b.(cb) <- s
    else ignore (Union_find.union uf first_b.(cb) s)
  done;
  canonicalize (Union_find.class_map uf)

let subseteq a b =
  let n = Array.length a in
  Array.length b = n
  && begin
    let a = canonicalize a in
    let image = Array.make n (-1) in
    let ok = ref true in
    let s = ref 0 in
    while !ok && !s < n do
      let ca = a.(!s) and cb = b.(!s) in
      if image.(ca) < 0 then image.(ca) <- cb
      else if image.(ca) <> cb then ok := false;
      incr s
    done;
    !ok
  end

let hash_class_map n cls =
  let h = ref (0x811c9dc5 + n) in
  for i = 0 to Array.length cls - 1 do
    h := ((!h lxor cls.(i)) * 0x01000193) land max_int
  done;
  !h
