(* Packed positional-cube representation.  Each input variable takes two
   bits in a word (01 = Zero, 10 = One, 11 = Dc, 00 = empty/conflict);
   31 variables fit in one 63-bit OCaml int (bits 0..61).  The output part
   is a plain bitset, 62 outputs per word.  Pairs beyond [num_vars] are
   stored as 11 and output bits beyond [num_outputs] as 0, so word-wise
   operations never need end-of-array masking. *)

type trit = Zero | One | Dc

type t = {
  nv : int;
  no : int;
  inw : int array;  (* positional pairs, LSB-first: var k at bits 2k..2k+1 *)
  outw : int array;  (* output bitset, LSB-first *)
}

let vars_per_word = 31

let outs_per_word = 62

(* 01 repeated [vars_per_word] times (bits 0,2,..,60).  Written as a fold
   because the literal would not fit OCaml's 63-bit int syntax. *)
let mask01 =
  let rec go acc i = if i = 0 then acc else go ((acc lsl 2) lor 1) (i - 1) in
  go 0 vars_per_word

let mask11 = mask01 lor (mask01 lsl 1)

let in_words nv = (nv + vars_per_word - 1) / vars_per_word

let out_words no = (no + outs_per_word - 1) / outs_per_word

let popcount = Stc_bits.Word.popcount

(* Some pair of [v] is 00 (an empty variable after an AND). *)
let words_conflict v = (v lor (v lsr 1)) land mask01 <> mask01

let pack_input input =
  let nv = Array.length input in
  let w = Array.make (in_words nv) mask11 in
  Array.iteri
    (fun k t ->
      let wi = k / vars_per_word and p = 2 * (k mod vars_per_word) in
      let code = match t with Zero -> 1 | One -> 2 | Dc -> 3 in
      w.(wi) <- w.(wi) land lnot (3 lsl p) lor (code lsl p))
    input;
  w

let pack_output output =
  let no = Array.length output in
  let w = Array.make (out_words no) 0 in
  Array.iteri
    (fun o b ->
      if b then
        let wi = o / outs_per_word and p = o mod outs_per_word in
        w.(wi) <- w.(wi) lor (1 lsl p))
    output;
  w

let make ~input ~output =
  if Array.length output = 0 then invalid_arg "Cube.make: no outputs";
  if not (Array.exists Fun.id output) then
    invalid_arg "Cube.make: output part is empty";
  { nv = Array.length input;
    no = Array.length output;
    inw = pack_input input;
    outw = pack_output output }

let num_vars c = c.nv

let num_outputs c = c.no

let get c k =
  let w = c.inw.(k / vars_per_word) in
  match (w lsr (2 * (k mod vars_per_word))) land 3 with
  | 1 -> Zero
  | 2 -> One
  | _ -> Dc

let output_bit c o =
  c.outw.(o / outs_per_word) land (1 lsl (o mod outs_per_word)) <> 0

let input c = Array.init c.nv (get c)

let output c = Array.init c.no (output_bit c)

let of_string s =
  match String.split_on_char ' ' (String.trim s) with
  | [ inp; out ] ->
    let input =
      Array.init (String.length inp) (fun k ->
          match inp.[k] with
          | '0' -> Zero
          | '1' -> One
          | '-' | '2' -> Dc
          | c -> invalid_arg (Printf.sprintf "Cube.of_string: input char %C" c))
    in
    let output =
      Array.init (String.length out) (fun k ->
          match out.[k] with
          | '1' | '4' -> true
          | '0' | '~' | '-' -> false
          | c -> invalid_arg (Printf.sprintf "Cube.of_string: output char %C" c))
    in
    make ~input ~output
  | _ -> invalid_arg "Cube.of_string: expected \"<inputs> <outputs>\""

let to_string c =
  let inp =
    String.init c.nv (fun k ->
        match get c k with Zero -> '0' | One -> '1' | Dc -> '-')
  in
  let out = String.init c.no (fun o -> if output_bit c o then '1' else '0') in
  inp ^ " " ^ out

let ones n = if n >= 62 then max_int else (1 lsl n) - 1

let full ~num_vars ~num_outputs =
  let ow = out_words num_outputs in
  let outw = Array.make ow 0 in
  if ow > 0 then begin
    for i = 0 to ow - 2 do
      outw.(i) <- ones outs_per_word
    done;
    outw.(ow - 1) <- ones (num_outputs - ((ow - 1) * outs_per_word))
  end;
  { nv = num_vars;
    no = num_outputs;
    inw = Array.make (in_words num_vars) mask11;
    outw }

let minterm ~num_vars ~num_outputs value =
  let c = full ~num_vars ~num_outputs in
  let inw = Array.copy c.inw in
  for k = 0 to num_vars - 1 do
    let wi = k / vars_per_word and p = 2 * (k mod vars_per_word) in
    let code = if value land (1 lsl (num_vars - 1 - k)) <> 0 then 2 else 1 in
    inw.(wi) <- inw.(wi) land lnot (3 lsl p) lor (code lsl p)
  done;
  { c with inw }

let matches c v =
  let n = c.nv in
  let ok = ref true in
  let k = ref 0 in
  while !ok && !k < n do
    let w = Array.unsafe_get c.inw (!k / vars_per_word) in
    let pair = (w lsr (2 * (!k mod vars_per_word))) land 3 in
    let need = if v land (1 lsl (n - 1 - !k)) <> 0 then 2 else 1 in
    if pair land need = 0 then ok := false;
    incr k
  done;
  !ok

let literals c =
  let n = ref 0 in
  for i = 0 to Array.length c.inw - 1 do
    let w = Array.unsafe_get c.inw i in
    (* pairs 01 and 10 have xor-of-bits 1, pairs 11 (and 00) have 0 *)
    n := !n + popcount ((w lxor (w lsr 1)) land mask01)
  done;
  !n

let input_size c = Float.pow 2.0 (float_of_int (c.nv - literals c))

let input_contains a b =
  let ok = ref true in
  for i = 0 to Array.length a.inw - 1 do
    let bw = Array.unsafe_get b.inw i in
    if bw land Array.unsafe_get a.inw i <> bw then ok := false
  done;
  !ok

let output_contains a b =
  let ok = ref true in
  for i = 0 to Array.length a.outw - 1 do
    let bw = Array.unsafe_get b.outw i in
    if bw land Array.unsafe_get a.outw i <> bw then ok := false
  done;
  !ok

let contains a b =
  a.nv = b.nv && a.no = b.no && input_contains a b && output_contains a b

let output_overlap a b =
  let overlap = ref false in
  for i = 0 to Array.length a.outw - 1 do
    if Array.unsafe_get a.outw i land Array.unsafe_get b.outw i <> 0 then
      overlap := true
  done;
  !overlap

let intersect a b =
  let nw = Array.length a.inw in
  let inw = Array.make nw 0 in
  let ok = ref true in
  for i = 0 to nw - 1 do
    let v = Array.unsafe_get a.inw i land Array.unsafe_get b.inw i in
    if words_conflict v then ok := false;
    Array.unsafe_set inw i v
  done;
  let ow = Array.length a.outw in
  let outw = Array.make ow 0 in
  let any = ref false in
  for i = 0 to ow - 1 do
    let v = Array.unsafe_get a.outw i land Array.unsafe_get b.outw i in
    if v <> 0 then any := true;
    Array.unsafe_set outw i v
  done;
  if !ok && !any then Some { a with inw; outw } else None

let distance a b =
  let d = ref 0 in
  for i = 0 to Array.length a.inw - 1 do
    let v = Array.unsafe_get a.inw i land Array.unsafe_get b.inw i in
    d := !d + popcount (lnot (v lor (v lsr 1)) land mask01)
  done;
  !d

let supercube a b =
  { a with
    inw = Array.map2 ( lor ) a.inw b.inw;
    outw = Array.map2 ( lor ) a.outw b.outw }

let consensus a b =
  if distance a b <> 1 then None
  else begin
    let nw = Array.length a.inw in
    let inw = Array.make nw 0 in
    for i = 0 to nw - 1 do
      let v = Array.unsafe_get a.inw i land Array.unsafe_get b.inw i in
      let e01 = lnot (v lor (v lsr 1)) land mask01 in
      Array.unsafe_set inw i (v lor e01 lor (e01 lsl 1))
    done;
    let ow = Array.length a.outw in
    let outw = Array.make ow 0 in
    let any = ref false in
    for i = 0 to ow - 1 do
      let v = Array.unsafe_get a.outw i land Array.unsafe_get b.outw i in
      if v <> 0 then any := true;
      Array.unsafe_set outw i v
    done;
    if !any then Some { a with inw; outw } else None
  end

let dc_count c = c.nv - literals c

let output_count c =
  let n = ref 0 in
  for i = 0 to Array.length c.outw - 1 do
    n := !n + popcount (Array.unsafe_get c.outw i)
  done;
  !n

let equal a b = a.nv = b.nv && a.no = b.no && a.inw = b.inw && a.outw = b.outw

let compare a b =
  Stdlib.compare (a.nv, a.no, a.inw, a.outw) (b.nv, b.no, b.inw, b.outw)

module Raw = struct
  let vars_per_word = vars_per_word

  let outs_per_word = outs_per_word

  let mask01 = mask01

  let mask11 = mask11

  let popcount = popcount

  let words_conflict = words_conflict

  let in_words = in_words

  let out_words = out_words

  let pair row k = (row.(k / vars_per_word) lsr (2 * (k mod vars_per_word))) land 3

  let input_words c = c.inw

  let output_words c = c.outw

  let make_packed ~num_vars ~num_outputs inw outw =
    { nv = num_vars; no = num_outputs; inw; outw }
end
