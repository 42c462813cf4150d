module Cube = Stc_logic.Cube
module Cover = Stc_logic.Cover

type gate =
  | Input of string
  | Const of bool
  | Buf of int
  | Not of int
  | And of int array
  | Or of int array
  | Xor of int array
  | Mux of { sel : int; a : int; b : int }

type t = {
  name : string;
  gates : gate array;
  inputs : int array;
  outputs : (string * int) array;
  uid : int;
}

(* Every finished netlist gets a process-unique id: it keys the collapse
   cache below (physical identity, not structure). *)
let next_uid = Atomic.make 0

let word_bits = 62

type fault = { gate : int; pin : int option; stuck_at : bool }

module Builder = struct
  type netlist = t

  type t = {
    name : string;
    mutable gates : gate array;
    mutable count : int;
    mutable input_ids : int list;
    mutable output_list : (string * int) list;
  }

  let create name =
    { name; gates = Array.make 64 (Const false); count = 0;
      input_ids = []; output_list = [] }

  let check b idx what =
    if idx < 0 || idx >= b.count then
      invalid_arg (Printf.sprintf "Netlist.Builder: %s refers to gate %d, have %d"
                     what idx b.count)

  let push b gate =
    if b.count = Array.length b.gates then begin
      let bigger = Array.make (2 * b.count) (Const false) in
      Array.blit b.gates 0 bigger 0 b.count;
      b.gates <- bigger
    end;
    b.gates.(b.count) <- gate;
    b.count <- b.count + 1;
    b.count - 1

  let input b name =
    let idx = push b (Input name) in
    b.input_ids <- idx :: b.input_ids;
    idx

  let const b v = push b (Const v)

  let buf b x =
    check b x "Buf";
    push b (Buf x)

  let not_ b x =
    check b x "Not";
    push b (Not x)

  let gate_of_list b what of_array = function
    | [] -> invalid_arg (Printf.sprintf "Netlist.Builder: empty %s" what)
    | [ x ] ->
      check b x what;
      push b (Buf x)
    | xs ->
      List.iter (fun x -> check b x what) xs;
      push b (of_array (Array.of_list xs))

  let and_ b xs = gate_of_list b "And" (fun a -> And a) xs

  let or_ b xs = gate_of_list b "Or" (fun a -> Or a) xs

  let xor_ b xs = gate_of_list b "Xor" (fun a -> Xor a) xs

  let mux b ~sel ~a ~b:b' =
    check b sel "Mux.sel";
    check b a "Mux.a";
    check b b' "Mux.b";
    push b (Mux { sel; a; b = b' })

  let output b name gate =
    check b gate "output";
    b.output_list <- (name, gate) :: b.output_list

  let emit_cover b ~inputs (cover : Cover.t) =
    if Array.length inputs <> cover.Cover.num_vars then
      invalid_arg "Netlist.Builder.emit_cover: input count mismatch";
    (* Shared input inverters, created on demand. *)
    let inverted = Array.make cover.Cover.num_vars (-1) in
    let inv k =
      if inverted.(k) < 0 then inverted.(k) <- not_ b inputs.(k);
      inverted.(k)
    in
    let term_of_cube cube =
      let literals = ref [] in
      for k = 0 to cover.Cover.num_vars - 1 do
        match Cube.get cube k with
        | Cube.One -> literals := inputs.(k) :: !literals
        | Cube.Zero -> literals := inv k :: !literals
        | Cube.Dc -> ()
      done;
      match !literals with
      | [] -> const b true
      | ls -> and_ b (List.rev ls)
    in
    let terms =
      Array.to_list
        (Array.map (fun cube -> (cube, term_of_cube cube)) cover.Cover.cubes)
    in
    Array.init cover.Cover.num_outputs (fun o ->
        let fanin =
          List.filter_map
            (fun (cube, term) ->
              if Cube.output_bit cube o then Some term else None)
            terms
        in
        match fanin with [] -> const b false | ls -> or_ b ls)

  let finish b : netlist =
    {
      name = b.name;
      gates = Array.sub b.gates 0 b.count;
      inputs = Array.of_list (List.rev b.input_ids);
      outputs = Array.of_list (List.rev b.output_list);
      uid = Atomic.fetch_and_add next_uid 1;
    }
end

let num_gates (net : t) = Array.length net.gates

let operands = function
  | Input _ | Const _ -> [||]
  | Buf x | Not x -> [| x |]
  | And xs | Or xs | Xor xs -> xs
  | Mux { sel; a; b } -> [| sel; a; b |]

type stats = { gates : int; literals : int; depth : int; inverters : int }

let stats (net : t) =
  let gates = ref 0 and literals = ref 0 and inverters = ref 0 in
  let level = Array.make (num_gates net) 0 in
  let depth = ref 0 in
  Array.iteri
    (fun idx gate ->
      let operands = operands gate in
      (match gate with
      | Input _ | Const _ -> ()
      | Not _ ->
        incr gates;
        incr inverters
      | Buf _ -> incr gates
      | And xs | Or xs | Xor xs ->
        incr gates;
        literals := !literals + Array.length xs
      | Mux _ ->
        incr gates;
        literals := !literals + 3);
      let lvl =
        Array.fold_left (fun acc x -> max acc (level.(x) + 1)) 0 operands
      in
      level.(idx) <- lvl;
      if lvl > !depth then depth := lvl)
    net.gates;
  { gates = !gates; literals = !literals; depth = !depth; inverters = !inverters }

let all_ones = -1

(* Plain loops, no closures: this is the inner loop of every golden
   evaluation. *)
let eval_gate values idx gate =
  match gate with
  | Input _ -> Array.unsafe_get values idx
  | Const true -> all_ones
  | Const false -> 0
  | Buf x -> values.(x)
  | Not x -> lnot values.(x)
  | And xs ->
    let acc = ref all_ones in
    for k = 0 to Array.length xs - 1 do
      acc := !acc land values.(Array.unsafe_get xs k)
    done;
    !acc
  | Or xs ->
    let acc = ref 0 in
    for k = 0 to Array.length xs - 1 do
      acc := !acc lor values.(Array.unsafe_get xs k)
    done;
    !acc
  | Xor xs ->
    let acc = ref 0 in
    for k = 0 to Array.length xs - 1 do
      acc := !acc lxor values.(Array.unsafe_get xs k)
    done;
    !acc
  | Mux { sel; a; b } ->
    let s = values.(sel) in
    (lnot s land values.(a)) lor (s land values.(b))

(* The word of gate [idx] when its operand pin [pin] is stuck at the
   word [stuck]. *)
let eval_pin_fault values idx gate pin stuck =
  let read k x = if k = pin then stuck else values.(x) in
  match gate with
  | Input _ | Const _ -> eval_gate values idx gate
  | Buf x -> read 0 x
  | Not x -> lnot (read 0 x)
  | And xs ->
    let acc = ref all_ones in
    Array.iteri (fun k x -> acc := !acc land read k x) xs;
    !acc
  | Or xs ->
    let acc = ref 0 in
    Array.iteri (fun k x -> acc := !acc lor read k x) xs;
    !acc
  | Xor xs ->
    let acc = ref 0 in
    Array.iteri (fun k x -> acc := !acc lxor read k x) xs;
    !acc
  | Mux { sel; a; b } ->
    let s = read 0 sel in
    (lnot s land read 1 a) lor (s land read 2 b)

let eval_into ?fault (net : t) ~values ~inputs =
  if Array.length inputs <> Array.length net.inputs then
    invalid_arg "Netlist.eval: input count mismatch";
  if Array.length values <> num_gates net then
    invalid_arg "Netlist.eval_into: values buffer size mismatch";
  Array.iteri (fun k g -> values.(g) <- inputs.(k)) net.inputs;
  let gates = net.gates in
  match fault with
  | None ->
    for idx = 0 to Array.length gates - 1 do
      values.(idx) <- eval_gate values idx (Array.unsafe_get gates idx)
    done
  | Some { gate = fgate; pin; stuck_at } ->
    let stuck = if stuck_at then all_ones else 0 in
    for idx = 0 to Array.length gates - 1 do
      let gate = Array.unsafe_get gates idx in
      values.(idx) <-
        (if idx <> fgate then eval_gate values idx gate
         else
           match pin with
           | None -> stuck
           | Some k -> eval_pin_fault values idx gate k stuck)
    done

let eval ?fault (net : t) ~inputs =
  let values = Array.make (num_gates net) 0 in
  eval_into ?fault net ~values ~inputs;
  values

let eval_outputs ?fault (net : t) ~inputs =
  let values = eval ?fault net ~inputs in
  Array.map (fun (_, g) -> values.(g)) net.outputs

let fault_sites (net : t) =
  let sites = ref [] in
  let add gate pin =
    sites :=
      { gate; pin; stuck_at = true } :: { gate; pin; stuck_at = false } :: !sites
  in
  Array.iteri
    (fun idx gate ->
      match gate with
      | Const _ -> ()
      | Input _ -> add idx None
      | Buf _ | Not _ ->
        (* The input pin fault is equivalent to the driver's output fault
           (possibly inverted), which is already in the list. *)
        add idx None
      | And xs | Or xs | Xor xs ->
        add idx None;
        Array.iteri (fun k _ -> add idx (Some k)) xs
      | Mux _ ->
        add idx None;
        for k = 0 to 2 do
          add idx (Some k)
        done)
    net.gates;
  List.rev !sites

(* ------------------------------------------------------------------ *)
(* Structural analyses for the fault-simulation engine                  *)
(* ------------------------------------------------------------------ *)

let readers (net : t) =
  let n = num_gates net in
  let counts = Array.make n 0 in
  Array.iter
    (fun g -> Array.iter (fun x -> counts.(x) <- counts.(x) + 1) (operands g))
    net.gates;
  let out = Array.init n (fun x -> Array.make counts.(x) (0, 0)) in
  let fill = Array.make n 0 in
  Array.iteri
    (fun idx g ->
      Array.iteri
        (fun pin x ->
          out.(x).(fill.(x)) <- (idx, pin);
          fill.(x) <- fill.(x) + 1)
        (operands g))
    net.gates;
  out

let cone ?readers:rd ?seen (net : t) g =
  let rd = match rd with Some r -> r | None -> readers net in
  let n = num_gates net in
  if g < 0 || g >= n then invalid_arg "Netlist.cone: gate out of range";
  let module S = Stc_bits.Arena.Stamped in
  let seen =
    match seen with
    | Some s ->
      S.ensure s n;
      s
    | None -> S.create n
  in
  ignore (S.bump seen);
  let visited = ref [ g ] and stack = ref [ g ] in
  S.set seen g 0;
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | x :: rest ->
      stack := rest;
      Array.iter
        (fun (r, _) ->
          if not (S.mem seen r) then begin
            S.set seen r 0;
            visited := r :: !visited;
            stack := r :: !stack
          end)
        rd.(x)
  done;
  (* Ascending index order: gate indices are topological, so the cone
     can be replayed with a single left-to-right pass. *)
  let cone = Array.of_list !visited in
  Array.sort Int.compare cone;
  cone

(* Operands always precede their reader, so one descending sweep closes
   the root set under fanin. *)
let fanin_cone (net : t) roots =
  let seen = Array.make (num_gates net) false in
  List.iter (fun g -> seen.(g) <- true) roots;
  for idx = num_gates net - 1 downto 0 do
    if seen.(idx) then
      Array.iter (fun x -> seen.(x) <- true) (operands net.gates.(idx))
  done;
  seen

type collapsed = {
  faults : fault array;
  class_of : int array;
  classes : int array array;
  representatives : int array;
  dominated_by : int array array;
}

let collapse_uncached ?protected (net : t) =
  let faults = Array.of_list (fault_sites net) in
  let nf = Array.length faults in
  let n = num_gates net in
  (* [fault_sites] lists each gate's faults contiguously, gates in
     ascending order: output s-a-0, s-a-1, then s-a-0, s-a-1 of each
     pin.  [first.(g)] is the index of gate [g]'s first fault. *)
  let first = Array.make (n + 1) 0 in
  Array.iter (fun f -> first.(f.gate + 1) <- first.(f.gate + 1) + 1) faults;
  for g = 1 to n do
    first.(g) <- first.(g) + first.(g - 1)
  done;
  let fidx gate pin stuck_at =
    let slot = match pin with None -> 0 | Some p -> 2 + (2 * p) in
    let k = slot + Bool.to_int stuck_at in
    if k < first.(gate + 1) - first.(gate) then Some (first.(gate) + k)
    else None
  in
  let prot = Array.make n false in
  (match protected with
  | Some ps -> Array.iter (fun g -> prot.(g) <- true) ps
  | None -> Array.iter (fun (_, g) -> prot.(g) <- true) net.outputs);
  let rd = readers net in
  let uf = Stc_util.Union_find.create nf in
  let union_f a b =
    match (a, b) with
    | Some i, Some j -> ignore (Stc_util.Union_find.union uf i j)
    | _ -> ()
  in
  Array.iteri
    (fun g gate ->
      (match gate with
      | And xs ->
        (* Any input stuck at the controlling value forces the output to
           the controlled value: pin s-a-0 == output s-a-0. *)
        Array.iteri
          (fun k _ -> union_f (fidx g (Some k) false) (fidx g None false))
          xs
      | Or xs ->
        Array.iteri
          (fun k _ -> union_f (fidx g (Some k) true) (fidx g None true))
          xs
      | Buf x ->
        (* A Buf/Not chain is transparent: its output fault equals the
           driver's output fault (inverted through a Not) - but only when
           the driver feeds nothing else and is never observed directly. *)
        if Array.length rd.(x) = 1 && not prot.(x) then begin
          union_f (fidx g None false) (fidx x None false);
          union_f (fidx g None true) (fidx x None true)
        end
      | Not x ->
        if Array.length rd.(x) = 1 && not prot.(x) then begin
          union_f (fidx g None false) (fidx x None true);
          union_f (fidx g None true) (fidx x None false)
        end
      | Input _ | Const _ | Xor _ | Mux _ -> ());
      (* Fanout-free stem: a gate read exactly once, and never observed,
         has its output faults indistinguishable from the reader's
         input-pin faults. *)
      if (not prot.(g)) && Array.length rd.(g) = 1 then begin
        let r, pin = rd.(g).(0) in
        match net.gates.(r) with
        | And _ | Or _ | Xor _ | Mux _ ->
          union_f (fidx g None false) (fidx r (Some pin) false);
          union_f (fidx g None true) (fidx r (Some pin) true)
        | Input _ | Const _ | Buf _ | Not _ -> ()
      end)
    net.gates;
  let class_of = Stc_util.Union_find.class_map uf in
  let num_classes = Stc_util.Union_find.count uf in
  let sizes = Array.make num_classes 0 in
  Array.iter (fun c -> sizes.(c) <- sizes.(c) + 1) class_of;
  let classes = Array.init num_classes (fun c -> Array.make sizes.(c) 0) in
  let fill = Array.make num_classes 0 in
  Array.iteri
    (fun i c ->
      classes.(c).(fill.(c)) <- i;
      fill.(c) <- fill.(c) + 1)
    class_of;
  let representatives = Array.map (fun members -> members.(0)) classes in
  (* Dominance: a test that detects an And input s-a-1 (resp. Or input
     s-a-0) sets that pin to the sole non-controlling value and propagates
     the flipped output, so it also detects the output s-a-1 (resp.
     s-a-0).  Detection of any dominated class therefore implies detection
     of the dominator class - the grader may skip simulating it. *)
  let dom = Array.make num_classes [] in
  let add_dominance out_fault pin_faults =
    match out_fault with
    | None -> ()
    | Some oi ->
      let d = class_of.(oi) in
      List.iter
        (fun pf ->
          match pf with
          | Some pi when class_of.(pi) <> d ->
            dom.(d) <- class_of.(pi) :: dom.(d)
          | _ -> ())
        pin_faults
  in
  Array.iteri
    (fun g gate ->
      match gate with
      | And xs ->
        add_dominance (fidx g None true)
          (List.init (Array.length xs) (fun k -> fidx g (Some k) true))
      | Or xs ->
        add_dominance (fidx g None false)
          (List.init (Array.length xs) (fun k -> fidx g (Some k) false))
      | Input _ | Const _ | Buf _ | Not _ | Xor _ | Mux _ -> ())
    net.gates;
  let dominated_by =
    Array.map (fun ds -> Array.of_list (List.sort_uniq Int.compare ds)) dom
  in
  { faults; class_of; classes; representatives; dominated_by }

(* Collapsing is pure in (netlist identity, protected set) and costs a
   union-find pass over the whole fault universe, yet the fault-test
   session planner and the aliasing analyzer used to recompute it for
   every session.  A small shared cache keyed by the netlist [uid] and
   the normalized protected set memoizes it; entries are immutable after
   construction, so sharing one [collapsed] across domains is safe.  The
   cache is bounded: when it would exceed [collapse_cache_cap] keys it
   is reset wholesale (netlists are short-lived in tests; a dropped
   entry only costs a recompute). *)
let collapse_cache : (int * int list, collapsed) Hashtbl.t = Hashtbl.create 32

let collapse_mutex = Mutex.create ()

let collapse_cache_cap = 64

let collapse ?protected (net : t) =
  let key =
    let prot =
      match protected with
      | Some ps -> Array.to_list ps
      | None -> Array.to_list (Array.map snd net.outputs)
    in
    (net.uid, List.sort_uniq compare prot)
  in
  Mutex.lock collapse_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock collapse_mutex)
    (fun () ->
      match Hashtbl.find_opt collapse_cache key with
      | Some c -> c
      | None ->
        let c = collapse_uncached ?protected net in
        if Hashtbl.length collapse_cache >= collapse_cache_cap then
          Hashtbl.reset collapse_cache;
        Hashtbl.add collapse_cache key c;
        c)

let pp ppf (net : t) =
  let open Format in
  fprintf ppf "@[<v>netlist %s: %d gates, %d inputs, %d outputs@," net.name
    (num_gates net) (Array.length net.inputs) (Array.length net.outputs);
  Array.iteri
    (fun idx gate ->
      let show =
        match gate with
        | Input n -> Printf.sprintf "input %s" n
        | Const v -> Printf.sprintf "const %b" v
        | Buf x -> Printf.sprintf "buf g%d" x
        | Not x -> Printf.sprintf "not g%d" x
        | And xs ->
          "and "
          ^ String.concat " " (Array.to_list (Array.map (Printf.sprintf "g%d") xs))
        | Or xs ->
          "or "
          ^ String.concat " " (Array.to_list (Array.map (Printf.sprintf "g%d") xs))
        | Xor xs ->
          "xor "
          ^ String.concat " " (Array.to_list (Array.map (Printf.sprintf "g%d") xs))
        | Mux { sel; a; b } -> Printf.sprintf "mux sel=g%d a=g%d b=g%d" sel a b
      in
      fprintf ppf "g%d: %s@," idx show)
    net.gates;
  Array.iter (fun (name, g) -> fprintf ppf "output %s = g%d@," name g) net.outputs;
  fprintf ppf "@]"
