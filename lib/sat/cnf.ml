(* Tseitin encoders.  See cnf.mli for the conventions. *)

module N = Stc_netlist.Netlist
module Cover = Stc_logic.Cover
module Cube = Stc_logic.Cube

type lit = Solver.lit

let fresh s = Solver.pos (Solver.new_var s)

let fresh_inputs s n = Array.init n (fun _ -> fresh s)

let mk_and s lits =
  match lits with
  | [] -> Solver.true_lit s
  | [ l ] -> l
  | _ ->
    let v = fresh s in
    let nv = Solver.negate v in
    List.iter (fun l -> Solver.add_clause s [ nv; l ]) lits;
    Solver.add_clause s (v :: List.map Solver.negate lits);
    v

let mk_or s lits =
  match lits with
  | [] -> Solver.false_lit s
  | [ l ] -> l
  | _ ->
    let v = fresh s in
    let nv = Solver.negate v in
    List.iter (fun l -> Solver.add_clause s [ Solver.negate l; v ]) lits;
    Solver.add_clause s (nv :: lits);
    v

let mk_xor s a b =
  let v = fresh s in
  let nv = Solver.negate v in
  let na = Solver.negate a and nb = Solver.negate b in
  Solver.add_clause s [ nv; a; b ];
  Solver.add_clause s [ nv; na; nb ];
  Solver.add_clause s [ v; na; b ];
  Solver.add_clause s [ v; a; nb ];
  v

(* sel = 0 -> v = a, sel = 1 -> v = b, plus the redundant
   both-branches clauses for stronger propagation *)
let mk_mux s sel a b =
  let v = fresh s in
  let nv = Solver.negate v in
  let nsel = Solver.negate sel in
  let na = Solver.negate a and nb = Solver.negate b in
  Solver.add_clause s [ sel; na; v ];
  Solver.add_clause s [ sel; a; nv ];
  Solver.add_clause s [ nsel; nb; v ];
  Solver.add_clause s [ nsel; b; nv ];
  Solver.add_clause s [ na; nb; v ];
  Solver.add_clause s [ a; b; nv ];
  v

let add_gate s gate ~read =
  let pins xs = List.mapi read (Array.to_list xs) in
  match gate with
  | N.Input _ -> invalid_arg "Cnf.add_gate: Input gates take a caller literal"
  | N.Const b -> if b then Solver.true_lit s else Solver.false_lit s
  | N.Buf x -> read 0 x
  | N.Not x -> Solver.negate (read 0 x)
  | N.And xs -> mk_and s (pins xs)
  | N.Or xs -> mk_or s (pins xs)
  | N.Xor xs ->
    let acc = ref (read 0 xs.(0)) in
    for k = 1 to Array.length xs - 1 do
      acc := mk_xor s !acc (read k xs.(k))
    done;
    !acc
  | N.Mux { sel; a; b } -> mk_mux s (read 0 sel) (read 1 a) (read 2 b)

let add_netlist s ?fault (net : N.t) ~inputs =
  if Array.length inputs <> Array.length net.N.inputs then
    invalid_arg "Cnf.add_netlist: inputs length mismatch";
  let forced_output, fgate, fpin, fstuck =
    match fault with
    | None -> (-1, -1, -1, false)
    | Some { N.gate; pin = None; stuck_at } -> (gate, -1, -1, stuck_at)
    | Some { N.gate; pin = Some k; stuck_at } -> (-1, gate, k, stuck_at)
  in
  let const b = if b then Solver.true_lit s else Solver.false_lit s in
  let lits = Array.make (N.num_gates net) (-1) in
  let next_input = ref 0 in
  Array.iteri
    (fun idx gate ->
      let v =
        match gate with
        | N.Input _ ->
          let l = inputs.(!next_input) in
          incr next_input;
          if idx = forced_output then const fstuck else l
        | _ when idx = forced_output -> const fstuck
        | _ ->
          add_gate s gate ~read:(fun k x ->
              if idx = fgate && k = fpin then const fstuck else lits.(x))
      in
      lits.(idx) <- v)
    net.N.gates;
  lits

let outputs (net : N.t) lits =
  Array.map (fun (_, g) -> lits.(g)) net.N.outputs

let add_cover s (cover : Cover.t) ~inputs =
  if Array.length inputs <> cover.Cover.num_vars then
    invalid_arg "Cnf.add_cover: inputs length mismatch";
  let cube_lit cube =
    let conj = ref [] in
    for v = cover.Cover.num_vars - 1 downto 0 do
      match Cube.get cube v with
      | Cube.Zero -> conj := Solver.negate inputs.(v) :: !conj
      | Cube.One -> conj := inputs.(v) :: !conj
      | Cube.Dc -> ()
    done;
    mk_and s !conj
  in
  let cube_lits = Array.map cube_lit cover.Cover.cubes in
  Array.init cover.Cover.num_outputs (fun o ->
      let terms = ref [] in
      for i = Array.length cube_lits - 1 downto 0 do
        if Cube.output_bit cover.Cover.cubes.(i) o then
          terms := cube_lits.(i) :: !terms
      done;
      mk_or s !terms)
