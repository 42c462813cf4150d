module N = Stc_netlist.Netlist
module D = Diagnostic

(* ------------------------------------------------------------------ *)
(* Tarjan SCC (recursive; netlist graphs are shallow two-level cones)  *)
(* ------------------------------------------------------------------ *)

let sccs ~n ~succ =
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let counter = ref 0 in
  let components = ref [] in
  let rec strongconnect v =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) < 0 then begin
          strongconnect w;
          lowlink.(v) <- min lowlink.(v) lowlink.(w)
        end
        else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
      (succ v);
    if lowlink.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          if w = v then w :: acc else pop (w :: acc)
        | [] -> acc
      in
      components := List.sort Int.compare (pop []) :: !components
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then strongconnect v
  done;
  List.rev !components

let cyclic_sccs ~n ~succ =
  List.filter
    (fun comp ->
      match comp with
      | [ v ] -> List.mem v (succ v)
      | _ :: _ :: _ -> true
      | [] -> false)
    (sccs ~n ~succ)

(* ------------------------------------------------------------------ *)
(* Register recovery from the Arch naming convention                   *)
(* ------------------------------------------------------------------ *)

type reg = { reg_name : string; inputs : int list; next : int list }

let is_digits s =
  s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s

let after prefix s =
  let lp = String.length prefix in
  if String.length s > lp && String.sub s 0 lp = prefix then
    Some (String.sub s lp (String.length s - lp))
  else None

let classify_input name =
  let tail p = Option.map is_digits (after p name) = Some true in
  if tail "r1_" then Some "R1"
  else if tail "r2_" then Some "R2"
  else if tail "ra" then Some "RA"
  else if tail "rb" then Some "RB"
  else if tail "r" then Some "R"
  else if tail "t" then Some "T"
  else None

let classify_output name =
  let tail p = Option.map is_digits (after p name) = Some true in
  if tail "r1n" then Some "R1"
  else if tail "r2n" then Some "R2"
  else if tail "nsa" then Some "RB"  (* C_a's next-state lines load RB *)
  else if tail "nsb" then Some "RA"
  else if tail "ns" then Some "R"
  else None

let registers (net : N.t) =
  let add tbl key v =
    Hashtbl.replace tbl key (v :: Option.value ~default:[] (Hashtbl.find_opt tbl key))
  in
  let ins = Hashtbl.create 4 and nexts = Hashtbl.create 4 in
  Array.iter
    (fun g ->
      match net.N.gates.(g) with
      | N.Input name -> (
        match classify_input name with
        | Some reg -> add ins reg g
        | None -> ())
      | _ -> ())
    net.N.inputs;
  Array.iter
    (fun (name, g) ->
      match classify_output name with
      | Some reg -> add nexts reg g
      | None -> ())
    net.N.outputs;
  Hashtbl.fold
    (fun reg_name gates acc ->
      let next =
        List.rev (Option.value ~default:[] (Hashtbl.find_opt nexts reg_name))
      in
      { reg_name; inputs = List.rev gates; next } :: acc)
    ins []
  |> List.sort (fun a b -> String.compare a.reg_name b.reg_name)

let feeds net regs =
  List.filter_map
    (fun r ->
      if r.next = [] then None
      else begin
        let cone = N.fanin_cone net r.next in
        let deps =
          List.filter_map
            (fun other ->
              if List.exists (fun g -> cone.(g)) other.inputs then
                Some other.reg_name
              else None)
            regs
        in
        let reg_inputs =
          List.concat_map (fun r -> r.inputs) regs
        in
        let primary =
          Array.exists
            (fun g -> cone.(g) && not (List.mem g reg_inputs))
            net.N.inputs
        in
        let deps = if primary then deps @ [ "primary" ] else deps in
        Some (r.reg_name, deps)
      end)
    regs

(* ------------------------------------------------------------------ *)
(* Pipeline-property prover                                            *)
(* ------------------------------------------------------------------ *)

let prove_pipeline ~subject ~required (net : N.t) =
  let regs = registers net in
  let feedback =
    List.filter
      (fun r ->
        r.next <> []
        &&
        let cone = N.fanin_cone net r.next in
        List.exists (fun g -> cone.(g)) r.inputs)
      regs
  in
  let diags =
    List.map
      (fun r ->
        let message =
          Printf.sprintf
            "combinational path from register %s back into its own \
             next-state logic (R->C->R feedback; the structure is not \
             the feedback-free fig. 4 pipeline)"
            r.reg_name
        in
        if required then
          D.error ~code:"NET010" ~subject
            ~loc:(Printf.sprintf "register %s" r.reg_name)
            message
        else
          D.info ~code:"NET010" ~subject
            ~loc:(Printf.sprintf "register %s" r.reg_name)
            message)
      feedback
  in
  if required && feedback = [] then
    let ring =
      feeds net regs
      |> List.map (fun (name, deps) ->
             Printf.sprintf "%s <- {%s}" name (String.concat ", " deps))
      |> String.concat "; "
    in
    D.info ~code:"NET011" ~subject ~loc:"registers"
      (Printf.sprintf
         "pipeline property certified: no register feeds its own \
          next-state logic (%s)"
         (if ring = "" then "no registers recognized" else ring))
    :: diags
  else diags

(* ------------------------------------------------------------------ *)
(* Structural graph checks                                             *)
(* ------------------------------------------------------------------ *)

let structure ~subject (net : N.t) =
  let n = N.num_gates net in
  let succ v = Array.to_list (N.operands net.N.gates.(v)) in
  let diags = ref [] in
  List.iter
    (fun comp ->
      let show = List.filteri (fun i _ -> i < 8) comp in
      diags :=
        D.error ~code:"NET001" ~subject
          ~loc:
            (Printf.sprintf "gates {%s%s}"
               (String.concat ", " (List.map string_of_int show))
               (if List.length comp > 8 then ", ..." else ""))
          (Printf.sprintf "combinational cycle through %d gates"
             (List.length comp))
        :: !diags)
    (cyclic_sccs ~n ~succ);
  let seen_outputs = Hashtbl.create 16 in
  Array.iter
    (fun (name, _) ->
      if Hashtbl.mem seen_outputs name then
        diags :=
          D.error ~code:"NET003" ~subject
            ~loc:(Printf.sprintf "output %s" name)
            "primary output declared more than once (multiply-driven net)"
          :: !diags
      else Hashtbl.add seen_outputs name ())
    net.N.outputs;
  let cone =
    N.fanin_cone net (Array.to_list (Array.map snd net.N.outputs))
  in
  Array.iteri
    (fun g gate ->
      if not cone.(g) then
        match gate with
        | N.Input name ->
          diags :=
            D.info ~code:"NET004" ~subject
              ~loc:(Printf.sprintf "input %s" name)
              "no primary output depends on this input"
            :: !diags
        | N.Const _ -> ()
        | _ ->
          diags :=
            D.warning ~code:"NET002" ~subject
              ~loc:(Printf.sprintf "gate %d" g)
              "floating: outside every primary-output cone (dead logic)"
            :: !diags)
    net.N.gates;
  !diags

let pass =
  {
    Pass.name = "net-graph";
    doc =
      "signal dependency graph: combinational cycles, floating gates, \
       multiply-driven outputs, dead inputs, and the fig. 4 \
       pipeline-property prover (NET001-NET004, NET010/NET011)";
    run =
      (fun ctx ->
        List.concat_map
          (fun { Context.net_label; netlist; feedback_free; _ } ->
            let subject = Context.subject ctx net_label in
            structure ~subject netlist
            @ prove_pipeline ~subject ~required:feedback_free netlist)
          ctx.Context.netlists);
  }
