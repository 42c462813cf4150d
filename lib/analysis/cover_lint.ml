module Cover = Stc_logic.Cover
module Cube = Stc_logic.Cube
module Minimize = Stc_logic.Minimize
module D = Diagnostic

(* One diagnostic per cube that the checker finds failing. *)
let check_block ~subject ~on ~dc result =
  Minimize.check ~on ~dc result
  |> List.map (fun v -> (v.Minimize.kind, v.Minimize.cube))
  |> List.sort_uniq compare
  |> List.map (fun (kind, k) ->
         match kind with
         | Minimize.Off_set ->
           D.error ~code:"COV001" ~subject ~loc:(Printf.sprintf "cube %d" k)
             (Printf.sprintf
                "%s asserts an output on off-set minterms (conflicts with the \
                 specification)"
                (Cube.to_string result.Cover.cubes.(k)))
         | Minimize.Uncovered ->
           D.error ~code:"COV002" ~subject ~loc:(Printf.sprintf "on-cube %d" k)
             (Printf.sprintf "care on-set minterms of %s are uncovered"
                (Cube.to_string on.Cover.cubes.(k))))

let check_redundancy ~subject ?dc cover =
  let cubes = cover.Cover.cubes in
  let n = Array.length cubes in
  let show j = Cube.to_string cubes.(j) in
  let warn code j =
    Printf.ksprintf (D.warning ~code ~subject ~loc:(Printf.sprintf "cube %d" j))
  in
  (* A cube equal to or inside another is covered by the rest, so only
     the cubes COV003 flags are scanned for the first cube they duplicate
     (COV005, on the later copy only) or lie in (COV004). *)
  let rec scan j i =
    if i >= n then []
    else if i = j then scan j (i + 1)
    else if Cube.equal cubes.(i) cubes.(j) then
      if i < j then [ warn "COV005" j "duplicates cube %d (%s)" i (show j) ] else []
    else if Cube.contains cubes.(i) cubes.(j) then
      [ warn "COV004" j "%s is contained in cube %d (%s)" (show j) i (show i) ]
    else scan j (i + 1)
  in
  List.concat
    (List.mapi
       (fun j redundant ->
         if not redundant then []
         else
           warn "COV003" j "redundant: the rest of the cover already covers %s" (show j)
           :: scan j 0)
       (Array.to_list (Minimize.redundant ?dc cover)))

let pass =
  {
    Pass.name = "cover-lint";
    doc =
      "minimized blocks vs. their on/dc specification: off-set conflicts, \
       uncovered minterms, redundant / contained / duplicate cubes \
       (COV001-COV005)";
    run =
      (fun ctx ->
        List.concat_map
          (fun { Context.block_label; on; dc; minimized } ->
            let subject = Context.subject ctx block_label in
            check_block ~subject ~on ~dc minimized
            @ check_redundancy ~subject ~dc minimized)
          ctx.Context.blocks);
  }
