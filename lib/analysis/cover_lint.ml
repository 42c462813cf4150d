module Cover = Stc_logic.Cover
module Cube = Stc_logic.Cube
module D = Diagnostic

let check_block ~subject ~on ~dc result =
  let care = Cover.union on dc in
  let diags = ref [] in
  (* Off-set conflicts (COV001): a result cube asserts an output on an
     off-set minterm iff it meets some cube of the complement of the
     specification on a shared output.  One complement up front, then a
     pair of allocation-free word tests per (result cube, off cube) -
     the previous per-cube [covers_cube] calls redid the same Shannon
     recursion once per result cube. *)
  let off = Cover.complement care in
  Array.iteri
    (fun k cube ->
      let conflicts =
        Array.exists
          (fun r -> Cube.output_overlap cube r && not (Cube.disjoint cube r))
          off.Cover.cubes
      in
      if conflicts then
        diags :=
          D.error ~code:"COV001" ~subject
            ~loc:(Printf.sprintf "cube %d" k)
            (Printf.sprintf
               "%s asserts an output on off-set minterms (conflicts with \
                the specification)"
               (Cube.to_string cube))
          :: !diags)
    result.Cover.cubes;
  let result_dc = Cover.union result dc in
  Array.iteri
    (fun k cube ->
      if not (Cover.covers_cube result_dc cube) then
        diags :=
          D.error ~code:"COV002" ~subject
            ~loc:(Printf.sprintf "on-cube %d" k)
            (Printf.sprintf "care on-set minterms of %s are uncovered"
               (Cube.to_string cube))
          :: !diags)
    on.Cover.cubes;
  !diags

let check_redundancy ~subject ?dc ?limit cover =
  let cubes = cover.Cover.cubes in
  let n =
    match limit with
    | None -> Array.length cubes
    | Some l -> min l (Array.length cubes)
  in
  let context, dc_size =
    match dc with
    | None -> (cover, 0)
    | Some d -> (Cover.union cover d, Cover.size d)
  in
  let diags = ref [] in
  for j = 0 to n - 1 do
    (* Duplicate / single-cube containment against earlier cubes.  Note
       equality is reported once (COV005) and not doubled as COV004. *)
    let rec scan i =
      if i < n then
        if i = j then scan (i + 1)
        else if Cube.equal cubes.(i) cubes.(j) then begin
          if i < j then
            diags :=
              D.warning ~code:"COV005" ~subject
                ~loc:(Printf.sprintf "cube %d" j)
                (Printf.sprintf "duplicates cube %d (%s)" i
                   (Cube.to_string cubes.(j)))
              :: !diags
        end
        else if Cube.contains cubes.(i) cubes.(j) then
          diags :=
            D.warning ~code:"COV004" ~subject
              ~loc:(Printf.sprintf "cube %d" j)
              (Printf.sprintf "%s is contained in cube %d (%s)"
                 (Cube.to_string cubes.(j)) i
                 (Cube.to_string cubes.(i)))
            :: !diags
        else scan (i + 1)
    in
    scan 0;
    (* Redundancy against the rest of the (budgeted) cover, plus
       don't-cares. *)
    let rest i = i <> j && (i < n || i >= Array.length cubes) in
    if n - 1 + dc_size > 0 && Cover.covers_cube ~keep:rest context cubes.(j)
    then
      diags :=
        D.warning ~code:"COV003" ~subject
          ~loc:(Printf.sprintf "cube %d" j)
          (Printf.sprintf "redundant: the rest of the cover already covers %s"
             (Cube.to_string cubes.(j)))
        :: !diags
  done;
  !diags

(* The redundancy analysis is quadratic in cubes (a tautology check per
   cube against the rest of the cover); past this size it stops being a
   lint and starts being a batch job, so it is skipped with an explicit
   note rather than silently hanging the run.  With the packed engine
   and its memoized tautology recursion the budget is 4x what the
   trit-array engine could afford. *)
let redundancy_limit = 4096

let pass =
  {
    Pass.name = "cover-lint";
    doc =
      "minimized blocks vs. their on/dc specification: off-set conflicts, \
       uncovered minterms, redundant / contained / duplicate cubes \
       (COV001-COV006)";
    run =
      (fun ctx ->
        List.concat_map
          (fun { Context.block_label; on; dc; minimized } ->
            let subject = Context.subject ctx block_label in
            let redundancy =
              let n = Cover.size minimized in
              if n > redundancy_limit then
                D.info ~code:"COV006" ~subject ~loc:"cover"
                  (Printf.sprintf
                     "redundancy analysis truncated to the first %d of %d \
                      cubes: %d cubes skipped (correctness checks still \
                      cover the whole block)"
                     redundancy_limit n (n - redundancy_limit))
                :: check_redundancy ~subject ~dc ~limit:redundancy_limit
                     minimized
              else check_redundancy ~subject ~dc minimized
            in
            check_block ~subject ~on ~dc minimized @ redundancy)
          ctx.Context.blocks);
  }
