module Cover = Stc_logic.Cover

let table cover =
  let n = cover.Cover.num_vars in
  if n > 16 then invalid_arg "Truth.table: too many variables";
  Array.init (1 lsl n) (fun v -> Cover.eval cover v)

let equivalent a b =
  a.Cover.num_vars = b.Cover.num_vars
  && a.Cover.num_outputs = b.Cover.num_outputs
  && table a = table b

let equivalent_with_dc ~on ~dc result =
  let n = on.Cover.num_vars in
  if n > 16 then invalid_arg "Truth.equivalent_with_dc: too many variables";
  let ok = ref true in
  for v = 0 to (1 lsl n) - 1 do
    let want = Cover.eval on v
    and care = Cover.eval dc v
    and got = Cover.eval result v in
    Array.iteri
      (fun o w ->
        if w && (not care.(o)) && not got.(o) then ok := false;
        if got.(o) && (not w) && not care.(o) then ok := false)
      want
  done;
  !ok
