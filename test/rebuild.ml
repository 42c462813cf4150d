module N = Stc_netlist.Netlist
module B = N.Builder

(* One input more than the dense engine's bound of [max_points = 2^k]. *)
let past_bound = Stc_bits.Word.ffs Stc_faultsim.Exhaustive.max_points + 1

let copy ?(gate = fun _ g -> g) ?outputs ?(pads = 0) (net : N.t) =
  let b = B.create net.N.name in
  Array.iteri
    (fun idx g ->
      let made =
        match gate idx g with
        | N.Input name -> B.input b name
        | N.Const v -> B.const b v
        | N.Buf x -> B.buf b x
        | N.Not x -> B.not_ b x
        | N.And xs -> B.and_ b (Array.to_list xs)
        | N.Or xs -> B.or_ b (Array.to_list xs)
        | N.Xor xs -> B.xor_ b (Array.to_list xs)
        | N.Mux { sel; a; b = b' } -> B.mux b ~sel ~a ~b:b'
      in
      assert (made = idx))
    net.N.gates;
  for k = 0 to pads - 1 do
    ignore (B.input b (Printf.sprintf "zpad%d" k))
  done;
  Array.iter
    (fun (name, g) -> B.output b name g)
    (Option.value outputs ~default:net.N.outputs);
  B.finish b
