module N = Stc_netlist.Netlist
module D = Diagnostic

let inf = max_int / 4

let ( ++ ) a b = if a >= inf || b >= inf then inf else a + b

let min3 a b c = min a (min b c)

type t = { cc0 : int array; cc1 : int array; co : int array }

let analyze (net : N.t) =
  let n = N.num_gates net in
  let cc0 = Array.make n inf and cc1 = Array.make n inf in
  let co = Array.make n inf in
  (* Forward pass: controllability in topological (= storage) order. *)
  Array.iteri
    (fun g gate ->
      let z, o =
        match gate with
        | N.Input _ -> (1, 1)
        | N.Const true -> (inf, 1)
        | N.Const false -> (1, inf)
        | N.Buf x -> (cc0.(x) ++ 1, cc1.(x) ++ 1)
        | N.Not x -> (cc1.(x) ++ 1, cc0.(x) ++ 1)
        | N.And xs ->
          ( Array.fold_left (fun acc x -> min acc cc0.(x)) inf xs ++ 1,
            Array.fold_left (fun acc x -> acc ++ cc1.(x)) 0 xs ++ 1 )
        | N.Or xs ->
          ( Array.fold_left (fun acc x -> acc ++ cc0.(x)) 0 xs ++ 1,
            Array.fold_left (fun acc x -> min acc cc1.(x)) inf xs ++ 1 )
        | N.Xor xs ->
          (* Parity DP: cheapest way to set the inputs to even / odd
             parity. *)
          let p0, p1 =
            Array.fold_left
              (fun (p0, p1) x ->
                ( min (p0 ++ cc0.(x)) (p1 ++ cc1.(x)),
                  min (p0 ++ cc1.(x)) (p1 ++ cc0.(x)) ))
              (0, inf) xs
          in
          (p0 ++ 1, p1 ++ 1)
        | N.Mux { sel; a; b } ->
          ( min (cc0.(sel) ++ cc0.(a)) (cc1.(sel) ++ cc0.(b)) ++ 1,
            min (cc0.(sel) ++ cc1.(a)) (cc1.(sel) ++ cc1.(b)) ++ 1 )
      in
      cc0.(g) <- z;
      cc1.(g) <- o)
    net.N.gates;
  (* Backward pass: observability.  Primary outputs are free; each use
     site offers one propagation path, the cheapest wins. *)
  Array.iter (fun (_, g) -> co.(g) <- 0) net.N.outputs;
  for g = n - 1 downto 0 do
    let offer x cost = if cost < co.(x) then co.(x) <- cost in
    (match net.N.gates.(g) with
    | N.Input _ | N.Const _ -> ()
    | N.Buf x | N.Not x -> offer x (co.(g) ++ 1)
    | N.And xs ->
      Array.iteri
        (fun k x ->
          let side = ref 0 in
          Array.iteri (fun j y -> if j <> k then side := !side ++ cc1.(y)) xs;
          offer x (co.(g) ++ !side ++ 1))
        xs
    | N.Or xs ->
      Array.iteri
        (fun k x ->
          let side = ref 0 in
          Array.iteri (fun j y -> if j <> k then side := !side ++ cc0.(y)) xs;
          offer x (co.(g) ++ !side ++ 1))
        xs
    | N.Xor xs ->
      Array.iteri
        (fun k x ->
          let side = ref 0 in
          Array.iteri
            (fun j y -> if j <> k then side := !side ++ min cc0.(y) cc1.(y))
            xs;
          offer x (co.(g) ++ !side ++ 1))
        xs
    | N.Mux { sel; a; b } ->
      (* Observing sel needs the two data inputs to differ. *)
      offer sel
        (co.(g) ++ min3 (cc0.(a) ++ cc1.(b)) (cc1.(a) ++ cc0.(b)) inf ++ 1);
      offer a (co.(g) ++ cc0.(sel) ++ 1);
      offer b (co.(g) ++ cc1.(sel) ++ 1));
    ()
  done;
  { cc0; cc1; co }

type summary = {
  nets : int;
  cc0_max : int;
  cc1_max : int;
  co_max : int;
  cc0_mean : float;
  cc1_mean : float;
  co_mean : float;
  uncontrollable : int;
  unobservable : int;
}

let summarize (net : N.t) { cc0; cc1; co } =
  let nets = ref 0 in
  let uncontrollable = ref 0 and unobservable = ref 0 in
  let acc = Array.make 3 0 and cnt = Array.make 3 0 and mx = Array.make 3 0 in
  let feed k v =
    if v < inf then begin
      acc.(k) <- acc.(k) + v;
      cnt.(k) <- cnt.(k) + 1;
      if v > mx.(k) then mx.(k) <- v
    end
  in
  Array.iteri
    (fun g gate ->
      match gate with
      | N.Const _ -> ()
      | _ ->
        incr nets;
        feed 0 cc0.(g);
        feed 1 cc1.(g);
        feed 2 co.(g);
        if cc0.(g) >= inf || cc1.(g) >= inf then incr uncontrollable;
        if co.(g) >= inf then incr unobservable)
    net.N.gates;
  let mean k = if cnt.(k) = 0 then 0.0 else float_of_int acc.(k) /. float_of_int cnt.(k) in
  {
    nets = !nets;
    cc0_max = mx.(0);
    cc1_max = mx.(1);
    co_max = mx.(2);
    cc0_mean = mean 0;
    cc1_mean = mean 1;
    co_mean = mean 2;
    uncontrollable = !uncontrollable;
    unobservable = !unobservable;
  }

let summary_to_string s =
  Printf.sprintf
    "SCOAP over %d nets: CC0 max %d mean %.1f, CC1 max %d mean %.1f, CO \
     max %d mean %.1f, uncontrollable %d, unobservable %d"
    s.nets s.cc0_max s.cc0_mean s.cc1_max s.cc1_mean s.co_max s.co_mean
    s.uncontrollable s.unobservable

let pp_summary fmt s = Format.pp_print_string fmt (summary_to_string s)

let pass =
  {
    Pass.name = "scoap";
    doc =
      "SCOAP CC0/CC1 controllability and CO observability per net, \
       summarized per netlist (SCP001, SCP002)";
    run =
      (fun ctx ->
        List.concat_map
          (fun { Context.net_label; netlist; _ } ->
            let subject = Context.subject ctx net_label in
            let r = analyze netlist in
            let s = summarize netlist r in
            let hard =
              let cone =
                N.fanin_cone netlist
                  (Array.to_list (Array.map snd netlist.N.outputs))
              in
              let out = ref [] in
              Array.iteri
                (fun g gate ->
                  match gate with
                  | N.Const _ -> ()
                  | _ ->
                    if
                      cone.(g)
                      && (r.cc0.(g) >= inf || r.cc1.(g) >= inf
                        || r.co.(g) >= inf)
                    then
                      out :=
                        D.warning ~code:"SCP002" ~subject
                          ~loc:(Printf.sprintf "gate %d" g)
                          "inside an output cone but uncontrollable or \
                           unobservable (untestable stuck-at faults)"
                        :: !out)
                netlist.N.gates;
              !out
            in
            D.info ~code:"SCP001" ~subject ~loc:"netlist"
              (summary_to_string s)
            :: hard)
          ctx.Context.netlists);
  }
