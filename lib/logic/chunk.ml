module R = Cube.Raw

let low_pattern =
  [| 0xAAAA_AAAA; 0xCCCC_CCCC; 0xF0F0_F0F0; 0xFF00_FF00; 0xFFFF_0000 |]

let pattern j = low_pattern.(j)

let count n = 1 lsl max 0 (n - 5)

let ones n = (1 lsl (1 lsl min n 5)) - 1

type span = { mutable low : int; mutable hmask : int; mutable hval : int }

let span () = { low = 0; hmask = 0; hval = 0 }

let set_span s ~vars n row =
  let low = ref (ones n) and hmask = ref 0 and hval = ref 0 in
  for j = 0 to n - 1 do
    match R.pair row vars.(j) with
    | 1 ->
      if j < 5 then low := !low land lnot low_pattern.(j)
      else hmask := !hmask lor (1 lsl (j - 5))
    | 2 ->
      if j < 5 then low := !low land low_pattern.(j)
      else begin
        hmask := !hmask lor (1 lsl (j - 5));
        hval := !hval lor (1 lsl (j - 5))
      end
    | _ -> ()
  done;
  s.low <- !low;
  s.hmask <- !hmask;
  s.hval <- !hval

(* The span's chunks are [hval lor f] for every subset [f] of the free
   index bits, enumerated by the usual subset walk (loops rather than a
   local recursive function, which would allocate a closure per call). *)
let add s tbl ~base n =
  let free = (count n - 1) land lnot s.hmask in
  let low = s.low and hval = s.hval in
  let f = ref 0 and more = ref true in
  while !more do
    let x = base + (hval lor !f) in
    tbl.(x) <- tbl.(x) lor low;
    if !f = free then more := false else f := (!f - free) land free
  done

let meets s tbl ~base n =
  let free = (count n - 1) land lnot s.hmask in
  let low = s.low and hval = s.hval in
  let f = ref 0 and hit = ref false and more = ref true in
  while !more do
    if tbl.(base + (hval lor !f)) land low <> 0 then begin
      hit := true;
      more := false
    end
    else if !f = free then more := false
    else f := (!f - free) land free
  done;
  !hit
