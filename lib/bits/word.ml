(* Single-word SWAR kernels shared by every packed representation in the
   tree (cubes, stimuli, signatures).  OCaml's native int has 63 value
   bits; all operations here treat the word as a plain 63-bit field and
   are branch-free where it matters. *)

let bits = 63

(* Branch-free popcount via a 16-bit table; per-nibble SWAR constants do
   not fit OCaml's 63-bit literal syntax.  Promoted from the packed-cube
   engine (lib/logic/cube.ml), which now reads it from here. *)
let pc16 =
  let t = Bytes.create 65536 in
  Bytes.unsafe_set t 0 '\000';
  for i = 1 to 65535 do
    Bytes.unsafe_set t i
      (Char.chr (Char.code (Bytes.unsafe_get t (i lsr 1)) + (i land 1)))
  done;
  t

let popcount x =
  Char.code (Bytes.unsafe_get pc16 (x land 0xffff))
  + Char.code (Bytes.unsafe_get pc16 ((x lsr 16) land 0xffff))
  + Char.code (Bytes.unsafe_get pc16 ((x lsr 32) land 0xffff))
  + Char.code (Bytes.unsafe_get pc16 ((x lsr 48) land 0xffff))

let parity x = popcount x land 1

(* Lowest set bit index: isolate it ([x land -x]), turn it into a run of
   ones ([- 1]) and count.  Works for bit 62 (the sign bit) because [lsr]
   in [popcount] is a logical shift. *)
let ffs x =
  if x = 0 then invalid_arg "Word.ffs: zero word"
  else popcount ((x land -x) - 1)

let mask n =
  if n < 0 || n > bits then invalid_arg "Word.mask: width out of range"
  else if n = bits then -1
  else (1 lsl n) - 1
