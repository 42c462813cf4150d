(** Single-word SWAR kernels: the lowest layer of the shared bit engine.

    Every packed representation in the tree - positional cubes
    ({!Stc_logic.Cube}), bit-parallel stimuli ({!Stc_faultsim.Engine})
    and signature registers ({!Stc_bist}) - does its per-word arithmetic
    through this module, so there is exactly one popcount/parity/ffs
    implementation to maintain. *)

(** Number of value bits in a native [int] (63 on 64-bit platforms; the
    whole tree assumes a 64-bit platform). *)
val bits : int

(** [popcount x] counts the set bits of [x], including a set sign bit.
    Branch-free (four 16-bit table lookups). *)
val popcount : int -> int

(** [parity x] is [popcount x land 1]. *)
val parity : int -> int

(** [ffs x] is the index of the lowest set bit of [x] (0-based).
    @raise Invalid_argument on [x = 0]. *)
val ffs : int -> int

(** [mask n] is the word with the low [n] bits set, [0 <= n <= bits].
    [mask bits] is [-1] (all 63 value bits).
    @raise Invalid_argument outside that range. *)
val mask : int -> int
