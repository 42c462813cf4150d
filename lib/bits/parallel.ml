(* The chunked parallel range primitive of the bit engine.  The
   implementation lives in [Stc_util.Parallel] (the util layer cannot
   depend on this one); re-exported here so kernels built on [Stc_bits]
   find the whole hot-loop toolkit - words, arenas, fork/join -
   under one namespace. *)

include Stc_util.Parallel
