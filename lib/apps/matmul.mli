(** Matrix squaring (A := A * A) on a square mesh, through the DIVA layer —
    the paper's first application (§3.1).

    The n×n integer matrix is partitioned into P equally sized blocks;
    processor [p_ij] owns block [A_ij] (a global variable) and computes its
    new value in sqrt(P) staggered read steps followed by a write phase,
    the two phases separated by a barrier. Squaring (rather than C := A*B)
    forces the data-management strategy to invalidate the copies created in
    the read phase. *)

type config = {
  block : int;  (** integers per block (the paper's "block size") *)
  compute : bool;
      (** actually multiply the blocks (and charge the arithmetic);
          benchmarks disable this to measure communication time, exactly as
          the paper does *)
}

type block = Bytes.t
(** A b×b block of the matrix, row-major, held as exactly the bytes the
    simulated machine moves: [config.block] little-endian 32-bit words, read and
    written with [Bytes.get_int32_le] / [Bytes.set_int32_le]. Input entries
    are drawn from [0, 99], so an entry of the square of an n×n matrix is
    at most n·99² and fits a 32-bit word while n = sqrt(P)·b is at most
    [Int32.max_int / 99²] = 219 108. *)

type t

val setup : Diva_core.Dsm.t -> config -> t
(** Create the P block variables, each initialised at its owner with a
    deterministic pseudo-random block, or, without compute, all with one
    shared zero block that every fiber also writes back: nothing reads a
    block then, and the DSM moves the declared [~size]. Requires a square
    mesh, [block] a perfect square, and, with [compute = true], a matrix
    side of at most 219 108; raises [Invalid_argument] before allocating
    any block otherwise. *)

val fiber : t -> Diva_core.Types.proc -> unit
(** The per-processor program (read phase, barrier, write phase, barrier). *)

val verify : t -> bool
(** After the run: with [compute = true], does every block equal the
    corresponding block of the sequentially squared input matrix? Without
    compute, [true]: nothing is computed, so nothing is checked. *)

val block_var : t -> int -> int -> block Diva_core.Dsm.var
(** [block_var t i j] is the variable holding block [A_ij]. Test-only:
    tests measure the block values a run holds through it. *)

val blocks_read : t -> int
(** Total block reads issued (sanity statistics). *)

(** {2 Shared with the hand-optimized baseline} *)

val block_side : q:int -> config -> int
(** [block_side ~q cfg] is the block side b = sqrt [cfg.block] of a
    [q]×[q] block matrix. Raises [Invalid_argument] if [cfg.block] is not a
    perfect square, or if [cfg.compute] and q·b exceeds 219 108. *)

val zero_block : int -> block
(** [zero_block n] is a block of [n] zero entries. *)

val inputs : q:int -> config -> zero:block -> block array array
(** The blocks a run starts from: with [compute], the input matrix as
    [q]×[q] blocks of [cfg.block] entries from one fixed-seed stream
    (seed 2027), so every call returns the same matrix; otherwise [q]×[q]
    references to [zero], drawing nothing. *)

val block_mult_add : b:int -> block -> block -> block -> unit
(** [block_mult_add ~b h x y] adds the product of two [b]x[b] row-major
    blocks to [h]. *)

val is_square : q:int -> config -> (int -> int -> block) -> bool
(** [is_square ~q cfg result] holds when [result i j] is block (i, j) of
    the square of {!initial_blocks}. *)
