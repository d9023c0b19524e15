module Dsm = Diva_core.Dsm
module Network = Diva_simnet.Network
module Machine = Diva_simnet.Machine
module Prng = Diva_util.Prng
module Types = Diva_core.Types

type config = { block : int; compute : bool }

(* A b*b block, row-major, as the 32-bit little-endian words the simulated
   machine moves: 4 bytes per element, the [~size] every variable declares. *)
type block = Bytes.t

let[@inline] get x e = Int32.to_int (Bytes.get_int32_le x (4 * e))
let[@inline] set x e v = Bytes.set_int32_le x (4 * e) (Int32.of_int v)
let zero_block n = Bytes.make (4 * n) '\000'

type t = {
  dsm : Dsm.t;
  cfg : config;
  q : int;  (* sqrt P = blocks per row/column *)
  b : int;  (* block side length *)
  vars : block Dsm.var array array;
  zero : block;  (* without compute, every block's one shared value *)
  mutable reads : int;
}

let isqrt n =
  let r = int_of_float (sqrt (float_of_int n)) in
  let rec adjust r = if r * r > n then adjust (r - 1) else r in
  let r = adjust (r + 1) in
  if r * r <> n then invalid_arg "Matmul: not a perfect square" else r

(* Input entries are below 100, so an entry of the square of an n*n matrix
   is at most n * 99 * 99. *)
let max_side = Int32.to_int Int32.max_int / (99 * 99)

let block_side ~q cfg =
  let b = isqrt cfg.block in
  if cfg.compute && q * b > max_side then
    invalid_arg
      (Printf.sprintf
         "Matmul: matrix side %d exceeds %d, the largest whose square fits \
          32-bit words"
         (q * b) max_side);
  b

(* The input matrix, block [i][j] row-major: one fixed-seed stream, so
   [verify] regenerates what [setup] handed to the variables instead of
   keeping a second copy for the whole run. *)
let initial_blocks ~q ~block =
  let rng = Prng.create ~seed:2027 in
  Array.init q (fun _ ->
      Array.init q (fun _ ->
          let x = Bytes.create (4 * block) in
          for e = 0 to block - 1 do
            set x e (Prng.int rng 100)
          done;
          x))

(* Without compute no code reads a block, only its declared [~size]
   travels: every block is the one [zero] block and no input is drawn. *)
let inputs ~q cfg ~zero =
  if cfg.compute then initial_blocks ~q ~block:cfg.block
  else Array.make_matrix q q zero

let setup dsm cfg =
  let mesh = Network.mesh (Dsm.net dsm) in
  if Diva_mesh.Mesh.num_dims mesh <> 2
     || Diva_mesh.Mesh.rows mesh <> Diva_mesh.Mesh.cols mesh
  then invalid_arg "Matmul.setup: requires a square 2-D mesh";
  let q = Diva_mesh.Mesh.rows mesh in
  let b = block_side ~q cfg in
  let zero = zero_block cfg.block in
  let blocks = inputs ~q cfg ~zero in
  let vars =
    Array.init q (fun i ->
        Array.init q (fun j ->
            let owner = (i * q) + j in
            Dsm.create_var dsm
              ~name:(Printf.sprintf "A[%d,%d]" i j)
              ~owner ~size:(cfg.block * 4)
              blocks.(i).(j)))
  in
  { dsm; cfg; q; b; vars; zero; reads = 0 }

(* H += X * Y for b*b blocks stored row-major. *)
let block_mult_add ~b h x y =
  for r = 0 to b - 1 do
    for c = 0 to b - 1 do
      let acc = ref (get h ((r * b) + c)) in
      for k = 0 to b - 1 do
        acc := !acc + (get x ((r * b) + k) * get y ((k * b) + c))
      done;
      set h ((r * b) + c) !acc
    done
  done

let fiber t p =
  let dsm = t.dsm in
  let net = Dsm.net dsm in
  let machine = Network.machine net in
  let i = p / t.q and j = p mod t.q in
  let h = if t.cfg.compute then zero_block t.cfg.block else t.zero in
  (* Read phase: staggered so that at most two processors read the same
     block in the same step. *)
  for k' = 0 to t.q - 1 do
    let k = (k' + i + j) mod t.q in
    let x = Dsm.read dsm p t.vars.(i).(k) in
    let y = Dsm.read dsm p t.vars.(k).(j) in
    t.reads <- t.reads + 2;
    if t.cfg.compute then begin
      block_mult_add ~b:t.b h x y;
      (* one multiply and one add per inner-loop element *)
      let ops = 2 * t.b * t.b * t.b in
      Network.charge net p (float_of_int ops *. machine.Machine.int_op_time)
    end
  done;
  Dsm.barrier dsm p;
  (* Write phase: only small invalidation traffic for both strategies,
     because each processor still holds a copy of its own block. *)
  Dsm.write dsm p t.vars.(i).(j) h;
  Dsm.barrier dsm p

let is_square ~q cfg result =
  let b = isqrt cfg.block in
  let initial = initial_blocks ~q ~block:cfg.block in
  let ok = ref true in
  for i = 0 to q - 1 do
    for j = 0 to q - 1 do
      let expect = zero_block cfg.block in
      for k = 0 to q - 1 do
        block_mult_add ~b expect initial.(i).(k) initial.(k).(j)
      done;
      if not (Bytes.equal (result i j) expect) then ok := false
    done
  done;
  !ok

let verify t =
  (not t.cfg.compute)
  || is_square ~q:t.q t.cfg (fun i j -> Dsm.peek t.vars.(i).(j))

let block_var t i j = t.vars.(i).(j)
let blocks_read t = t.reads
