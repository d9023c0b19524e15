module Network = Diva_simnet.Network
module Machine = Diva_simnet.Machine
module Mesh = Diva_mesh.Mesh

type config = Matmul.config = { block : int; compute : bool }

type dir = North | South | East | West

(* A block travelling away from its origin in one direction; [hops_left]
   counts how many further processors must still receive it. *)
type Network.payload +=
  | Block of { oi : int; oj : int; dir : dir; hops_left : int; data : Matmul.block }

type t = {
  net : Network.t;
  cfg : config;
  q : int;
  b : int;
  initial : Matmul.block array array;  (* all one zero block without compute *)
  result : Matmul.block array array;
      (* written by the fibers; no rows without compute *)
}

let setup net cfg =
  let mesh = Network.mesh net in
  if Mesh.num_dims mesh <> 2 || Mesh.rows mesh <> Mesh.cols mesh then
    invalid_arg "Matmul_handopt.setup: requires a square 2-D mesh";
  let q = Mesh.rows mesh in
  let b = Matmul.block_side ~q cfg in
  let initial = Matmul.inputs ~q cfg ~zero:(Matmul.zero_block cfg.block) in
  let result = Array.make_matrix (if cfg.compute then q else 0) q Bytes.empty in
  { net; cfg; q; b; initial; result }

let msg_size cfg = (cfg.block * 4) + 16

let forward t p (oi, oj, dir, hops_left, data) =
  if hops_left > 0 then begin
    let mesh = Network.mesh t.net in
    let r, c = Mesh.coords mesh p in
    let nr, nc =
      match dir with
      | North -> (r - 1, c)
      | South -> (r + 1, c)
      | East -> (r, c + 1)
      | West -> (r, c - 1)
    in
    Network.send t.net ~src:p ~dst:(Mesh.node_at mesh ~row:nr ~col:nc)
      ~size:(msg_size t.cfg)
      (Block { oi; oj; dir; hops_left = hops_left - 1; data })
  end

let fiber t p =
  let net = t.net in
  let machine = Network.machine net in
  let mesh = Network.mesh net in
  let i, j = Mesh.coords mesh p in
  let q = t.q in
  let row_blocks = Array.make q Bytes.empty
  and col_blocks = Array.make q Bytes.empty in
  row_blocks.(j) <- t.initial.(i).(j);
  col_blocks.(i) <- t.initial.(i).(j);
  (* Launch my block in all four directions. *)
  forward t p (i, j, North, i, t.initial.(i).(j));
  forward t p (i, j, South, q - 1 - i, t.initial.(i).(j));
  forward t p (i, j, West, j, t.initial.(i).(j));
  forward t p (i, j, East, q - 1 - j, t.initial.(i).(j));
  (* Receive the 2(q-1) blocks of my row and my column, keeping a copy and
     forwarding each onwards. *)
  let expected = 2 * (q - 1) in
  for _ = 1 to expected do
    let msg = Network.recv net p () in
    match msg.Network.m_payload with
    | Block { oi; oj; dir; hops_left; data } ->
        if oi = i then row_blocks.(oj) <- data else col_blocks.(oi) <- data;
        forward t p (oi, oj, dir, hops_left, data)
    | _ -> failwith "Matmul_handopt: unexpected message"
  done;
  (* All operands are local now; compute the block product sum. Without
     compute nothing reads a result, so none is kept. *)
  if t.cfg.compute then begin
    let h = Matmul.zero_block t.cfg.block in
    for k = 0 to q - 1 do
      Matmul.block_mult_add ~b:t.b h row_blocks.(k) col_blocks.(k)
    done;
    t.result.(i).(j) <- h;
    let ops = 2 * t.b * t.b * t.b * q in
    Network.compute net p (float_of_int ops *. machine.Machine.int_op_time)
  end

let blocks t =
  Array.concat (Array.to_list t.initial @ Array.to_list t.result)

let verify t =
  (not t.cfg.compute)
  || Matmul.is_square ~q:t.q t.cfg (fun i j -> t.result.(i).(j))
