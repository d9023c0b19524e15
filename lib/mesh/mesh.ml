type t = {
  t_dims : int array;
  strides : int array;  (* strides.(d) = product of dims.(d+1 ..) *)
  nodes : int;
}

type node = int
type link = int

(* Directed links are numbered [node * 2d + (dim * 2 + sign)] where sign 0
   moves up (+1) and sign 1 moves down (-1) in that dimension. Border
   directions exist as ids but are never produced by [route_into]. *)

let create_nd ~dims =
  if Array.length dims = 0 then invalid_arg "Mesh.create_nd: no dimensions";
  Array.iter
    (fun s -> if s < 1 then invalid_arg "Mesh.create_nd: sides must be >= 1")
    dims;
  let d = Array.length dims in
  let strides = Array.make d 1 in
  for k = d - 2 downto 0 do
    strides.(k) <- strides.(k + 1) * dims.(k + 1)
  done;
  { t_dims = Array.copy dims; strides; nodes = strides.(0) * dims.(0) }

let dims t = Array.copy t.t_dims
let num_dims t = Array.length t.t_dims

let check_2d t fn =
  if Array.length t.t_dims <> 2 then
    invalid_arg (Printf.sprintf "Mesh.%s: not a 2-D mesh" fn)

let rows t =
  check_2d t "rows";
  t.t_dims.(0)

let cols t =
  check_2d t "cols";
  t.t_dims.(1)

let num_nodes t = t.nodes
let num_links t = 2 * Array.length t.t_dims * t.nodes

let coord t v k = v / t.strides.(k) mod t.t_dims.(k)

let coords t v =
  check_2d t "coords";
  (v / t.strides.(0), v mod t.t_dims.(1))

let coords_nd t v = Array.init (Array.length t.t_dims) (coord t v)

let node_at_nd t c =
  if Array.length c <> Array.length t.t_dims then
    invalid_arg "Mesh.node_at_nd: wrong arity";
  let v = ref 0 in
  Array.iteri
    (fun k x ->
      if x < 0 || x >= t.t_dims.(k) then invalid_arg "Mesh.node_at_nd: out of range";
      v := !v + (x * t.strides.(k)))
    c;
  !v

let node_at t ~row ~col =
  check_2d t "node_at";
  node_at_nd t [| row; col |]

let nd t = 2 * Array.length t.t_dims
let link_id t node dim sign = (node * nd t) + (2 * dim) + sign

let link_endpoints t l =
  let v = l / nd t and rest = l mod nd t in
  let dim = rest / 2 and sign = rest mod 2 in
  let delta = if sign = 0 then t.strides.(dim) else -t.strides.(dim) in
  (v, v + delta)

(* Walk the dimension-order path, last dimension first, into a
   caller-provided buffer: the simulator's send path iterates the links
   with a plain [for] loop afterwards, so the whole route walk allocates
   nothing (no closure, no refs). *)
let route_into t ~src ~dst buf =
  let n = ref 0 in
  let cur = ref src in
  for dim = Array.length t.t_dims - 1 downto 0 do
    let have = coord t !cur dim and want = coord t dst dim in
    let sign = if want > have then 0 else 1 in
    let delta = if sign = 0 then t.strides.(dim) else -t.strides.(dim) in
    for _ = 1 to abs (want - have) do
      buf.(!n) <- link_id t !cur dim sign;
      incr n;
      cur := !cur + delta
    done
  done;
  !n

let max_route_length t =
  Array.fold_left (fun acc side -> acc + side - 1) 0 t.t_dims

