type submesh = { origin : int array; sizes : int array }
type arity = Two | Four | Sixteen

let arity_of_int = function
  | 2 -> Two
  | 4 -> Four
  | 16 -> Sixteen
  | n -> invalid_arg (Printf.sprintf "Decomposition.arity_of_int: %d" n)

let int_of_arity = function Two -> 2 | Four -> 4 | Sixteen -> 16

type t = {
  mesh : Mesh.t;
  arity : arity;
  leaf_size : int;
  parent : int array;
  children : int array array;
  submesh : submesh array;
  proc : int array;
  leaf_of_proc : int array;
  depth : int array;
  subtree_end : int array;
  num_tree_nodes : int;
}

let size sm = Array.fold_left ( * ) 1 sm.sizes

(* One 2-ary split: halve the longest side (ties toward the first
   dimension), the ceil-half first. Returns [sm] itself if it cannot be
   split (size 1). *)
let split2 sm =
  if size sm = 1 then [ sm ]
  else begin
    let dim = ref 0 in
    Array.iteri (fun k s -> if s > sm.sizes.(!dim) then dim := k) sm.sizes;
    let k = !dim in
    let first = (sm.sizes.(k) + 1) / 2 in
    let sizes_a = Array.copy sm.sizes and sizes_b = Array.copy sm.sizes in
    sizes_a.(k) <- first;
    sizes_b.(k) <- sm.sizes.(k) - first;
    let origin_b = Array.copy sm.origin in
    origin_b.(k) <- sm.origin.(k) + first;
    [ { sm with sizes = sizes_a }; { origin = origin_b; sizes = sizes_b } ]
  end

(* [split_level levels sm] applies [levels] rounds of 2-ary splitting,
   producing the children of one tree level of a 2^levels-ary tree. *)
let rec split_level levels sm =
  if levels = 0 || size sm = 1 then [ sm ]
  else List.concat_map (split_level (levels - 1)) (split2 sm)

(* Processors of a submesh in 2-ary decomposition (snake) order. *)
let rec proc_order mesh sm =
  if size sm = 1 then [ Mesh.node_at_nd mesh sm.origin ]
  else List.concat_map (proc_order mesh) (split2 sm)

let full_submesh mesh =
  let d = Mesh.dims mesh in
  { origin = Array.make (Array.length d) 0; sizes = d }

let snake_order mesh = Array.of_list (proc_order mesh (full_submesh mesh))

(* Intermediate recursive form, flattened to arrays in a preorder pass. *)
type node = { n_sm : submesh; n_proc : int; n_kids : node list }

let build mesh ~arity ~leaf_size =
  if leaf_size < 1 then invalid_arg "Decomposition.build: leaf_size must be >= 1";
  let levels = match arity with Two -> 1 | Four -> 2 | Sixteen -> 4 in
  let rec go sm =
    if size sm = 1 then
      { n_sm = sm; n_proc = Mesh.node_at_nd mesh sm.origin; n_kids = [] }
    else if size sm <= leaf_size then begin
      (* Terminated submesh: one child leaf per processor, in snake order. *)
      let leaf p =
        { n_sm = { origin = Mesh.coords_nd mesh p;
                   sizes = Array.make (Mesh.num_dims mesh) 1 };
          n_proc = p; n_kids = [] }
      in
      { n_sm = sm; n_proc = -1; n_kids = List.map leaf (proc_order mesh sm) }
    end
    else
      { n_sm = sm; n_proc = -1; n_kids = List.map go (split_level levels sm) }
  in
  let full = full_submesh mesh in
  let tree = go full in
  let rec count n = List.fold_left (fun acc k -> acc + count k) 1 n.n_kids in
  let n = count tree in
  let parent = Array.make n (-1)
  and proc = Array.make n (-1)
  and depth = Array.make n 0
  and submesh = Array.make n full
  and children = Array.make n [||] in
  let subtree_end = Array.make n 0 in
  let next = ref 0 in
  let rec assign par dep node =
    let id = !next in
    incr next;
    parent.(id) <- par;
    proc.(id) <- node.n_proc;
    depth.(id) <- dep;
    submesh.(id) <- node.n_sm;
    (* Explicit left-to-right fold: ids must be assigned in preorder. *)
    let kids =
      List.fold_left (fun acc k -> assign id (dep + 1) k :: acc) [] node.n_kids
    in
    children.(id) <- Array.of_list (List.rev kids);
    subtree_end.(id) <- !next;
    id
  in
  ignore (assign (-1) 0 tree);
  let leaf_of_proc = Array.make (Mesh.num_nodes mesh) (-1) in
  Array.iteri (fun id p -> if p >= 0 then leaf_of_proc.(p) <- id) proc;
  Array.iteri
    (fun p leaf ->
      if leaf < 0 then
        invalid_arg (Printf.sprintf "Decomposition.build: processor %d has no leaf" p))
    leaf_of_proc;
  { mesh; arity; leaf_size; parent; children; submesh; proc; leaf_of_proc;
    depth; subtree_end; num_tree_nodes = n }

let is_leaf t id = t.proc.(id) >= 0
let in_subtree t x ~root = x >= root && x < t.subtree_end.(root)

let next_hop t ~from ~target =
  if from = target then invalid_arg "Decomposition.next_hop: from = target";
  if in_subtree t target ~root:from then begin
    (* The child whose preorder range contains [target]. Children ranges are
       sorted, so a linear scan over the (few) children suffices. *)
    let kids = t.children.(from) in
    let rec find i =
      if i >= Array.length kids then
        invalid_arg "Decomposition.next_hop: malformed tree"
      else if in_subtree t target ~root:kids.(i) then kids.(i)
      else find (i + 1)
    in
    find 0
  end
  else t.parent.(from)

let strategy_name ~arity ~leaf_size =
  let l = int_of_arity arity in
  if leaf_size <= 1 then Printf.sprintf "%d-ary" l
  else Printf.sprintf "%d-%d-ary" l leaf_size
