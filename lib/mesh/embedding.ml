module Prng = Diva_util.Prng

type t = { decomposition : Decomposition.t; place : int array }
type kind = Regular | Random

let place t id = t.place.(id)

(* Walk the tree top-down so that a child's placement can depend on its
   parent's. [pick] receives the child id and the parent's placement. *)
let top_down (d : Decomposition.t) ~root_place ~pick =
  let n = d.Decomposition.num_tree_nodes in
  let place = Array.make n (-1) in
  place.(0) <- root_place;
  (* Preorder ids guarantee parents are placed before their children. *)
  for id = 1 to n - 1 do
    let p = d.Decomposition.proc.(id) in
    if p >= 0 then place.(id) <- p
    else place.(id) <- pick id place.(d.Decomposition.parent.(id))
  done;
  { decomposition = d; place }

(* The paper's regular rule, per dimension: the child node sits at the
   parent's position within the parent's submesh, taken modulo the child's
   submesh sides. *)
let regular_child (d : Decomposition.t) id parent_place =
  let mesh = d.Decomposition.mesh in
  let sm = d.Decomposition.submesh.(id) in
  let psm = d.Decomposition.submesh.(d.Decomposition.parent.(id)) in
  let pc = Mesh.coords_nd mesh parent_place in
  let c =
    Array.mapi
      (fun k o ->
        let rel = pc.(k) - psm.Decomposition.origin.(k) in
        o + (rel mod sm.Decomposition.sizes.(k)))
      sm.Decomposition.origin
  in
  Mesh.node_at_nd mesh c

let regular (d : Decomposition.t) ~rng =
  let mesh = d.Decomposition.mesh in
  let root_place = Prng.int rng (Mesh.num_nodes mesh) in
  top_down d ~root_place ~pick:(fun id pp -> regular_child d id pp)

let place_lazy kind (d : Decomposition.t) ~seed id =
  let mesh = d.Decomposition.mesh in
  let p = d.Decomposition.proc.(id) in
  if p >= 0 then p
  else
    match kind with
    | Random ->
        let sm = d.Decomposition.submesh.(id) in
        let ndims = Array.length sm.Decomposition.sizes in
        let c =
          Array.mapi
            (fun k o ->
              o
              + Prng.hash2_int seed ((ndims * id) + k)
                  ~bound:sm.Decomposition.sizes.(k))
            sm.Decomposition.origin
        in
        Mesh.node_at_nd mesh c
    | Regular ->
        let rec place id =
          if id = 0 then Prng.hash2_int seed 0 ~bound:(Mesh.num_nodes mesh)
          else regular_child d id (place d.Decomposition.parent.(id))
        in
        place id
