(* Strategy choices as data.

   A [spec] configures one of the two protocols: the access tree
   (the paper's strategy, optionally capacity-bounded) or the home-based
   scheme (fixed home, or the adaptive policy with replication thresholds
   and home migration). [Dsm.create] turns a spec into protocol state;
   the [Registry] maps names to specs so every tool (divasim, bench,
   chaos, serve, analyze) resolves strategies uniformly. *)

module Deco = Diva_mesh.Decomposition
module Embedding = Diva_mesh.Embedding

(* Victim selection under a finite per-node capacity: classic LRU, or
   least-frequently-used (total touches over the copy's lifetime). *)
type eviction = Lru | Freq

type tree_config = {
  arity : int;  (* 2, 4 or 16 *)
  leaf_size : int;  (* terminate the decomposition at submeshes <= this *)
  embedding : Embedding.kind;
  capacity : int option;  (* per-processor memory bound in bytes *)
  combining : bool;  (* read combining (on by default) *)
  remap_threshold : int option;  (* FOCS'97 remapping of hot tree nodes *)
  eviction : eviction;  (* victim policy when [capacity] is set *)
}

type adaptive_config = {
  replicate_after : int;
      (* grant a cached replica only after this many consecutive home
         misses by the same processor since its last invalidation *)
  migrate_after : int;
      (* re-examine the home placement every this many home transactions *)
}

type spec =
  | Access_tree of tree_config
  | Fixed_home
  | Adaptive of adaptive_config

let tree_defaults =
  {
    arity = 4;
    leaf_size = 1;
    embedding = Embedding.Regular;
    capacity = None;
    combining = true;
    remap_threshold = None;
    eviction = Lru;
  }

let adaptive_defaults = { replicate_after = 2; migrate_after = 64 }

(* Display names: the paper's own names for the paper's strategies
   (golden traces and manifests depend on them), decorated suffixes for
   the zoo additions. *)
let tree_name (c : tree_config) =
  let base =
    Deco.strategy_name ~arity:(Deco.arity_of_int c.arity) ~leaf_size:c.leaf_size
  in
  let base =
    match c.capacity with
    | None -> base
    | Some cap when cap mod 1024 = 0 -> Printf.sprintf "%s+cap%dk" base (cap / 1024)
    | Some cap -> Printf.sprintf "%s+cap%d" base cap
  in
  match c.eviction with Lru -> base | Freq -> base ^ "+freq-evict"

let spec_name = function
  | Fixed_home -> "fixed home"
  | Access_tree c -> tree_name c
  | Adaptive _ -> "adaptive-home"
