(** Text rendering of the network's traffic distribution: a quick visual
    check of where the congestion sits (e.g. the hot row/column crossings
    of the fixed home strategy vs the spread-out access-tree traffic). *)

val nodes_of_link_values :
  Diva_mesh.Mesh.t -> (int * float) list -> float array
(** Fold per-link values (e.g. one {!Diva_obs.Analysis.window}) into
    per-source-node totals for {!render_grid}. *)

val render_grid : Diva_mesh.Mesh.t -> ?label:string -> float array -> string
(** For a 2-D mesh: a grid of digits 0-9, each node's value normalised to
    the maximum ('.' for zero), preceded by [label] when given. Other
    dimensions fall back to a flat listing. *)

val render : Diva_simnet.Network.t -> string
(** The per-node grid of the run's whole traffic in bytes (over each
    node's outgoing links) plus a trailing line naming the hottest
    directed link — the row/column crossing the paper highlights for
    fixed home. Ties keep the lowest link id. *)
