module Network = Diva_simnet.Network
module Link_stats = Diva_simnet.Link_stats
module Mesh = Diva_mesh.Mesh

let nodes_of_link_values mesh link_values =
  let traffic = Array.make (Mesh.num_nodes mesh) 0.0 in
  List.iter
    (fun (l, v) ->
      if v > 0.0 then begin
        let src, _ = Mesh.link_endpoints mesh l in
        traffic.(src) <- traffic.(src) +. v
      end)
    link_values;
  traffic

(* The argmax of the per-link counts as [(link, src, dst, count)]; ties
   keep the lowest link id. *)
let hottest_link mesh per =
  let best = ref None in
  Array.iteri
    (fun l v ->
      match !best with
      | Some (_, bv) when bv >= v -> ()
      | _ -> if v > 0 then best := Some (l, v))
    per;
  match !best with
  | None -> None
  | Some (l, v) ->
      let src, dst = Mesh.link_endpoints mesh l in
      Some (l, src, dst, v)

(* Shared digit-grid renderer, also used by [divasim analyze] for windowed
   congestion snapshots. *)
let render_grid mesh ?label values =
  let maxv = Array.fold_left Float.max 1.0 values in
  let digit v =
    if v <= 0.0 then '.'
    else
      Char.chr
        (Char.code '0' + min 9 (int_of_float (v *. 10.0 /. (maxv +. 1.0))))
  in
  let buf = Buffer.create 256 in
  (match label with
  | Some l -> Buffer.add_string buf (Printf.sprintf "%s (max %.0f):\n" l maxv)
  | None -> ());
  if Mesh.num_dims mesh = 2 then
    for r = 0 to Mesh.rows mesh - 1 do
      for c = 0 to Mesh.cols mesh - 1 do
        Buffer.add_char buf (digit values.(Mesh.node_at mesh ~row:r ~col:c))
      done;
      Buffer.add_char buf '\n'
    done
  else
    Array.iteri
      (fun v x -> Buffer.add_string buf (Printf.sprintf "node %d: %.0f\n" v x))
      values;
  Buffer.contents buf

let render net =
  let mesh = Network.mesh net in
  let per = Link_stats.per_link_bytes (Network.stats net) in
  (* Byte counts are integers far below 2^53, so the float sums are exact. *)
  let traffic =
    nodes_of_link_values mesh
      (Array.to_list (Array.mapi (fun l v -> (l, float_of_int v)) per))
  in
  let grid =
    render_grid mesh ~label:"outgoing traffic per node, bytes" traffic
  in
  match hottest_link mesh per with
  | None -> grid
  | Some (link, src, dst, v) ->
      grid
      ^ Printf.sprintf "hottest directed link: %d (%d -> %d), %d bytes\n"
          link src dst v
