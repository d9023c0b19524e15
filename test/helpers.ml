(* Shared helpers for the test suites. *)

module Network = Diva_simnet.Network

let run_procs net f =
  for p = 0 to Network.num_nodes net - 1 do
    Network.spawn net p (fun () -> f p)
  done;
  Network.run net

(* Every DSM strategy variant exercised by the strategy-generic suites. *)
let strategies =
  [
    ("2-ary", Diva_core.Dsm.access_tree ~arity:2 ());
    ("4-ary", Diva_core.Dsm.access_tree ~arity:4 ());
    ("16-ary", Diva_core.Dsm.access_tree ~arity:16 ());
    ("2-4-ary", Diva_core.Dsm.access_tree ~arity:2 ~leaf_size:4 ());
    ("4-16-ary", Diva_core.Dsm.access_tree ~arity:4 ~leaf_size:16 ());
    ("4-ary-random-emb",
     Diva_core.Dsm.access_tree ~arity:4 ~embedding:Diva_mesh.Embedding.Random ());
    ("4-ary-no-combining", Diva_core.Dsm.access_tree ~arity:4 ~combining:false ());
    ("fixed-home", Diva_core.Dsm.Fixed_home);
    (* Strategy-zoo contenders. Append only: some suites index this list. *)
    ("adaptive-home", Diva_core.Dsm.Adaptive Diva_core.Strategy.adaptive_defaults);
    ("4-ary-capacity-lru", Diva_core.Dsm.access_tree ~arity:4 ~capacity:512 ());
    ("4-ary-capacity-freq",
     Diva_core.Dsm.Access_tree
       { Diva_core.Strategy.tree_defaults with
         arity = 4; capacity = Some 512; eviction = Diva_core.Strategy.Freq });
  ]

(* Mesh measures the tests check against, built on the public primitives
   the simulator itself uses. *)
module Mesh = Diva_mesh.Mesh
module Deco = Diva_mesh.Decomposition

let mesh2 ~rows ~cols = Mesh.create_nd ~dims:[| rows; cols |]

(* The route as a list of links, as [Mesh.route_into] writes it. *)
let route m ~src ~dst =
  let buf = Array.make (Mesh.max_route_length m) 0 in
  Array.to_list (Array.sub buf 0 (Mesh.route_into m ~src ~dst buf))

(* Manhattan distance: what every route's hop count must equal. *)
let distance m a b =
  let ca = Mesh.coords_nd m a and cb = Mesh.coords_nd m b in
  Array.fold_left ( + ) 0 (Array.mapi (fun k x -> abs (x - cb.(k))) ca)

let submesh_size (sm : Deco.submesh) = Array.fold_left ( * ) 1 sm.Deco.sizes

let in_submesh (sm : Deco.submesh) coords =
  Array.length coords = Array.length sm.Deco.origin
  && Array.for_all Fun.id
       (Array.mapi
          (fun k x -> x >= sm.Deco.origin.(k) && x < sm.Deco.origin.(k) + sm.Deco.sizes.(k))
          coords)

let tree_height (d : Deco.t) = Array.fold_left max 0 d.Deco.depth

let make_net ?(seed = 7) ~rows ~cols () = Network.create ~seed ~rows ~cols ()

let make_dsm ?(seed = 7) ~rows ~cols strategy =
  let net = make_net ~seed ~rows ~cols () in
  let dsm = Diva_core.Dsm.create net ~strategy () in
  (net, dsm)

(* The bytes [Streaming.file_sink] writes for [header] and [events]: what
   a recorded run leaves on disk. *)
let trace_file_bytes header events =
  let path = Filename.temp_file "diva_events" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          let sink = Diva_obs.Streaming.file_sink oc header in
          List.iter (Diva_obs.Trace.emit sink) events);
      In_channel.with_open_bin path In_channel.input_all)

(* The header line [Streaming.file_sink] writes for [header]. *)
let header_line header = String.trim (trace_file_bytes header [])

(* Read [line] as the first line of a trace file, the way every trace
   reader parses its header. *)
let read_header_line line =
  let path = Filename.temp_file "diva_header" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc line;
          output_char oc '\n');
      Diva_obs.Streaming.iter_file path ~f:ignore)

(* One pass of the analyzer over an in-memory event list: the summary and
   the peak message-record residency. *)
let analyze_events ?top_k ?num_windows ?ring ov events =
  let t = Diva_obs.Streaming.create ?top_k ?num_windows ?ring ov in
  List.iter (Diva_obs.Streaming.feed t) events;
  (Diva_obs.Streaming.finalize t, Diva_obs.Streaming.peak_msgs t)
