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
    ("adaptive-home", Diva_core.Dsm.adaptive ());
    ("4-ary-capacity-lru", Diva_core.Dsm.access_tree ~arity:4 ~capacity:512 ());
    ("4-ary-capacity-freq",
     Diva_core.Dsm.access_tree ~arity:4 ~capacity:512
       ~eviction:Diva_core.Strategy.Freq ());
  ]

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
