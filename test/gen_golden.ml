(* Regenerate the golden observability files under test/data/ after an
   intentional format change:

     dune exec test/gen_golden.exe

   writes into the source tree (run from the repository root). *)

module Runner = Diva_harness.Runner
module Trace = Diva_obs.Trace
module Streaming = Diva_obs.Streaming
module Workload = Diva_workload

let gcel_overheads =
  let m = Diva_simnet.Machine.gcel in
  { Diva_obs.Analysis.send_overhead = m.Diva_simnet.Machine.send_overhead;
    recv_overhead = m.Diva_simnet.Machine.recv_overhead;
    local_overhead = m.Diva_simnet.Machine.local_overhead }

let () =
  let tr = Trace.create () in
  ignore
    (Runner.run_matmul ~seed:17 ~dims:[| 2; 2 |] ~block:64
       ~obs:{ Runner.null_obs with Runner.obs_trace = tr }
       (Runner.Strategy (Diva_core.Dsm.access_tree ~arity:4 ())));
  let path = "test/data/golden_chrome_2x2.json" in
  Diva_obs.Chrome_trace.write_file ~path ~num_nodes:4 (Trace.events tr);
  Printf.printf "wrote %s (%d events)\n" path (Trace.count tr);
  (* Same fixed run, encoded as the versioned JSONL event-trace format
     (header + one event per line); the golden test replays the encoding
     byte for byte. The header must match test_streaming.golden_header. *)
  let header =
    Streaming.make_header
      ~params:[ ("block", Diva_obs.Json.Int 64) ]
      ~app:"matmul" ~dims:[| 2; 2 |] ~strategy:"4-ary" ~seed:17
      ~overheads:gcel_overheads ()
  in
  let path = "test/data/golden_events_2x2.jsonl" in
  let oc = open_out_bin path in
  let sink = Streaming.file_sink oc header in
  List.iter (Trace.emit sink) (Trace.events tr);
  close_out oc;
  Printf.printf "wrote %s (%d events)\n" path (Trace.count tr);
  (* One golden event trace per registry strategy other than the 4-ary
     access tree (whose golden is the file above), same fixed matmul run;
     the byte tests in test_golden_strategies.ml replay these. The header
     names the registry entry, not the display name. *)
  List.iter
    (fun name ->
      let spec =
        match Diva_core.Registry.find name with
        | Some s -> s
        | None -> failwith ("unknown registry strategy: " ^ name)
      in
      let tr = Trace.create () in
      ignore
        (Runner.run_matmul ~seed:17 ~dims:[| 2; 2 |] ~block:64
           ~obs:{ Runner.null_obs with Runner.obs_trace = tr }
           (Runner.Strategy spec));
      let header =
        Streaming.make_header
          ~params:[ ("block", Diva_obs.Json.Int 64) ]
          ~app:"matmul" ~dims:[| 2; 2 |] ~strategy:name ~seed:17
          ~overheads:gcel_overheads ()
      in
      let path = Printf.sprintf "test/data/golden_events_2x2_%s.jsonl" name in
      let oc = open_out_bin path in
      let sink = Streaming.file_sink oc header in
      List.iter (Trace.emit sink) (Trace.events tr);
      close_out oc;
      Printf.printf "wrote %s (%d events)\n" path (Trace.count tr))
    (List.filter (( <> ) "access_tree") (Diva_core.Registry.names ()));
  (* The replay golden: a synthetic workload's event trace cut down to the
     lines replay reads (header, [var], [dsm]), which keeps it small; the
     regression test in test_workload.ml must build the same header. *)
  let spec =
    Workload.Spec.make ~num_vars:32 ~var_size:32 ~lock_every:8
      ~phases:[ Workload.Spec.phase ~read_ratio:0.8 40 ]
      ~seed:11 ()
  in
  let strategy = Diva_core.Dsm.access_tree ~arity:4 () in
  let tr = Trace.create () in
  ignore
    (Workload.Generator.run
       ~obs:{ Runner.null_obs with Runner.obs_trace = tr }
       ~dims:[| 4; 4 |] ~strategy spec);
  let header =
    Streaming.make_header ~params:(Workload.Spec.to_params spec) ~app:"workload"
      ~dims:[| 4; 4 |] ~strategy:(Diva_core.Dsm.strategy_name strategy) ~seed:11
      ~overheads:gcel_overheads ()
  in
  let t = Workload.Replay.of_events ~dims:[| 4; 4 |] ~seed:11 (Trace.events tr) in
  let path = "test/data/golden_workload_4x4.jsonl" in
  let oc = open_out_bin path in
  let sink = Streaming.file_sink oc header in
  List.iter (Trace.emit sink) t.Workload.Replay.events;
  close_out oc;
  Printf.printf "wrote %s (%d ops)\n" path (Workload.Replay.num_ops t)
