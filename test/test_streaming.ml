(* Tests for the analysis engine (Diva_obs.Streaming): the analyzer
   riding a run as its trace sink must report bit for bit what a fold over
   the finished event list and over the saved trace file report, for every
   app x strategy (faults included); the JSONL trace format must
   round-trip exactly; peak analysis residency must stay bounded while the
   event stream grows with run length. *)

module Network = Diva_simnet.Network
module Machine = Diva_simnet.Machine
module Dsm = Diva_core.Dsm
module Runner = Diva_harness.Runner
module Barnes_hut = Diva_apps.Barnes_hut
module Workload = Diva_workload
module Schedule = Diva_faults.Schedule
module Json = Diva_obs.Json
module Trace = Diva_obs.Trace
module Analysis = Diva_obs.Analysis
module Streaming = Diva_obs.Streaming

let overheads_of (m : Machine.t) =
  { Analysis.send_overhead = m.Machine.send_overhead;
    recv_overhead = m.Machine.recv_overhead;
    local_overhead = m.Machine.local_overhead }

(* Run one app with causal tracing on; return (overheads, events). [live]
   also sees every event as it is emitted. *)
let traced_events ?(faults = Schedule.empty) ?(live = ignore) run =
  let trace = Trace.tee live in
  let obs =
    { Runner.null_obs with Runner.obs_trace = trace; obs_faults = faults }
  in
  let captured = ref None in
  let on_net net = captured := Some net in
  run ~obs ~on_net;
  (overheads_of (Network.machine (Option.get !captured)), Trace.events trace)

let apps =
  [
    ( "matmul",
      fun strategy ~obs ~on_net ->
        ignore
          (Runner.run_matmul ~obs ~on_net ~rows:4 ~cols:4 ~block:64
             (Runner.Strategy strategy)) );
    ( "bitonic",
      fun strategy ~obs ~on_net ->
        ignore
          (Runner.run_bitonic_nd ~obs ~on_net ~dims:[| 4; 4 |] ~keys:32
             (Runner.Strategy strategy)) );
    ( "barnes-hut",
      fun strategy ~obs ~on_net ->
        let cfg =
          { (Barnes_hut.default_config ~nbodies:48) with Barnes_hut.steps = 2 }
        in
        ignore
          (Runner.run_barnes_hut_nd ~obs ~on_net ~dims:[| 2; 2 |] ~cfg strategy)
    );
  ]

let both_strategies =
  [ ("fixed-home", Dsm.Fixed_home); ("4-ary", Dsm.access_tree ~arity:4 ()) ]

let summary_string s = Json.to_string (Analysis.summary_to_json s)

(* [divasim analyze] attaches the analyzer to the run as its sink; here
   it also forgets completed transactions as fast as possible (a one-entry
   ring). Every float of its summary — cost sums, critical path, windows —
   must match a fold over the finished event list bit for bit. *)
let live_and_batch ?faults run =
  let live = Streaming.create ~ring:1 (overheads_of Machine.gcel) in
  let ov, events = traced_events ?faults ~live:(Streaming.feed live) run in
  let batch, peak = Streaming.analyze_events ov events in
  (Streaming.finalize live, batch, peak, events)

let test_stream_equals_batch () =
  List.iter
    (fun (app_name, run) ->
      List.iter
        (fun (sname, strategy) ->
          let label = app_name ^ "/" ^ sname in
          let streamed, batch, peak, _ = live_and_batch (run strategy) in
          Alcotest.(check string)
            (label ^ " summary") (summary_string batch)
            (summary_string streamed);
          Alcotest.(check bool) (label ^ " peak > 0") true (peak > 0))
        both_strategies)
    apps

(* Same property under injected message loss: duplicate deliveries,
   retransmission link crossings after a transaction already completed,
   ack traffic — none of it may perturb the equality. *)
let test_stream_equals_batch_faulted () =
  let sched =
    Schedule.make ~seed:9
      [ Schedule.Msg_drop { prob = 0.1; w = { t0 = 0.0; t1 = 1e9 } } ]
  in
  let streamed, batch, _, events =
    live_and_batch ~faults:sched (fun ~obs ~on_net ->
        ignore
          (Runner.run_matmul ~obs ~on_net ~rows:4 ~cols:4 ~block:64
             (Runner.Strategy (Dsm.access_tree ~arity:4 ()))))
  in
  Alcotest.(check bool)
    "schedule actually lost messages" true
    (List.exists (function Trace.Msg_lost _ -> true | _ -> false) events);
  Alcotest.(check string)
    "faulted summary" (summary_string batch) (summary_string streamed)

(* Analysis memory must not scale with run length: an 8x longer workload
   grows the event stream (and its message count) proportionally, while
   the analyzer's peak record residency stays at the concurrency level of
   the mesh. *)
let workload_events ops =
  let spec =
    Workload.Spec.make ~num_vars:32 ~var_size:64
      ~popularity:Workload.Spec.Uniform
      ~phases:[ Workload.Spec.phase ~read_ratio:0.7 ops ]
      ~seed:5 ()
  in
  let trace = Trace.create () in
  let obs = { Runner.null_obs with Runner.obs_trace = trace } in
  ignore
    (Workload.Generator.run ~obs ~dims:[| 4; 4 |]
       ~strategy:(Dsm.access_tree ~arity:4 ()) spec);
  Trace.events trace

let test_peak_residency_bounded () =
  let ov = overheads_of Machine.gcel in
  let small = workload_events 50 in
  let large = workload_events 400 in
  Alcotest.(check bool) "event stream grew with run length" true
    (List.length large > 3 * List.length small);
  let sends = List.filter (function Trace.Msg_send _ -> true | _ -> false) in
  Alcotest.(check bool) "message count grew with run length" true
    (List.length (sends large) > 3 * List.length (sends small));
  let _, p_small = Streaming.analyze_events ov small in
  let _, p_large = Streaming.analyze_events ov large in
  Alcotest.(check bool)
    (Printf.sprintf "peak residency bounded (small %d, large %d)" p_small
       p_large)
    true
    (p_large <= 2 * p_small);
  (* Eager retirement: once the run is over every transaction has
     completed and every record has been freed. *)
  let t = Streaming.create ov in
  List.iter (Streaming.feed t) large;
  Alcotest.(check int) "all records retired at end of stream" 0
    (Streaming.live_msgs t);
  Alcotest.(check bool) "but residency peaked above zero" true
    (Streaming.peak_msgs t > 0)

(* ------------------------------------------------------------------ *)
(* JSONL trace format                                                   *)
(* ------------------------------------------------------------------ *)

let roundtrip_event e =
  let s = Json.to_string (Trace.event_to_json e) in
  match Json.of_string s with
  | Error err -> Alcotest.failf "reparse failed on %s: %s" s err
  | Ok j -> (
      match Streaming.event_of_json j with
      | Error err -> Alcotest.failf "decode failed on %s: %s" s err
      | Ok e' -> if e' <> e then Alcotest.failf "event drifted through %s" s)

(* Constructors a small fault-free run never emits, with every enum arm. *)
let synthetic_events =
  [
    Trace.Copy_add
      { ts = 1.5; node = 2; var = 0; var_name = "m0"; tnode = 4; level = 1 };
    Trace.Copy_drop
      { ts = 2.0; node = 2; var = 0; var_name = "m0"; tnode = 4; level = 1;
        reason = Trace.Invalidated };
    Trace.Copy_drop
      { ts = 3.0; node = 1; var = 3; var_name = "m3"; tnode = 9; level = 2;
        reason = Trace.Evicted };
    Trace.Remap
      { ts = 12.5; var = 3; var_name = "m3"; tnode = 7; level = 2;
        from_node = 1; to_node = 9 };
    Trace.Msg_lost
      { ts = 4.25; msg = 17; txn = 5; src = 0; dst = 3; size = 64;
        reason = Trace.Loss_random };
    Trace.Msg_lost
      { ts = 4.5; msg = -1; txn = -1; src = 3; dst = 0; size = 0;
        reason = Trace.Loss_link_down };
    Trace.Msg_lost
      { ts = 4.75; msg = 18; txn = 5; src = 0; dst = 3; size = 64;
        reason = Trace.Loss_crashed };
    Trace.Msg_retry
      { ts = 9.0; msg = 17; txn = 5; src = 0; dst = 3; size = 64; attempt = 2 };
    Trace.Dsm_access
      { ts = 10.0; dur = 0.0; node = 1; var = -1; var_name = ""; op = Trace.Lock;
        size = 0; hit = false; txn = 8; completed_by = -1 };
    Trace.Dsm_access
      { ts = 11.0; dur = 2.5; node = 1; var = -1; var_name = ""; op = Trace.Unlock;
        size = 0; hit = false; txn = 9; completed_by = 3 };
    Trace.Dsm_access
      { ts = 12.0; dur = 30.125; node = 0; var = -1; var_name = "";
        op = Trace.Reduce; size = 8; hit = false; txn = 10; completed_by = 4 };
  ]

let test_event_codec_roundtrip () =
  let sched =
    Schedule.make ~seed:9
      [ Schedule.Msg_drop { prob = 0.1; w = { t0 = 0.0; t1 = 1e9 } } ]
  in
  let _, events =
    traced_events ~faults:sched (fun ~obs ~on_net ->
        ignore
          (Runner.run_matmul ~obs ~on_net ~rows:4 ~cols:4 ~block:64
             (Runner.Strategy (Dsm.access_tree ~arity:4 ()))))
  in
  List.iter roundtrip_event events;
  List.iter roundtrip_event synthetic_events

(* A damaged integer field must reject the line, not read back as a
   wrapped int. *)
let test_event_rejects_out_of_range_int () =
  let decode line =
    Result.bind (Json.of_string line) Streaming.event_of_json
  in
  let line id =
    Printf.sprintf
      "{\"e\":\"dlv\",\"ts\":1,\"id\":%s,\"txn\":0,\"h\":2,\"src\":0,\"dst\":1,\"sz\":8}"
      id
  in
  (match decode (line "3") with
  | Ok (Trace.Msg_deliver { id = 3; _ }) -> ()
  | Ok _ -> Alcotest.fail "well-formed line decoded to the wrong event"
  | Error e -> Alcotest.failf "well-formed line rejected: %s" e);
  List.iter
    (fun id ->
      match decode (line id) with
      | Ok _ -> Alcotest.failf "\"id\":%s was accepted" id
      | Error e ->
          Alcotest.(check string)
            ("error for " ^ id) "event: missing or malformed \"id\" field" e)
    [ "1e300"; "-9.3e18" ]

let sample_header () =
  Streaming.make_header
    ~params:[ ("block", Json.Int 64) ]
    ~app:"matmul" ~dims:[| 4; 4 |] ~strategy:"4-ary" ~seed:17
    ~overheads:(overheads_of Machine.gcel) ()

let test_header_roundtrip () =
  let h = sample_header () in
  (match Streaming.parse_header (Json.to_string (Streaming.header_json h)) with
  | Ok h' -> if h' <> h then Alcotest.fail "header drifted through round-trip"
  | Error e -> Alcotest.failf "header parse failed: %s" e);
  let reject what j =
    match Streaming.parse_header (Json.to_string j) with
    | Ok _ -> Alcotest.failf "%s was accepted" what
    | Error _ -> ()
  in
  let fields v =
    match Streaming.header_json h with
    | Json.Obj kvs ->
        Json.Obj
          (List.map
             (fun (k, x) -> if k = "version" then (k, Json.Int v) else (k, x))
             kvs)
    | _ -> assert false
  in
  reject "wrong format" (Json.Obj [ ("format", Json.String "diva-dsm-trace") ]);
  reject "future version" (fields (Streaming.current_version + 1));
  reject "missing overheads"
    (Json.Obj
       [ ("format", Json.String Streaming.format_name);
         ("version", Json.Int Streaming.current_version) ])

(* Full offline path: record a run through the file sink, re-analyze the
   file from scratch, and get the live run's summary back bit for bit. *)
let test_offline_file_roundtrip () =
  let ov, events =
    traced_events (fun ~obs ~on_net ->
        ignore
          (Runner.run_matmul ~obs ~on_net ~rows:4 ~cols:4 ~block:64
             (Runner.Strategy (Dsm.access_tree ~arity:4 ()))))
  in
  let path = Filename.temp_file "diva_events" ".jsonl" in
  let oc = open_out path in
  let sink = Streaming.file_sink oc (sample_header ()) in
  List.iter (Trace.emit sink) events;
  close_out oc;
  (match Streaming.probe path with
  | Ok () -> ()
  | Error e -> Alcotest.failf "probe: %s" e);
  (match Streaming.analyze_file path with
  | Error e -> Alcotest.failf "analyze_file: %s" e
  | Ok (h, summary, peak) ->
      Alcotest.(check string) "header app" "matmul" h.Streaming.h_app;
      Alcotest.(check int) "header seed" 17 h.Streaming.h_seed;
      Alcotest.(check string)
        "offline summary bit-identical"
        (summary_string (fst (Streaming.analyze_events ov events)))
        (summary_string summary);
      Alcotest.(check bool) "peak > 0" true (peak > 0));
  (* Blank lines are skipped by every reader, before the header too. *)
  let padded = Filename.temp_file "diva_events" ".jsonl" in
  Out_channel.with_open_bin padded (fun oc ->
      output_string oc "\n \n";
      output_string oc (In_channel.with_open_bin path In_channel.input_all));
  (match (Streaming.probe padded, Streaming.analyze_file padded) with
  | Ok (), Ok (_, summary, _) ->
      Alcotest.(check string) "leading blank lines skipped"
        (summary_string (fst (Streaming.analyze_events ov events)))
        (summary_string summary)
  | Error e, _ | _, Error e -> Alcotest.failf "padded trace rejected: %s" e);
  Sys.remove padded;
  Sys.remove path

(* Golden file: the JSONL encoding of a fixed small run must stay
   byte-for-byte stable (regenerate with test/gen_golden.exe after an
   intentional format change). *)
let golden_header () =
  Streaming.make_header
    ~params:[ ("block", Json.Int 64) ]
    ~app:"matmul" ~dims:[| 2; 2 |] ~strategy:"4-ary" ~seed:17
    ~overheads:(overheads_of Machine.gcel) ()

let test_events_golden () =
  let tr = Trace.create () in
  ignore
    (Runner.run_matmul ~seed:17 ~rows:2 ~cols:2 ~block:64
       ~obs:{ Runner.null_obs with Runner.obs_trace = tr }
       (Runner.Strategy (Dsm.access_tree ~arity:4 ())));
  let b = Buffer.create 65536 in
  Buffer.add_string b (Json.to_string (Streaming.header_json (golden_header ())));
  Buffer.add_char b '\n';
  List.iter
    (fun e ->
      Buffer.add_string b (Json.to_string (Trace.event_to_json e));
      Buffer.add_char b '\n')
    (Trace.events tr);
  let got = Buffer.contents b in
  let path = "data/golden_events_2x2.jsonl" in
  let ic = open_in_bin path in
  let want = really_input_string ic (in_channel_length ic) in
  close_in ic;
  if got <> want then
    Alcotest.failf
      "event trace encoding drifted from %s (%d vs %d bytes); regenerate \
       with dune exec test/gen_golden.exe if intentional"
      path (String.length got) (String.length want)

(* Binning allocates per window, so the count is capped: above the cap
   [create] raises and [analyze_file] returns an [Error]; at the cap both
   work. *)
let test_windows_capped () =
  let cap = Streaming.max_windows and path = "data/golden_events_2x2.jsonl" in
  (match Streaming.create ~num_windows:(cap + 1) (overheads_of Machine.gcel) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "create accepted too many windows");
  match (Streaming.analyze_file ~num_windows:(cap + 1) path,
         Streaming.analyze_file ~num_windows:cap path) with
  | Error _, Ok (_, s, _) ->
      Alcotest.(check int) "windows at the cap" cap (List.length s.Analysis.sm_windows)
  | _ -> Alcotest.fail "analyze_file must reject only counts above the cap"

let suite =
  [
    Alcotest.test_case "streaming = batch (apps x strategies)" `Quick
      test_stream_equals_batch;
    Alcotest.test_case "streaming = batch under faults" `Quick
      test_stream_equals_batch_faulted;
    Alcotest.test_case "peak residency bounded" `Quick
      test_peak_residency_bounded;
    Alcotest.test_case "event codec round-trip" `Quick
      test_event_codec_roundtrip;
    Alcotest.test_case "event rejects out-of-range int" `Quick
      test_event_rejects_out_of_range_int;
    Alcotest.test_case "header round-trip and rejection" `Quick
      test_header_roundtrip;
    Alcotest.test_case "offline file analysis round-trip" `Quick
      test_offline_file_roundtrip;
    Alcotest.test_case "events golden file" `Quick test_events_golden;
    Alcotest.test_case "window count is capped" `Quick test_windows_capped;
  ]
