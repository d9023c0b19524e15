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
          (Runner.run_matmul ~obs ~on_net ~dims:[| 4; 4 |] ~block:64
             (Runner.Strategy strategy)) );
    ( "bitonic",
      fun strategy ~obs ~on_net ->
        ignore
          (Runner.run_bitonic ~obs ~on_net ~dims:[| 4; 4 |] ~keys:32
             (Runner.Strategy strategy)) );
    ( "barnes-hut",
      fun strategy ~obs ~on_net ->
        let cfg =
          { (Barnes_hut.default_config ~nbodies:48) with Barnes_hut.steps = 2 }
        in
        ignore
          (Runner.run_barnes_hut ~obs ~on_net ~dims:[| 2; 2 |] ~cfg strategy)
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
  let batch, peak = Helpers.analyze_events ov events in
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
          (Runner.run_matmul ~obs ~on_net ~dims:[| 4; 4 |] ~block:64
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
  let _, p_small = Helpers.analyze_events ov small in
  let _, p_large = Helpers.analyze_events ov large in
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

(* A send whose id is already live keeps the first send's record: the
   repeat counts as traffic but is not retained again, under its own
   transaction or another, so each transaction's message list stays
   acyclic and every record is freed at completion. *)
let test_repeated_send_id () =
  let send ~id ~parent ~txn ~ts ~inject =
    Trace.Msg_send
      { ts; id; parent; txn; inject; level = 0; src = 0; dst = 1; size = 8;
        local = false }
  and access ~txn ~completed_by op =
    Trace.Dsm_access
      { ts = 0.0; dur = 10.0; node = 0; var = 0; var_name = "v"; op; size = 8;
        hit = false; txn; completed_by }
  in
  let t = Streaming.create (overheads_of Machine.gcel) in
  List.iter (Streaming.feed t)
    [ send ~id:1 ~parent:(-1) ~txn:0 ~ts:0.0 ~inject:1.0;
      send ~id:2 ~parent:1 ~txn:0 ~ts:2.0 ~inject:3.0;
      send ~id:3 ~parent:1 ~txn:0 ~ts:2.0 ~inject:3.0;
      send ~id:2 ~parent:1 ~txn:0 ~ts:5.0 ~inject:9.0;
      send ~id:3 ~parent:(-1) ~txn:1 ~ts:5.0 ~inject:6.0;
      access ~txn:1 ~completed_by:3 Trace.Read;
      access ~txn:0 ~completed_by:2 Trace.Write ];
  Alcotest.(check int) "repeats are not retained" 3 (Streaming.peak_msgs t);
  Alcotest.(check int) "every record freed" 0 (Streaming.live_msgs t);
  let s = Streaming.finalize t in
  Alcotest.(check int) "repeats count as traffic" 5 s.Analysis.sm_num_msgs;
  let side_msgs op =
    match List.find_opt (fun r -> r.Analysis.or_op = op) s.Analysis.sm_ops with
    | Some r -> r.Analysis.or_side_msgs
    | None -> Alcotest.failf "no %s row" (Analysis.op_name op)
  in
  Alcotest.(check int) "the other transaction got no record" 0
    (side_msgs Trace.Read);
  Alcotest.(check int) "one side message: id 3, once" 1 (side_msgs Trace.Write)

(* Analyzer footprint gate, on an 8x8 matmul with 256-int blocks under
   the 4-ary access tree, measured with Obj.reachable_words:
   - live words per retained message record at the record peak, with no
     windows: 20.18 (gate 20.3). It read 30.50 when each record held
     boxed times, an option for the handled time, a doubling crossing
     array and a cons cell in its transaction's id list;
   - window state per link at the end of the stream (the 8-window
     analyzer minus the windowless one, over the links crossed): 15.29
     words, one chunk of 8 sums (9), the one-slot array that holds it
     (2), its table entry (4) and the table's share (gate 15.4). The
     analyzer kept every crossing in 3.45 words until the end before,
     3.11 on the 16x16 matmul of the postmortem benchmark. *)
let test_analyzer_footprint_gate () =
  let ov, events =
    traced_events (fun ~obs ~on_net ->
        ignore
          (Runner.run_matmul ~obs ~on_net ~dims:[| 8; 8 |] ~block:256
             (Runner.Strategy (Dsm.access_tree ~arity:4 ()))))
  in
  let words t = Obj.reachable_words (Obj.repr t) in
  let fold ?(upto = max_int) num_windows =
    let t = Streaming.create ~num_windows ov in
    List.iteri (fun i e -> if i <= upto then Streaming.feed t e) events;
    t
  in
  let peak_at = ref 0 in
  let t = Streaming.create ~num_windows:0 ov in
  List.iteri
    (fun i e ->
      let p = Streaming.peak_msgs t in
      Streaming.feed t e;
      if Streaming.peak_msgs t > p then peak_at := i)
    events;
  let at_peak = fold ~upto:!peak_at 0 in
  let live = Streaming.live_msgs at_peak in
  Alcotest.(check int) "folded to the peak" (Streaming.peak_msgs t) live;
  let per_record =
    float_of_int (words at_peak - words (Streaming.create ~num_windows:0 ov))
    /. float_of_int live
  in
  let links =
    List.length
      (List.sort_uniq compare
         (List.filter_map
            (function
              | Trace.Link_xfer { msg; link; _ } when msg >= 0 -> Some link
              | _ -> None)
            events))
  in
  let per_link =
    float_of_int (words (fold 8) - words (fold 0)) /. float_of_int links
  in
  if per_record > 20.3 || per_link > 15.4 then
    Alcotest.failf
      "%.2f words per live message record (gate 20.3), %.3f of window \
       state per link (gate 15.4)"
      per_record per_link

(* The window fold keeps nothing per crossing: 20 000 and 200 000
   crossings on 16 links leave the analyzer the same size. It grew by 3
   words per crossing when every crossing was kept until [finalize]. *)
let test_window_fold_constant () =
  let t = Streaming.create ~num_windows:8 (overheads_of Machine.gcel) in
  let feed_upto = ref 0 in
  let feed_to n =
    for i = !feed_upto to n - 1 do
      let start = float_of_int i in
      Streaming.feed t
        (Trace.Link_xfer
           { start; finish = start +. 5.0; link = i mod 16; msg = i; txn = -1;
             level = 0; src = 0; dst = 1; size = 64 })
    done;
    feed_upto := n;
    Obj.reachable_words (Obj.repr t)
  in
  let w20k = feed_to 20_000 in
  let w200k = feed_to 200_000 in
  if abs (w200k - w20k) > 4 then
    Alcotest.failf "analyzer grew from %d words after 20 000 crossings to %d \
                    after 200 000" w20k w200k

(* ------------------------------------------------------------------ *)
(* JSONL trace format                                                   *)
(* ------------------------------------------------------------------ *)

let encode e =
  let b = Buffer.create 256 in
  Trace.add_event b e;
  Buffer.contents b

(* An event line decodes to the event it encodes (and re-encodes to the
   same bytes), and the reference tree-path decoder agrees. *)
let roundtrip_event e =
  let s = encode e in
  match Streaming.event_of_line s with
  | Error err -> Alcotest.failf "decode failed on %s: %s" s err
  | Ok e' ->
      if e' <> e then Alcotest.failf "event drifted through %s" s;
      Alcotest.(check string) "re-encoded bytes" s (encode e');
      if Event_ref.decode s <> Ok e' then
        Alcotest.failf "reference decoder disagrees on %s" s

(* Every constructor and every enum arm, with names that need escaping
   and the float spellings the writer has: -0.0 (written as 0),
   negative, integral at and above 1e15, and non-integral ones. *)
let synthetic_events =
  let dsm op hit =
    Trace.Dsm_access
      { ts = 10.0; dur = (if hit then 0.0 else 2.5); node = 1; var = 4;
        var_name = "m4"; op; size = 64; hit; txn = (if hit then -1 else 8);
        completed_by = (if hit then -1 else 3) }
  in
  [
    Trace.Msg_send
      { ts = 0.1; id = 0; parent = -1; txn = -1; inject = 1e15; level = -1;
        src = 0; dst = 3; size = 64; local = false };
    Trace.Msg_send
      { ts = -0.0; id = max_int; parent = min_int; txn = 7; inject = -2.5;
        level = 2; src = 1; dst = 1; size = 0; local = true };
    Trace.Msg_deliver
      { ts = 123456789012345.0; id = 4; txn = 5; handled = 1.0 /. 3.0;
        src = 0; dst = 3; size = 64 };
    Trace.Link_xfer
      { start = 2.0e15; finish = 2.0e15 +. 0.5; link = 6; msg = -1; txn = -1;
        level = -1; src = 3; dst = 0; size = 0 };
    Trace.Var_decl
      { ts = 0.0; var = 0; var_name = "q\"uo\\te\n\t\001\031\127 \xc3\xa9/";
        size = 8; owner = 2 };
    Trace.Var_decl { ts = 1e300; var = 1; var_name = ""; size = 0; owner = 0 };
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
    dsm Trace.Read true;
    dsm Trace.Read false;
    dsm Trace.Write false;
    dsm Trace.Lock false;
    dsm Trace.Unlock false;
    dsm Trace.Barrier false;
    dsm Trace.Reduce false;
  ]

let test_event_codec_roundtrip () =
  List.iter roundtrip_event synthetic_events;
  (* -0.0 has one spelling, and non-integral floats print round-trip
     exactly. *)
  let line = encode (List.nth synthetic_events 1) in
  Alcotest.(check bool) "-0.0 written as 0" true
    (String.starts_with ~prefix:{|{"e":"send","ts":0,|} line);
  match Streaming.event_of_line (encode (List.nth synthetic_events 2)) with
  | Ok (Trace.Msg_deliver { handled; _ }) ->
      Alcotest.(check bool) "1/3 bit for bit" true
        (Int64.equal (Int64.bits_of_float handled)
           (Int64.bits_of_float (1.0 /. 3.0)))
  | _ -> Alcotest.fail "delivery did not decode"

(* A damaged integer field must reject the line, not read back as a
   wrapped int. *)
let test_event_rejects_out_of_range_int () =
  let decode = Streaming.event_of_line in
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

(* The line grammar beyond what the writer emits: member order, padding,
   unknown members of every JSON type, duplicates (the first wins),
   escapes in names and values, and integral floats in int fields. Each
   case is checked against its expected outcome and against the
   reference tree-path decoder (the same event or the same error). *)
let test_event_line_grammar () =
  let want =
    Trace.Msg_deliver
      { ts = 1.0; id = 3; txn = 0; handled = 2.5; src = 0; dst = 1; size = 8 }
  in
  let check what expect line =
    let got = Streaming.event_of_line line in
    (match (expect, got) with
    | Some e, Ok e' when e = e' -> ()
    | None, Error _ -> ()
    | _, Ok _ -> Alcotest.failf "%s: %S decoded to another outcome" what line
    | _, Error err -> Alcotest.failf "%s: %S rejected: %s" what line err);
    match (got, Event_ref.decode line) with
    | Ok e, Ok e' when e = e' -> ()
    | Error m, Error m' when m = m' -> ()
    | _ -> Alcotest.failf "%s: %S: reference decoder disagrees" what line
  in
  let ok = Some want in
  check "canonical" ok
    {|{"e":"dlv","ts":1,"id":3,"txn":0,"h":2.5,"src":0,"dst":1,"sz":8}|};
  check "reversed" ok
    {|{"sz":8,"dst":1,"src":0,"h":2.5,"txn":0,"id":3,"ts":1,"e":"dlv"}|};
  check "padded" ok
    " \t{ \"e\" :\"dlv\" ,\"ts\":1 ,\n\"id\": 3,\"txn\":0,\"h\":2.5,\"src\":0,\"dst\":1,\"sz\":8 }\r\n ";
  check "unknown members" ok
    {|{"x":null,"e":"dlv","y":[1,{"a":[]},"s"],"ts":1,"z":{"q":"w\n"},"id":3,"b":true,"txn":0,"f2":-1.5e3,"h":2.5,"s":"str","src":0,"dst":1,"sz":8,"loc":false}|};
  check "first duplicate wins" ok
    {|{"e":"dlv","ts":1,"id":3,"txn":0,"h":2.5,"src":0,"dst":1,"sz":8,"id":4,"e":"send"}|};
  check "malformed first duplicate" None
    {|{"e":"dlv","ts":1,"id":"3","txn":0,"h":2.5,"src":0,"dst":1,"sz":8,"id":3}|};
  check "escaped names and values" ok
    {|{"\u0065":"d\u006cv","t\u0073":1,"id":3,"txn":0,"h":2.5,"src":0,"dst":1,"sz":8}|};
  check "integral floats in int fields" ok
    {|{"e":"dlv","ts":1,"id":3.0,"txn":0e0,"h":2.5,"src":-0.0,"dst":0.1e1,"sz":8}|};
  check "non-integral int field" None
    {|{"e":"dlv","ts":1,"id":3.5,"txn":0,"h":2.5,"src":0,"dst":1,"sz":8}|};
  check "bool in an int field" None
    {|{"e":"dlv","ts":1,"id":true,"txn":0,"h":2.5,"src":0,"dst":1,"sz":8}|};
  check "null in a float field" None
    {|{"e":"dlv","ts":null,"id":3,"txn":0,"h":2.5,"src":0,"dst":1,"sz":8}|};
  check "string in a float field" None
    {|{"e":"dlv","ts":"1","id":3,"txn":0,"h":2.5,"src":0,"dst":1,"sz":8}|};
  check "missing field" None
    {|{"e":"dlv","ts":1,"id":3,"txn":0,"h":2.5,"src":0,"dst":1}|};
  check "trailing garbage" None
    {|{"e":"dlv","ts":1,"id":3,"txn":0,"h":2.5,"src":0,"dst":1,"sz":8}x|};
  List.iter (check "not an object" None)
    [ "[1]"; "3"; {|"dlv"|}; "null"; "{}"; ""; "[1,"; {|""x|}; "tru" ];
  Alcotest.(check (result reject string))
    "field error text" (Error {|event: missing or malformed "sz" field|})
    (Result.map ignore
       (Streaming.event_of_line {|{"e":"dlv","ts":1,"id":3,"txn":0,"h":2,"src":0,"dst":1}|}));
  Alcotest.(check (result reject string))
    "tag error text" (Error {|event: unknown tag "dl"|})
    (Result.map ignore (Streaming.event_of_line {|{"e":"dl"}|}))

let sample_header () =
  Streaming.make_header
    ~params:[ ("block", Json.Int 64) ]
    ~app:"matmul" ~dims:[| 4; 4 |] ~strategy:"4-ary" ~seed:17
    ~overheads:(overheads_of Machine.gcel) ()

let test_header_roundtrip () =
  let h = sample_header () in
  (match Helpers.read_header_line (Helpers.header_line h) with
  | Ok h' -> if h' <> h then Alcotest.fail "header drifted through round-trip"
  | Error e -> Alcotest.failf "header parse failed: %s" e);
  let reject what j =
    match Helpers.read_header_line (Json.to_string j) with
    | Ok _ -> Alcotest.failf "%s was accepted" what
    | Error _ -> ()
  in
  let fields v =
    match Json.of_string (Helpers.header_line h) with
    | Ok (Json.Obj kvs) ->
        Json.Obj
          (List.map
             (fun (k, x) -> if k = "version" then (k, Json.Int v) else (k, x))
             kvs)
    | _ -> assert false
  in
  reject "wrong format" (Json.Obj [ ("format", Json.String "diva-dsm-trace") ]);
  reject "future version" (fields (h.Streaming.h_version + 1));
  reject "missing overheads"
    (Json.Obj
       [ ("format", Json.String Streaming.format_name);
         ("version", Json.Int h.Streaming.h_version) ])

(* Full offline path: record a run through the file sink, re-analyze the
   file from scratch, and get the live run's summary back bit for bit, at
   the default window count and at the cap, where binning runs over many
   windows and many chunks of retained crossings. *)
let test_offline_file_roundtrip () =
  let ov, events =
    traced_events (fun ~obs ~on_net ->
        ignore
          (Runner.run_matmul ~obs ~on_net ~dims:[| 4; 4 |] ~block:64
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
  List.iter
    (fun num_windows ->
      match Streaming.analyze_file ?num_windows path with
      | Error e -> Alcotest.failf "analyze_file: %s" e
      | Ok (h, summary, peak) ->
          Alcotest.(check string) "header app" "matmul" h.Streaming.h_app;
          Alcotest.(check int) "header seed" 17 h.Streaming.h_seed;
          Alcotest.(check string)
            "offline summary bit-identical"
            (summary_string
               (fst (Helpers.analyze_events ?num_windows ov events)))
            (summary_string summary);
          Alcotest.(check bool) "peak > 0" true (peak > 0))
    [ None; Some Streaming.max_windows ];
  (* Blank lines are skipped by every reader, before the header too. *)
  let padded = Filename.temp_file "diva_events" ".jsonl" in
  Out_channel.with_open_bin padded (fun oc ->
      output_string oc "\n \n";
      output_string oc (In_channel.with_open_bin path In_channel.input_all));
  (match (Streaming.probe padded, Streaming.analyze_file padded) with
  | Ok (), Ok (_, summary, _) ->
      Alcotest.(check string) "leading blank lines skipped"
        (summary_string (fst (Helpers.analyze_events ov events)))
        (summary_string summary)
  | Error e, _ | _, Error e -> Alcotest.failf "padded trace rejected: %s" e);
  Sys.remove padded;
  Sys.remove path

(* A faulted run recorded through the file sink reads back through the
   file reader as exactly the events the run emitted, including losses,
   retransmissions and ack crossings (no send of their own: msg -1). *)
let test_faulted_file_roundtrip () =
  let sched =
    Schedule.make ~seed:9
      [ Schedule.Msg_drop { prob = 0.1; w = { t0 = 0.0; t1 = 1e9 } } ]
  in
  let path = Filename.temp_file "diva_events" ".jsonl" in
  let oc = open_out_bin path in
  let file = Streaming.file_sink oc (sample_header ()) in
  let _, events =
    traced_events ~faults:sched ~live:(Trace.emit file) (fun ~obs ~on_net ->
        ignore
          (Runner.run_matmul ~obs ~on_net ~dims:[| 4; 4 |] ~block:64
             (Runner.Strategy (Dsm.access_tree ~arity:4 ()))))
  in
  close_out oc;
  let has p = List.exists p events in
  Alcotest.(check bool) "trace has losses" true
    (has (function Trace.Msg_lost _ -> true | _ -> false));
  Alcotest.(check bool) "trace has retries" true
    (has (function Trace.Msg_retry _ -> true | _ -> false));
  Alcotest.(check bool) "trace has ack crossings" true
    (has (function Trace.Link_xfer { msg = -1; _ } -> true | _ -> false));
  let back = ref [] in
  (match Streaming.iter_file path ~f:(fun e -> back := e :: !back) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "iter_file: %s" e);
  Sys.remove path;
  Alcotest.(check int) "event count" (List.length events) (List.length !back);
  if List.rev !back <> events then
    Alcotest.fail "events read back differ from the events emitted"

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
    (Runner.run_matmul ~seed:17 ~dims:[| 2; 2 |] ~block:64
       ~obs:{ Runner.null_obs with Runner.obs_trace = tr }
       (Runner.Strategy (Dsm.access_tree ~arity:4 ())));
  let got = Helpers.trace_file_bytes (golden_header ()) (Trace.events tr) in
  let path = "data/golden_events_2x2.jsonl" in
  let ic = open_in_bin path in
  let want = really_input_string ic (in_channel_length ic) in
  close_in ic;
  if got <> want then
    Alcotest.failf
      "event trace encoding drifted from %s (%d vs %d bytes); regenerate \
       with dune exec test/gen_golden.exe if intentional"
      path (String.length got) (String.length want)

(* Every link holds one sum per window, so the count is capped: above
   the cap [create] raises and [analyze_file] returns an [Error]; at the
   cap both work, with at most the cap's number of windows. *)
let test_windows_capped () =
  let cap = Streaming.max_windows and path = "data/golden_events_2x2.jsonl" in
  (match Streaming.create ~num_windows:(cap + 1) (overheads_of Machine.gcel) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "create accepted too many windows");
  match (Streaming.analyze_file ~num_windows:(cap + 1) path,
         Streaming.analyze_file ~num_windows:cap path) with
  | Error _, Ok (_, s, _) ->
      let k = List.length s.Analysis.sm_windows in
      Alcotest.(check bool)
        (Printf.sprintf "%d windows at the cap" k)
        true
        (k >= 1 && k <= cap)
  | _ -> Alcotest.fail "analyze_file must reject only counts above the cap"

(* Hostile input: every prefix of every golden trace line, and every
   single-byte replacement from an alphabet of JSON's structural and
   numeric characters, decodes without raising, and exactly as the
   reference tree-path decoder does: the same event, or the same
   error. *)
let test_line_decoder_hostile () =
  let lines =
    List.sort_uniq compare
      (List.concat_map
         (fun f ->
           if String.starts_with ~prefix:"golden_events_2x2" f then
             String.split_on_char '\n'
               (In_channel.with_open_bin (Filename.concat "data" f)
                  In_channel.input_all)
           else [])
         (Array.to_list (Sys.readdir "data")))
  in
  let checked = ref 0 in
  let agree what s =
    incr checked;
    match (Streaming.event_of_line s, Event_ref.decode s) with
    | Ok e, Ok e' when e = e' -> ()
    | Error m, Error m' when m = m' -> ()
    | _ -> Alcotest.failf "%s %S: decoders disagree" what s
    | exception exn ->
        Alcotest.failf "%s %S raised %s" what s (Printexc.to_string exn)
  in
  List.iter
    (fun line ->
      for n = 0 to String.length line do
        agree "prefix" (String.sub line 0 n)
      done;
      String.iteri
        (fun i c ->
          List.iter
            (fun c' ->
              if c' <> c then begin
                let b = Bytes.of_string line in
                Bytes.set b i c';
                agree "mutant" (Bytes.to_string b)
              end)
            [ '"'; '\\'; '{'; '}'; ','; ':'; '-'; '.'; 'e'; '0'; ' '; '\000' ])
        line)
    lines;
  Alcotest.(check bool) "inputs checked" true (!checked > 100_000)

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
    Alcotest.test_case "faulted run file round-trip" `Quick
      test_faulted_file_roundtrip;
    Alcotest.test_case "line decoder on hostile input" `Quick
      test_line_decoder_hostile;
    Alcotest.test_case "event line grammar" `Quick test_event_line_grammar;
    Alcotest.test_case "repeated send id keeps the first" `Quick
      test_repeated_send_id;
    Alcotest.test_case "analyzer footprint gate" `Quick
      test_analyzer_footprint_gate;
    Alcotest.test_case "window fold keeps nothing per crossing" `Quick
      test_window_fold_constant;
  ]
