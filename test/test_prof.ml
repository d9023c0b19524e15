(* Self-profiler, flight recorder, domain telemetry, prometheus
   exposition and trace merging: the observability additions must be
   provably free — profiled/recorded runs byte-identical to bare ones —
   and their artifacts well-formed and deterministic. *)

module Runner = Diva_harness.Runner
module Trace = Diva_obs.Trace
module Metrics = Diva_obs.Metrics
module Prof = Diva_obs.Prof
module Flight = Diva_obs.Flight
module Streaming = Diva_obs.Streaming
module Json = Diva_obs.Json
module Schedule = Diva_faults.Schedule
module Traffic = Diva_simnet.Traffic
module Par_engine = Diva_simnet.Par_engine

let strategy = Diva_core.Dsm.access_tree ~arity:4 ()

let run_matmul ?(obs = Runner.null_obs) () =
  Runner.run_matmul ~dims:[| 4; 4 |] ~block:64 ~obs (Runner.Strategy strategy)

let check_same_measurements what (a : Runner.measurements)
    (b : Runner.measurements) =
  Alcotest.(check (float 0.0)) (what ^ ": time") a.Runner.time b.Runner.time;
  Alcotest.(check int)
    (what ^ ": congestion msgs")
    a.Runner.congestion_msgs b.Runner.congestion_msgs;
  Alcotest.(check int)
    (what ^ ": total msgs") a.Runner.total_msgs b.Runner.total_msgs;
  Alcotest.(check int)
    (what ^ ": total bytes") a.Runner.total_bytes b.Runner.total_bytes;
  Alcotest.(check int) (what ^ ": startups") a.Runner.startups b.Runner.startups;
  Alcotest.(check int)
    (what ^ ": dsm reads") a.Runner.dsm_reads b.Runner.dsm_reads

let tmp_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "diva_test_%s_%d" name (Unix.getpid ()))

(* ------------------------------------------------------------------ *)
(* Prof                                                                 *)
(* ------------------------------------------------------------------ *)

(* A profiled run must not perturb the simulation: every measurement and
   the full event stream are identical with the profiler attached. *)
let test_prof_zero_perturbation () =
  let tr_plain = Trace.create () in
  let plain =
    run_matmul ~obs:{ Runner.null_obs with Runner.obs_trace = tr_plain } ()
  in
  let p = Prof.create () in
  let tr_prof = Trace.create () in
  let profiled =
    run_matmul
      ~obs:
        { Runner.null_obs with
          Runner.obs_trace = tr_prof;
          obs_prof = Some p }
      ()
  in
  Prof.disarm p;
  check_same_measurements "profiled" plain profiled;
  Alcotest.(check bool) "identical event streams" true
    (Trace.events tr_plain = Trace.events tr_prof);
  Alcotest.(check bool) "window series recorded" true
    (Prof.series_rows (Prof.to_json p) <> [])

let test_prof_series_and_json () =
  let p = Prof.create () in
  for i = 1 to 40 do
    Prof.sample p ~sim_us:(float_of_int i *. Prof.window_us) ~events:(i * 10)
  done;
  let doc = Prof.to_json p in
  let rows = Prof.series_rows doc in
  Alcotest.(check int) "series_rows count" 40 (List.length rows);
  let sims = List.map (fun (s, _, _) -> s) rows in
  Alcotest.(check bool) "monotone sim stamps" true
    (List.sort compare sims = sims);
  List.iter
    (fun (_, rate, heap) ->
      Alcotest.(check bool) "rate non-negative" true (rate >= 0.0);
      Alcotest.(check bool) "heap non-negative" true (heap >= 0.0))
    rows;
  (* The Gc.quick_stat amortization must still fill every row: heap_words
     is carried forward, never left at zero after the first row. *)
  (match rows with
  | (_, _, h0) :: _ -> Alcotest.(check bool) "first row has heap" true (h0 > 0.0)
  | [] -> Alcotest.fail "no rows");
  match Prof.report doc with
  | Ok s ->
      Alcotest.(check bool) "report mentions schema" true
        (String.length s > 0
        && String.sub s 0 (String.length "profile") = "profile")
  | Error e -> Alcotest.fail e

let test_prof_subsystems_and_regions () =
  let p = Prof.create () in
  Alcotest.(check bool) "starts in host" true (Prof.cur_sub p = Prof.Host);
  Prof.set_sub p Prof.Strategy;
  Alcotest.(check bool) "set_sub" true (Prof.cur_sub p = Prof.Strategy);
  let r = Prof.with_sub p Prof.Analysis (fun () -> Prof.cur_sub p) in
  Alcotest.(check bool) "with_sub inside" true (r = Prof.Analysis);
  Alcotest.(check bool) "with_sub restores" true
    (Prof.cur_sub p = Prof.Strategy);
  ignore (Prof.region p "phase_a" (fun () -> 42));
  ignore (Prof.region p "phase_a" (fun () -> 43));
  ignore (Prof.region p "phase_b" (fun () -> 44));
  match Json.member "regions" (Prof.to_json p) with
  | Some (Json.Obj regions) ->
      Alcotest.(check (list string)) "regions accumulate by name"
        [ "phase_a"; "phase_b" ] (List.map fst regions)
  | _ -> Alcotest.fail "regions section missing"

let test_prof_report_rejects_other_schema () =
  (match Prof.report (Json.Obj [ ("schema", Json.String "bogus/9") ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a non-prof document");
  match Prof.report (Json.Obj []) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a schema-less document"

(* A fiber resumes inside the handler that completes its operation: after
   a read miss, the strategy's reply handler. Host time the fiber then
   spends is its own and must book to [App], not to [Strategy]; the
   profile document must carry the new key through a write and a parse. *)
let test_prof_books_fiber_to_app () =
  let module Network = Diva_simnet.Network in
  let module Dsm = Diva_core.Dsm in
  let net = Network.create ~rows:2 ~cols:2 () in
  let p = Prof.create ~sample_period_s:0.002 () in
  Network.attach_prof net p;
  let dsm = Dsm.create net ~strategy () in
  let v = Dsm.create_var dsm ~owner:3 ~size:8 0 in
  let burn_s = 0.2 in
  Network.spawn net 0 (fun () ->
      ignore (Dsm.read dsm 0 v : int);
      let t0 = Sys.time () in
      while Sys.time () -. t0 < burn_s do
        ignore (Sys.opaque_identity (Array.make 8 0))
      done);
  Network.run net;
  Alcotest.(check int) "the read missed" 0 (Dsm.read_hits dsm);
  let doc =
    match Json.of_string (Json.to_string (Prof.to_json p)) with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  let count name =
    match Option.bind (Json.member "subsystems" doc) (Json.member name) with
    | Some c -> Option.value ~default:(-1) (Json.to_int c)
    | None -> Alcotest.failf "subsystem %S missing from the profile" name
  in
  let app = count "app" and strategy = count "strategy" in
  let total =
    List.fold_left (fun a s -> a + count s) 0
      [ "host"; "event_loop"; "dispatch"; "protocol"; "strategy"; "analysis";
        "app" ]
  in
  (* The sampler's period is rounded up to the kernel's timer tick, so
     count shares rather than expect [burn_s / period] samples. *)
  if app < 10 || app * 10 < total * 8 then
    Alcotest.failf "app booked %d of %d samples" app total;
  if strategy * 10 > app then
    Alcotest.failf "strategy booked %d samples against app's %d" strategy app;
  match Prof.report doc with
  | Ok r ->
      Alcotest.(check bool) "report lists app" true
        (List.exists
           (fun l ->
             String.length l > 8 && String.sub (String.trim l) 0 4 = "app ")
           (String.split_on_char '\n' r))
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                      *)
(* ------------------------------------------------------------------ *)

let decl i =
  Trace.Var_decl
    { ts = float_of_int i; var = i; var_name = Printf.sprintf "v%d" i;
      size = 8; owner = 0 }

(* Dump [fl] and read the document back. *)
let dump_doc fl ~reason =
  Flight.dump fl ~reason;
  let s = In_channel.with_open_bin (Flight.path fl) In_channel.input_all in
  Sys.remove (Flight.path fl);
  match Json.of_string s with Ok j -> j | Error e -> Alcotest.fail e

let member_int name j =
  match Option.bind (Json.member name j) Json.to_int with
  | Some n -> n
  | None -> Alcotest.failf "no int member %S" name

let test_flight_ring_rotation () =
  let fl = Flight.create ~path:(tmp_path "ring") () in
  let sink = Flight.wrap fl Trace.null in
  for i = 0 to 519 do
    Trace.emit sink (decl i)
  done;
  let doc = dump_doc fl ~reason:"probe" in
  Alcotest.(check int) "total recorded" 520 (member_int "events_recorded" doc);
  Alcotest.(check int) "ring capacity" 512 (member_int "ring_capacity" doc);
  let ids =
    match Json.member "events" doc with
    | Some (Json.List kept) -> List.map (member_int "v") kept
    | _ -> Alcotest.fail "dump has no events"
  in
  Alcotest.(check (list int)) "oldest evicted, order preserved"
    (List.init 512 (fun i -> i + 8)) ids

(* The wrapped sink records into the ring AND feeds the original sink
   unchanged; arming the recorder does not perturb the run. *)
let test_flight_wrap_identity () =
  let plain_tr = Trace.create () in
  let plain =
    run_matmul ~obs:{ Runner.null_obs with Runner.obs_trace = plain_tr } ()
  in
  let fl = Flight.create ~path:(tmp_path "wrap") () in
  (* [wrap] replaces the sink (own buffer); keep only the wrapped value. *)
  let wrapped = Flight.wrap fl (Trace.create ()) in
  let armed =
    run_matmul
      ~obs:
        { Runner.null_obs with
          Runner.obs_trace = wrapped;
          obs_flight = Some fl }
      ()
  in
  check_same_measurements "flight-armed" plain armed;
  Alcotest.(check bool) "wrapped sink buffers the same stream" true
    (Trace.events plain_tr = Trace.events wrapped);
  Alcotest.(check bool) "health snapshots taken" true
    (Flight.snapshots fl <> []);
  Alcotest.(check bool) "ring saw the run" true
    (member_int "events_recorded" (dump_doc fl ~reason:"probe") > 0)

let test_flight_dump_first_trigger_wins () =
  let path = tmp_path "dump" in
  let fl = Flight.create ~path () in
  Trace.emit (Flight.wrap fl Trace.null) (decl 1);
  Alcotest.(check bool) "not dumped yet" false (Flight.dumped fl);
  Flight.dump fl ~reason:"first failure";
  Alcotest.(check bool) "dumped" true (Flight.dumped fl);
  Flight.dump fl ~reason:"second failure";
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  let doc =
    match Json.of_string s with Ok j -> j | Error e -> Alcotest.fail e
  in
  (match Option.bind (Json.member "reason" doc) Json.to_str with
  | Some r -> Alcotest.(check string) "first reason wins" "first failure" r
  | None -> Alcotest.fail "dump has no reason");
  (match Json.member "events" doc with
  | Some (Json.List [ ev ]) ->
      let line = Buffer.create 64 in
      Trace.add_event line (decl 1);
      Alcotest.(check string) "events written as trace lines"
        (Buffer.contents line) (Json.to_string ev)
  | _ -> Alcotest.fail "dump must hold the one recorded event");
  match Flight.report doc with
  | Ok rendered ->
      Alcotest.(check bool) "report renders" true (String.length rendered > 0)
  | Error e -> Alcotest.fail e

let test_flight_dump_on_error () =
  let fl = Flight.create ~path:(tmp_path "err") () in
  Flight.dump_on_error fl ~label:"oracle" (Ok 42);
  Alcotest.(check bool) "Ok does not dump" false (Flight.dumped fl);
  Alcotest.(check bool) "no file written" false
    (Sys.file_exists (Flight.path fl));
  Flight.dump_on_error fl ~label:"oracle" (Error "copies diverged");
  Alcotest.(check bool) "Error dumps" true (Flight.dumped fl);
  let doc =
    match
      Json.of_string
        (In_channel.with_open_bin (Flight.path fl) In_channel.input_all)
    with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  Sys.remove (Flight.path fl);
  (match Option.bind (Json.member "schema" doc) Json.to_str with
  | Some s -> Alcotest.(check string) "schema" "diva-flight/1" s
  | None -> Alcotest.fail "no schema");
  match Option.bind (Json.member "reason" doc) Json.to_str with
  | Some r -> Alcotest.(check string) "reason" "oracle: copies diverged" r
  | None -> Alcotest.fail "no reason"

(* Drop-heavy faults force DSM watchdog trips; with [dump_on_watchdog]
   the first trip must write the dump (Runner wires the trigger), and the
   armed recorder must not change what the simulation computes. *)
let drop_schedule =
  Schedule.make ~seed:9 ~patience_us:5_000.0
    [ Schedule.Msg_drop { prob = 0.5; w = { t0 = 0.0; t1 = 1e9 } } ]

let test_flight_dump_on_watchdog () =
  let plain =
    run_matmul
      ~obs:{ Runner.null_obs with Runner.obs_faults = drop_schedule }
      ()
  in
  let path = tmp_path "watchdog" in
  let fl = Flight.create ~dump_on_watchdog:true ~path () in
  let armed =
    run_matmul
      ~obs:
        { Runner.null_obs with
          Runner.obs_faults = drop_schedule;
          obs_trace = Flight.wrap fl Trace.null;
          obs_flight = Some fl }
      ()
  in
  Alcotest.(check bool) "watchdog tripped and dumped" true (Flight.dumped fl);
  Alcotest.(check bool) "dump file exists" true (Sys.file_exists path);
  (match
     let ic = open_in_bin path in
     let s = really_input_string ic (in_channel_length ic) in
     close_in ic;
     Json.of_string s
   with
  | Ok doc -> (
      match Option.bind (Json.member "reason" doc) Json.to_str with
      | Some r ->
          Alcotest.(check string) "reason" "dsm watchdog trip" r
      | None -> Alcotest.fail "no reason in dump")
  | Error e -> Alcotest.fail e);
  Sys.remove path;
  check_same_measurements "recorder under faults" plain armed

(* With the chaos policy (dump_on_watchdog:false) trips must NOT dump. *)
let test_flight_watchdog_opt_out () =
  let path = tmp_path "no_watchdog" in
  let fl = Flight.create ~dump_on_watchdog:false ~path () in
  ignore
    (run_matmul
       ~obs:
         { Runner.null_obs with
           Runner.obs_faults = drop_schedule;
           obs_trace = Flight.wrap fl Trace.null;
           obs_flight = Some fl }
       ());
  Alcotest.(check bool) "no dump under routine trips" false (Flight.dumped fl);
  Alcotest.(check bool) "no file written" false (Sys.file_exists path)

(* ------------------------------------------------------------------ *)
(* Par_engine telemetry                                                 *)
(* ------------------------------------------------------------------ *)

(* The telemetered run must render byte-identically to the bare one, for
   every domain count; the accumulator itself must be self-consistent. *)
let test_telemetry_identity () =
  let run ?telemetry domains =
    Traffic.render
      (Traffic.run ?telemetry ~domains ~seed:5 ~rows:8 ~cols:8 ~rate:0.002
         ~horizon:5_000.0 ~pattern:Traffic.Uniform ())
  in
  let reference = run 1 in
  List.iter
    (fun domains ->
      Alcotest.(check string)
        (Printf.sprintf "bare, %d domains" domains)
        reference (run domains);
      let tl = Par_engine.telemetry_create () in
      Alcotest.(check string)
        (Printf.sprintf "telemetered, %d domains" domains)
        reference
        (run ~telemetry:tl domains))
    [ 1; 2; 4 ]

let test_telemetry_json () =
  let tl = Par_engine.telemetry_create () in
  ignore
    (Traffic.run ~telemetry:tl ~domains:2 ~seed:5 ~rows:8 ~cols:8 ~rate:0.002
       ~horizon:5_000.0 ~pattern:Traffic.Uniform ());
  let doc = Par_engine.telemetry_json tl in
  let geti k = Option.bind (Json.member k doc) Json.to_int in
  let getf k = Option.bind (Json.member k doc) Json.to_float in
  Alcotest.(check (option int)) "domains" (Some 2) (geti "domains");
  Alcotest.(check bool) "windows counted" true
    (Option.value ~default:0 (geti "windows") > 0);
  (match getf "stall_frac" with
  | Some s -> Alcotest.(check bool) "stall_frac in [0,1]" true (s >= 0.0 && s <= 1.0)
  | None -> Alcotest.fail "no stall_frac");
  (match getf "shard_imbalance" with
  | Some im -> Alcotest.(check bool) "imbalance >= 1" true (im >= 1.0)
  | None -> Alcotest.fail "no shard_imbalance");
  match Json.member "domains_detail" doc with
  | Some (Json.List ds) -> Alcotest.(check int) "one detail per domain" 2 (List.length ds)
  | _ -> Alcotest.fail "no domains_detail"

(* ------------------------------------------------------------------ *)
(* Prometheus exposition                                                *)
(* ------------------------------------------------------------------ *)

let test_prometheus_sanitize_and_dedupe () =
  let m = Metrics.create () in
  Metrics.gauge m "host-events-per-sec" (fun () -> 5.0);
  (* Two names that collide after '-' folds to '_'. *)
  Metrics.gauge m "a-b" (fun () -> 1.0);
  Metrics.gauge m "a_b" (fun () -> 2.0);
  Metrics.sample m ~ts:10.0;
  let s = Metrics.to_prometheus m in
  let lines = String.split_on_char '\n' s in
  List.iter
    (fun line -> Alcotest.(check bool) line true (List.mem line lines))
    [
      "diva_host_events_per_sec 5";
      "# TYPE diva_host_events_per_sec gauge";
      "diva_a_b 1";
      "diva_a_b_2 2";
    ];
  (* No duplicate metric names in the exposition. *)
  let names =
    List.filter_map
      (fun l ->
        if l = "" || l.[0] = '#' then None
        else match String.index_opt l ' ' with
          | Some i -> Some (String.sub l 0 i)
          | None -> None)
      lines
  in
  Alcotest.(check int) "unique names" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_prometheus_labels_escaped () =
  let m = Metrics.create () in
  Metrics.gauge m "busy" (fun () -> 1.0);
  Metrics.sample m ~ts:1.0;
  let s =
    Metrics.to_prometheus
      ~labels:[ ("app", "mat\"mul"); ("strategy", "a\\b\nc") ]
      m
  in
  Alcotest.(check bool) "escaped label line" true
    (let needle =
       "diva_busy{app=\"mat\\\"mul\",strategy=\"a\\\\b\\nc\"} 1"
     in
     let n = String.length needle and len = String.length s in
     let rec go i = i + n <= len && (String.sub s i n = needle || go (i + 1)) in
     go 0)

(* ------------------------------------------------------------------ *)
(* Trace merge / compaction                                             *)
(* ------------------------------------------------------------------ *)

let overheads =
  { Diva_obs.Analysis.send_overhead = 1.0; recv_overhead = 1.0;
    local_overhead = 0.1 }

let write_trace path ~seed events =
  let oc = open_out_bin path in
  let header =
    Streaming.make_header ~app:"test" ~dims:[| 2; 2 |] ~strategy:"4-ary"
      ~seed ~overheads ()
  in
  let sink = Streaming.file_sink oc header in
  List.iter (Trace.emit sink) events;
  close_out oc

let access ~ts ~node =
  Trace.Dsm_access
    { ts; dur = 1.0; node; var = 0; var_name = "v0"; op = Trace.Read;
      size = 8; hit = false; txn = node; completed_by = -1 }

let read_lines path =
  let ic = open_in_bin path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> close_in ic; List.rev acc
  in
  go []

let test_merge_interleaves_runs () =
  let a = tmp_path "merge_a" and b = tmp_path "merge_b" in
  let out = tmp_path "merge_out" in
  write_trace a ~seed:1 [ decl 0; access ~ts:10.0 ~node:0; access ~ts:30.0 ~node:0 ];
  write_trace b ~seed:2 [ decl 0; access ~ts:20.0 ~node:1 ];
  (match Streaming.merge_files ~inputs:[ a; b ] ~output:out () with
  | Ok st ->
      Alcotest.(check int) "runs" 2 st.Streaming.ms_runs;
      Alcotest.(check int) "events" 5 st.Streaming.ms_events;
      Alcotest.(check int) "nothing dropped" 0 st.Streaming.ms_dropped
  | Error e -> Alcotest.fail e);
  (match read_lines out with
  | header :: events ->
      (match Json.of_string header with
      | Ok h ->
          (match Option.bind (Json.member "format" h) Json.to_str with
          | Some f ->
              Alcotest.(check string) "merged format"
                "diva-event-trace-merged" f
          | None -> Alcotest.fail "merged header has no format");
          (match Json.member "runs" h with
          | Some (Json.List rs) ->
              Alcotest.(check int) "header lists both runs" 2 (List.length rs)
          | _ -> Alcotest.fail "no runs array")
      | Error e -> Alcotest.fail e);
      let run_of line =
        match Json.of_string line with
        | Ok j -> Option.bind (Json.member "run" j) Json.to_int
        | Error e -> Alcotest.fail e
      in
      (* Time-ordered interleaving: both ts-0 declarations (run 0 wins the
         tie), then 10(run0), 20(run1), 30(run0). *)
      Alcotest.(check (list (option int))) "run prefixes in merge order"
        [ Some 0; Some 1; Some 0; Some 1; Some 0 ]
        (List.map run_of events)
  | [] -> Alcotest.fail "empty merged file");
  (* Determinism: merging again yields the identical file. *)
  let out2 = tmp_path "merge_out2" in
  (match Streaming.merge_files ~inputs:[ a; b ] ~output:out2 () with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "deterministic output" true
    (read_lines out = read_lines out2);
  List.iter Sys.remove [ a; b; out; out2 ]

let test_merge_compaction () =
  let a = tmp_path "compact_a" and out = tmp_path "compact_out" in
  (* Declarations and early protocol noise before the first DSM access at
     ts 50; the decls survive compaction, the noise does not. *)
  let noise ts =
    Trace.Msg_send
      { ts; id = 0; parent = -1; txn = -1; inject = ts; level = -1; src = 0;
        dst = 1; size = 8; local = false }
  in
  write_trace a ~seed:3
    [ decl 0; noise 5.0; noise 20.0; access ~ts:50.0 ~node:0;
      noise 60.0 ];
  (match Streaming.merge_files ~compact:true ~inputs:[ a ] ~output:out () with
  | Ok st ->
      Alcotest.(check int) "kept decl + access + late noise" 3
        st.Streaming.ms_events;
      Alcotest.(check int) "dropped pre-quiescence noise" 2
        st.Streaming.ms_dropped
  | Error e -> Alcotest.fail e);
  List.iter Sys.remove [ a; out ]

let test_merge_rejects_bad_input () =
  (match
     Streaming.merge_files
       ~inputs:[ tmp_path "does_not_exist" ]
       ~output:(tmp_path "never_written") ()
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "merged a missing input");
  Alcotest.(check bool) "output not created" false
    (Sys.file_exists (tmp_path "never_written"))

(* The three samplers on the simulated clock — metrics rows every
   [obs_sample_interval], the profiler's window series every 1000 us and
   the flight recorder's health snapshots every 5000 us — stamp their own
   boundaries and read the run's state at each. The values were captured
   from a 2x2 matmul run (25654.5 us) when each sampler had its own loop. *)
let test_sampler_boundaries () =
  let m = Metrics.create () in
  let p = Prof.create () in
  let fl = Flight.create ~path:(tmp_path "sampler") () in
  ignore
    (Runner.run_matmul ~dims:[| 2; 2 |] ~block:16
       ~obs:
         { Runner.null_obs with
           Runner.obs_metrics = Some m;
           obs_sample_interval = 2500.0;
           obs_prof = Some p;
           obs_flight = Some fl }
       (Runner.Strategy strategy));
  let rows doc =
    match Json.member "rows" doc with Some (Json.List l) -> l | _ -> []
  in
  let cell i = function
    | Json.List l -> List.nth l i
    | _ -> Alcotest.fail "row is not a list"
  in
  let num j = Option.get (Json.to_float j) in
  let int j = Option.get (Json.to_int j) in
  Alcotest.(check (list (float 0.0))) "metrics ts"
    [ 2500.; 5000.; 7500.; 10000.; 12500.; 15000.; 17500.; 20000.; 22500.;
      25000.; 25654.5 ]
    (List.map (fun r -> num (cell 0 r)) (rows (Metrics.to_json m)));
  let series = rows (Option.get (Json.member "series" (Prof.to_json p))) in
  Alcotest.(check (list (pair (float 0.0) int))) "profiler sim_us, events"
    (List.mapi
       (fun i e -> (float_of_int ((i + 1) * 1000), e))
       [ 6; 11; 14; 16; 17; 21; 24; 27; 31; 34; 37; 40; 42; 46; 48; 53; 56;
         59; 60; 63; 65; 66; 68; 69; 71 ])
    (List.map (fun r -> (num (cell 0 r), int (cell 2 r))) series);
  Alcotest.(check (list (triple (float 0.0) int int)))
    "flight sim_us, events, pending"
    [ (5000., 17, 3); (10000., 34, 2); (15000., 48, 7); (20000., 63, 3);
      (25000., 71, 1) ]
    (List.map
       (fun s -> Flight.(s.sn_sim_us, s.sn_events, s.sn_pending))
       (Flight.snapshots fl))

let suite =
  [
    Alcotest.test_case "profiling does not perturb the run" `Quick
      test_prof_zero_perturbation;
    Alcotest.test_case "window series and prof.json round-trip" `Quick
      test_prof_series_and_json;
    Alcotest.test_case "subsystem attribution and regions" `Quick
      test_prof_subsystems_and_regions;
    Alcotest.test_case "profile report rejects foreign documents" `Quick
      test_prof_report_rejects_other_schema;
    Alcotest.test_case "flight ring rotates past capacity" `Quick
      test_flight_ring_rotation;
    Alcotest.test_case "armed recorder does not perturb the run" `Quick
      test_flight_wrap_identity;
    Alcotest.test_case "dump is first-trigger-wins" `Quick
      test_flight_dump_first_trigger_wins;
    Alcotest.test_case "dump_on_error dumps only on Error" `Quick
      test_flight_dump_on_error;
    Alcotest.test_case "watchdog trip dumps under faults" `Quick
      test_flight_dump_on_watchdog;
    Alcotest.test_case "chaos policy suppresses watchdog dumps" `Quick
      test_flight_watchdog_opt_out;
    Alcotest.test_case "telemetry keeps runs byte-identical" `Quick
      test_telemetry_identity;
    Alcotest.test_case "telemetry json is self-consistent" `Quick
      test_telemetry_json;
    Alcotest.test_case "prometheus sanitizes and dedupes names" `Quick
      test_prometheus_sanitize_and_dedupe;
    Alcotest.test_case "prometheus escapes label values" `Quick
      test_prometheus_labels_escaped;
    Alcotest.test_case "merge interleaves runs deterministically" `Quick
      test_merge_interleaves_runs;
    Alcotest.test_case "merge compaction drops setup noise" `Quick
      test_merge_compaction;
    Alcotest.test_case "merge validates inputs before writing" `Quick
      test_merge_rejects_bad_input;
    Alcotest.test_case "fiber time after a miss books to app" `Quick
      test_prof_books_fiber_to_app;
    Alcotest.test_case "samplers stamp their simulated boundaries" `Quick
      test_sampler_boundaries;
  ]
