(* Workload engine: synthetic generator determinism, trace
   record/round-trip/replay fidelity, sampler distributions, spec
   validation. *)

module Runner = Diva_harness.Runner
module Trace = Diva_obs.Trace
module Spec = Diva_workload.Spec
module Sampler = Diva_workload.Sampler
module Generator = Diva_workload.Generator
module Replay = Diva_workload.Replay
module Streaming = Diva_obs.Streaming
module Json = Diva_obs.Json
module Latency = Diva_workload.Latency
module Prng = Diva_util.Prng

let strategy_4ary = Diva_core.Dsm.access_tree ~arity:4 ()

let small_spec =
  Spec.make ~num_vars:64 ~var_size:32
    ~phases:[ Spec.phase ~read_ratio:0.8 60 ]
    ~barrier_every:20 ~lock_every:15 ~seed:5 ()

let traced_obs () =
  let tr = Trace.create () in
  (tr, { Runner.null_obs with Runner.obs_trace = tr })

let event_lines events =
  let b = Buffer.create 4096 in
  List.iter
    (fun e ->
      Trace.add_event b e;
      Buffer.add_char b '\n')
    events;
  Buffer.contents b

let data_op = function
  | Trace.Dsm_access { op = Trace.Read | Trace.Write; _ } -> true
  | _ -> false

let check_meas name (a : Runner.measurements) (b : Runner.measurements) =
  Alcotest.(check int) (name ^ ": total msgs") a.Runner.total_msgs b.Runner.total_msgs;
  Alcotest.(check int) (name ^ ": total bytes") a.Runner.total_bytes b.Runner.total_bytes;
  Alcotest.(check int) (name ^ ": congestion msgs") a.Runner.congestion_msgs
    b.Runner.congestion_msgs;
  Alcotest.(check int) (name ^ ": congestion bytes") a.Runner.congestion_bytes
    b.Runner.congestion_bytes;
  Alcotest.(check (float 0.0)) (name ^ ": time") a.Runner.time b.Runner.time;
  Alcotest.(check int) (name ^ ": startups") a.Runner.startups b.Runner.startups

(* Same workload spec + seed => identical trace, twice. *)
let test_generator_determinism () =
  let capture () =
    let sink, obs = traced_obs () in
    let r = Generator.run ~obs ~dims:[| 4; 4 |] ~strategy:strategy_4ary small_spec in
    (r, event_lines (Trace.events sink))
  in
  let r1, t1 = capture () in
  let r2, t2 = capture () in
  check_meas "rerun" r1.Generator.measurements r2.Generator.measurements;
  Alcotest.(check string) "identical serialized trace" t1 t2;
  Alcotest.(check bool) "trace is non-trivial" true (String.length t1 > 1000)

(* The generator issues exactly the configured number of data ops. *)
let test_generator_op_count () =
  let sink, obs = traced_obs () in
  ignore
    (Generator.run ~obs ~dims:[| 4; 4 |] ~strategy:strategy_4ary small_spec
      : Generator.result);
  let events = Trace.events sink in
  (* 16 procs x 60 ops; lock/unlock/barriers come on top. *)
  Alcotest.(check int) "data ops" (16 * 60)
    (List.length (List.filter data_op events));
  let locks =
    List.length
      (List.filter
         (function Trace.Dsm_access { op = Trace.Lock; _ } -> true | _ -> false)
         events)
  in
  Alcotest.(check int) "locks (every 15th of 60)" (16 * 4) locks

(* Capturing a matmul run and replaying it closed-loop under the same
   strategy and seed reproduces the original Link_stats totals exactly. *)
let replay_roundtrip strategy =
  let sink, obs = traced_obs () in
  let m0 =
    Runner.run_matmul ~seed:17 ~obs ~dims:[| 4; 4 |] ~block:64
      (Runner.Strategy strategy)
  in
  let t = Replay.of_events ~dims:[| 4; 4 |] ~seed:17 (Trace.events sink) in
  Alcotest.(check int) "all vars declared" 16
    (List.length
       (List.filter (function Trace.Var_decl _ -> true | _ -> false) t.Replay.events));
  let r = Replay.run ~mode:Replay.Closed_loop ~strategy t in
  check_meas "replay" m0 r.Generator.measurements

let test_replay_matmul_4ary () = replay_roundtrip strategy_4ary
let test_replay_matmul_fixed_home () = replay_roundtrip Diva_core.Dsm.Fixed_home

(* Replay of a synthetic workload is also exact: the generator's fibers do
   no untraced work, so the closed-loop replay is the same program. *)
let test_replay_synthetic () =
  let sink, obs = traced_obs () in
  let r0 = Generator.run ~obs ~dims:[| 4; 4 |] ~strategy:strategy_4ary small_spec in
  let t =
    Replay.of_events ~dims:[| 4; 4 |] ~seed:Spec.(small_spec.seed)
      (Trace.events sink)
  in
  let r = Replay.run ~strategy:strategy_4ary t in
  check_meas "synthetic replay" r0.Generator.measurements r.Generator.measurements;
  Alcotest.(check int) "same op count" r0.Generator.latency.Latency.ops
    r.Generator.latency.Latency.ops

(* Open-loop replay re-inserts recorded gaps: replaying a think-heavy
   workload open-loop takes at least as long as closed-loop. *)
let test_open_loop_slower () =
  let spec =
    Spec.make ~num_vars:32 ~phases:[ Spec.phase ~think:50.0 30 ] ~seed:7 ()
  in
  let sink, obs = traced_obs () in
  ignore
    (Generator.run ~obs ~dims:[| 2; 2 |] ~strategy:strategy_4ary spec
      : Generator.result);
  let t = Replay.of_events ~dims:[| 2; 2 |] ~seed:7 (Trace.events sink) in
  let closed = Replay.run ~mode:Replay.Closed_loop ~strategy:strategy_4ary t in
  let open_ = Replay.run ~mode:Replay.Open_loop ~strategy:strategy_4ary t in
  Alcotest.(check bool)
    (Printf.sprintf "open (%.0f us) > closed (%.0f us)"
       open_.Generator.measurements.Runner.time
       closed.Generator.measurements.Runner.time)
    true
    (open_.Generator.measurements.Runner.time
    > closed.Generator.measurements.Runner.time);
  (* And the open-loop run is at least as long as the recording. *)
  Alcotest.(check bool) "open >= recorded duration" true
    (open_.Generator.measurements.Runner.time
    >= List.fold_left
         (fun acc e ->
           match e with
           | Trace.Dsm_access { ts; _ } -> Float.max acc ts
           | _ -> acc)
         0.0 t.Replay.events)

let gcel_header ?(params = []) ~app ~dims ~strategy ~seed () =
  let m = Diva_simnet.Machine.gcel in
  Streaming.make_header ~params ~app ~dims ~strategy ~seed
    ~overheads:
      { Diva_obs.Analysis.send_overhead = m.Diva_simnet.Machine.send_overhead;
        recv_overhead = m.Diva_simnet.Machine.recv_overhead;
        local_overhead = m.Diva_simnet.Machine.local_overhead }
    ()

let with_temp_file contents f =
  let path = Filename.temp_file "diva_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc contents);
      f path)

(* A run recorded as an event trace (what [--events] writes) reads back
   as the same replay program, through text and through a file, and
   replays to the same measurements. *)
let test_trace_roundtrip () =
  let sink, obs = traced_obs () in
  ignore
    (Generator.run ~obs ~dims:[| 2; 2 |] ~strategy:strategy_4ary small_spec
      : Generator.result);
  let events = Trace.events sink in
  let t = Replay.of_events ~dims:[| 2; 2 |] ~seed:5 events in
  let header =
    gcel_header ~app:"workload" ~dims:[| 2; 2 |] ~strategy:"4-ary" ~seed:5 ()
  in
  with_temp_file (Helpers.trace_file_bytes header events) (fun path ->
      (match Streaming.probe path with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("probe: " ^ e));
      match Replay.read path with
      | Error e -> Alcotest.fail e
      | Ok t' ->
          Alcotest.(check (array int)) "dims" t.Replay.dims t'.Replay.dims;
          Alcotest.(check int) "seed" 5 t'.Replay.seed;
          Alcotest.(check int) "ops" (Replay.num_ops t) (Replay.num_ops t');
          Alcotest.(check string) "text round-trip" (event_lines t.Replay.events)
            (event_lines t'.Replay.events);
          check_meas "file replay"
            (Replay.run ~strategy:strategy_4ary t).Generator.measurements
            (Replay.run ~strategy:strategy_4ary t').Generator.measurements)

(* Every damaged input is an [Error] naming the problem, never an
   exception: foreign formats (a diva-dsm-trace header included) or
   future versions, bad lines, and programs replay could not execute. *)
let test_trace_errors () =
  let header dims =
    Json.to_string
      (Streaming.header_json
         (gcel_header ~app:"workload" ~dims ~strategy:"4-ary" ~seed:1 ()))
  in
  let var own =
    Printf.sprintf {|{"e":"var","ts":0,"v":0,"name":"x","sz":8,"own":%d}|} own
  in
  let read_ok node v =
    Printf.sprintf
      {|{"e":"dsm","ts":1,"dur":0,"n":%d,"v":%d,"name":"x","op":"r","sz":8,"hit":true,"txn":-1,"cb":-1}|}
      node v
  in
  let fails ?expect what contents =
    with_temp_file contents (fun path ->
        match Replay.read path with
        | Ok _ -> Alcotest.failf "%s: expected an error" what
        | Error e -> (
            match expect with
            | Some sub ->
                let n = String.length sub in
                let rec has i =
                  i + n <= String.length e && (String.sub e i n = sub || has (i + 1))
                in
                if not (has 0) then
                  Alcotest.failf "%s: error %S does not mention %S" what e sub
            | None -> ()))
  in
  fails "empty file" "";
  fails "foreign format" ~expect:"not an event trace"
    "{\"format\":\"diva-dsm-trace\",\"version\":1,\"dims\":[2,2],\"seed\":1}\n";
  fails "future version" ~expect:"99"
    "{\"format\":\"diva-event-trace\",\"version\":99}\n";
  fails "not json" "not json at all\n";
  fails "bad body line" ~expect:"line 3"
    (header [| 2; 2 |] ^ "\n" ^ var 0 ^ "\n{\"e\":\"dsm\"}\n");
  fails "owner outside the mesh" ~expect:"owner 4"
    (header [| 2; 2 |] ^ "\n" ^ var 4 ^ "\n");
  fails "op outside the mesh" ~expect:"processor 7"
    (header [| 2; 2 |] ^ "\n" ^ var 0 ^ "\n"
    ^ read_ok 7 0 ^ "\n");
  fails "undeclared variable" ~expect:"undeclared variable 3"
    (header [| 2; 2 |] ^ "\n" ^ read_ok 1 3 ^ "\n");
  fails "non-positive mesh" (header [| 0; 2 |] ^ "\n");
  fails "negative variable size" ~expect:"negative size"
    (header [| 2; 2 |] ^ "\n"
    ^ {|{"e":"var","ts":0,"v":0,"name":"x","sz":-1,"own":0}|} ^ "\n");
  (* The same well-formed program is accepted. *)
  with_temp_file
    (header [| 2; 2 |] ^ "\n" ^ var 0 ^ "\n"
    ^ read_ok 1 0 ^ "\n")
    (fun path ->
      match Replay.read path with
      | Ok t -> Alcotest.(check int) "one op" 1 (Replay.num_ops t)
      | Error e -> Alcotest.failf "well-formed trace rejected: %s" e);
  match Replay.read "/nonexistent/trace.jsonl" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "read of a missing file succeeded"

(* Zipf sampling: rank-0 keys dominate more as the exponent grows; uniform
   sampling covers the key space evenly. *)
let sample_counts spec dims draws =
  let mesh = Diva_mesh.Mesh.create_nd ~dims in
  let sampler = Sampler.create mesh spec in
  let rng = Prng.create ~seed:99 in
  let counts = Array.make Spec.(spec.num_vars) 0 in
  for _ = 1 to draws do
    let k = Sampler.draw sampler ~proc:0 rng in
    counts.(k) <- counts.(k) + 1
  done;
  counts

let test_sampler_zipf_skew () =
  let n = 100 and draws = 20_000 in
  let top_share skew =
    let spec = Spec.make ~num_vars:n ~popularity:(Spec.Zipf skew) () in
    let counts = sample_counts spec [| 2; 2 |] draws in
    float_of_int counts.(0) /. float_of_int draws
  in
  let s0 = top_share 0.0 and s09 = top_share 0.9 and s12 = top_share 1.2 in
  Alcotest.(check bool)
    (Printf.sprintf "zipf 0 ~ uniform (top %.3f)" s0)
    true
    (s0 < 0.03);
  Alcotest.(check bool)
    (Printf.sprintf "skew monotone (%.3f < %.3f < %.3f)" s0 s09 s12)
    true
    (s0 < s09 && s09 < s12);
  Alcotest.(check bool) "zipf 1.2 is heavily skewed" true (s12 > 0.15)

let test_sampler_hot_cold () =
  let n = 100 in
  let spec =
    Spec.make ~num_vars:n
      ~popularity:(Spec.Hot_cold { hot_fraction = 0.1; hot_weight = 0.9 })
      ()
  in
  let counts = sample_counts spec [| 2; 2 |] 20_000 in
  let hot = Array.fold_left ( + ) 0 (Array.sub counts 0 10) in
  let share = float_of_int hot /. 20_000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "hot 10%% of keys draw ~90%% of accesses (got %.2f)" share)
    true
    (share > 0.85 && share < 0.95)

let test_sampler_locality () =
  let dims = [| 4; 4 |] in
  let mesh = Diva_mesh.Mesh.create_nd ~dims in
  let procs = 16 in
  let spec = Spec.make ~num_vars:64 ~locality:Spec.Proc_local () in
  let sampler = Sampler.create mesh spec in
  let rng = Prng.create ~seed:3 in
  for p = 0 to procs - 1 do
    for _ = 1 to 50 do
      let k = Sampler.draw sampler ~proc:p rng in
      Alcotest.(check int) "local key homed on proc" p (k mod procs)
    done
  done;
  let spec = Spec.make ~num_vars:64 ~locality:(Spec.Submesh 1) () in
  let sampler = Sampler.create mesh spec in
  for p = 0 to procs - 1 do
    for _ = 1 to 50 do
      let k = Sampler.draw sampler ~proc:p rng in
      Alcotest.(check bool) "submesh key within radius" true
        (Diva_mesh.Mesh.distance mesh p (k mod procs) <= 1)
    done
  done;
  (* Too few keys for Proc_local on 16 procs: clear error. *)
  match
    Sampler.create mesh (Spec.make ~num_vars:8 ~locality:Spec.Proc_local ())
  with
  | exception Invalid_argument _ -> ()
  | (_ : Sampler.t) -> Alcotest.fail "empty candidate set not rejected"

(* The linear-time construction must produce exactly the right candidate
   set: every key homed inside the Manhattan ball and no other. Uniform
   popularity plus enough draws makes the set fully observable. *)
let test_sampler_candidate_sets () =
  let dims = [| 4; 4; 4 |] in
  let mesh = Diva_mesh.Mesh.create_nd ~dims in
  let procs = 64 in
  let num_vars = 256 in
  let r = 1 in
  let sampler =
    Sampler.create mesh (Spec.make ~num_vars ~locality:(Spec.Submesh r) ())
  in
  let rng = Prng.create ~seed:11 in
  for p = 0 to procs - 1 do
    let expected = Hashtbl.create 32 in
    for k = 0 to num_vars - 1 do
      if Diva_mesh.Mesh.distance mesh p (k mod procs) <= r then
        Hashtbl.replace expected k ()
    done;
    let seen = Hashtbl.create 32 in
    for _ = 1 to 2_000 do
      let k = Sampler.draw sampler ~proc:p rng in
      if not (Hashtbl.mem expected k) then
        Alcotest.failf "proc %d drew key %d homed outside radius %d" p k r;
      Hashtbl.replace seen k ()
    done;
    Alcotest.(check int) "uniform draws cover the whole candidate set"
      (Hashtbl.length expected) (Hashtbl.length seen)
  done;
  (* Construction stays cheap at sizes where the old per-proc scan over
     every key would hurt; draws remain correctly homed. *)
  let mesh8 = Diva_mesh.Mesh.create_nd ~dims:[| 8; 8 |] in
  let big =
    Sampler.create mesh8
      (Spec.make ~num_vars:50_000 ~locality:Spec.Proc_local ())
  in
  for p = 0 to 63 do
    let k = Sampler.draw big ~proc:p rng in
    Alcotest.(check int) "big sampler keeps keys home" p (k mod 64)
  done

let test_spec_validation () =
  let bad spec =
    match Spec.validate spec with
    | Error (_ : string) -> ()
    | Ok () -> Alcotest.fail "invalid spec accepted"
  in
  (match Spec.validate (Spec.make ()) with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("default spec rejected: " ^ e));
  bad (Spec.make ~num_vars:0 ());
  bad (Spec.make ~var_size:0 ());
  bad (Spec.make ~popularity:(Spec.Zipf (-1.0)) ());
  bad (Spec.make ~popularity:(Spec.Zipf Float.nan) ());
  bad
    (Spec.make
       ~popularity:(Spec.Hot_cold { hot_fraction = 1.5; hot_weight = 0.5 })
       ());
  bad (Spec.make ~locality:(Spec.Submesh 0) ());
  bad (Spec.make ~phases:[] ());
  bad (Spec.make ~phases:[ Spec.phase ~read_ratio:1.5 10 ] ());
  bad (Spec.make ~phases:[ Spec.phase ~think:(-1.0) 10 ] ());
  bad (Spec.make ~phases:[ Spec.phase ~burst:(0, 10.0) 10 ] ())

(* The latency report is consistent with the run it measures. *)
let test_latency_report () =
  let r = Generator.run ~dims:[| 4; 4 |] ~strategy:strategy_4ary small_spec in
  let l = r.Generator.latency in
  Alcotest.(check int) "every data op sampled" (16 * 60) l.Latency.ops;
  Alcotest.(check bool) "percentiles ordered" true
    (l.Latency.p50 <= l.Latency.p95
    && l.Latency.p95 <= l.Latency.p99
    && l.Latency.p99 <= l.Latency.max);
  Alcotest.(check bool) "max latency below run time" true
    (l.Latency.max <= r.Generator.measurements.Runner.time);
  Alcotest.(check bool) "throughput positive" true (Latency.ops_per_sec l > 0.0);
  let fields = Latency.to_fields l in
  Alcotest.(check bool) "fields carry p99" true
    (List.mem_assoc "lat_p99_us" fields)

(* Golden-trace regression: the committed replay trace in test/data must
   be reproduced byte for byte by today's generator, and replay
   deterministically. It is the header plus the [var] and [dsm] lines —
   the ones replay reads — of
     divasim workload --mesh 4x4 --strategy 4-ary --vars 32 --var-size 32 \
       --ops 40 --read-ratio 0.8 --lock-every 8 --seed 11 --events FILE
   and test/gen_golden.exe regenerates it if an intentional behaviour
   change invalidates it. *)
let golden_path = "data/golden_workload_4x4.jsonl"

let test_golden_trace () =
  let golden = In_channel.with_open_bin golden_path In_channel.input_all in
  let spec =
    Spec.make ~num_vars:32 ~var_size:32 ~lock_every:8
      ~phases:[ Spec.phase ~read_ratio:0.8 40 ]
      ~seed:11 ()
  in
  let sink, obs = traced_obs () in
  ignore
    (Generator.run ~obs ~dims:[| 4; 4 |] ~strategy:strategy_4ary spec
      : Generator.result);
  let t = Replay.of_events ~dims:[| 4; 4 |] ~seed:11 (Trace.events sink) in
  let header =
    gcel_header ~params:(Spec.to_params spec) ~app:"workload" ~dims:[| 4; 4 |]
      ~strategy:(Diva_core.Dsm.strategy_name strategy_4ary) ~seed:11 ()
  in
  Alcotest.(check string) "regenerated trace matches the committed golden"
    golden
    (Helpers.trace_file_bytes header t.Replay.events);
  let tr =
    match Replay.read golden_path with
    | Ok t -> t
    | Error e -> Alcotest.failf "cannot read golden trace: %s" e
  in
  let replay () =
    (Replay.run ~strategy:strategy_4ary tr).Generator.measurements
  in
  check_meas "golden replay deterministic" (replay ()) (replay ())

let suite =
  [
    Alcotest.test_case "generator determinism (trace twice)" `Quick
      test_generator_determinism;
    Alcotest.test_case "golden trace regression" `Quick test_golden_trace;
    Alcotest.test_case "generator op counts" `Quick test_generator_op_count;
    Alcotest.test_case "matmul record/replay bit-for-bit (4-ary)" `Quick
      test_replay_matmul_4ary;
    Alcotest.test_case "matmul record/replay bit-for-bit (fixed home)" `Quick
      test_replay_matmul_fixed_home;
    Alcotest.test_case "synthetic record/replay bit-for-bit" `Quick
      test_replay_synthetic;
    Alcotest.test_case "open-loop honours recorded gaps" `Quick
      test_open_loop_slower;
    Alcotest.test_case "trace round-trip (text + file)" `Quick
      test_trace_roundtrip;
    Alcotest.test_case "trace error reporting" `Quick test_trace_errors;
    Alcotest.test_case "sampler zipf skew" `Quick test_sampler_zipf_skew;
    Alcotest.test_case "sampler hot-cold" `Quick test_sampler_hot_cold;
    Alcotest.test_case "sampler locality" `Quick test_sampler_locality;
    Alcotest.test_case "sampler candidate sets" `Quick
      test_sampler_candidate_sets;
    Alcotest.test_case "spec validation" `Quick test_spec_validation;
    Alcotest.test_case "latency report" `Quick test_latency_report;
  ]
