(* Fault injection: schedule format round-trip, the no-fault identity,
   fault determinism, the coherence oracle (including histories that must
   fail), and a chaos campaign across generated schedules. *)

module Schedule = Diva_faults.Schedule
module Faults = Diva_faults.Faults
module Network = Diva_simnet.Network
module Runner = Diva_harness.Runner
module Spec = Diva_workload.Spec
module Generator = Diva_workload.Generator
module Oracle = Diva_workload.Oracle
module Chaos = Diva_workload.Chaos
module Dsm = Diva_core.Dsm

let strategy_4ary = Dsm.access_tree ~arity:4 ()

let sample_schedule =
  Schedule.make ~seed:7 ~rto_us:5000.0 ~patience_us:25000.0
    [
      Schedule.Link_slow
        { link = Some 3; w = { t0 = 0.0; t1 = 5000.0 }; factor = 4.5 };
      Schedule.Link_slow
        { link = None; w = { t0 = 1000.0; t1 = 1500.0 }; factor = 2.0 };
      Schedule.Link_down { link = Some 1; w = { t0 = 2000.0; t1 = 2500.0 } };
      Schedule.Msg_drop { prob = 0.125; w = { t0 = 0.0; t1 = 20000.0 } };
      Schedule.Node_pause { node = 5; w = { t0 = 1000.0; t1 = 3000.0 } };
      Schedule.Node_crash { node = 2; w = { t0 = 4000.0; t1 = 8000.0 } };
    ]

let test_schedule_roundtrip () =
  let s = sample_schedule in
  let a = Schedule.to_string s in
  let s' =
    match Schedule.of_string a with
    | Ok s' -> s'
    | Error e -> Alcotest.failf "round-trip parse failed: %s" e
  in
  Alcotest.(check string) "serialization is stable" a (Schedule.to_string s');
  Alcotest.(check int) "seed" s.Schedule.seed s'.Schedule.seed;
  Alcotest.(check int) "event count"
    (List.length s.Schedule.events)
    (List.length s'.Schedule.events);
  Alcotest.(check bool) "not empty" false (Schedule.is_empty s');
  match Schedule.validate s' with
  | Ok () -> ()
  | Error e -> Alcotest.failf "parsed schedule invalid: %s" e

let test_schedule_validate () =
  let bad events = Schedule.make events in
  let rejects name s =
    match Schedule.validate s with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "%s accepted" name
  in
  rejects "inverted window"
    (bad [ Schedule.Link_down { link = None; w = { t0 = 10.0; t1 = 5.0 } } ]);
  rejects "factor below one"
    (bad
       [ Schedule.Link_slow
           { link = None; w = { t0 = 0.0; t1 = 1.0 }; factor = 0.5 } ]);
  rejects "probability above one"
    (bad [ Schedule.Msg_drop { prob = 1.5; w = { t0 = 0.0; t1 = 1.0 } } ]);
  rejects "negative node"
    (bad [ Schedule.Node_pause { node = -1; w = { t0 = 0.0; t1 = 1.0 } } ]);
  rejects "zero rto"
    (Schedule.make ~rto_us:0.0
       [ Schedule.Msg_drop { prob = 0.1; w = { t0 = 0.0; t1 = 1.0 } } ])

(* An integral float outside the int range is not an integer field. *)
let test_schedule_rejects_out_of_range_int () =
  let doc node =
    Printf.sprintf
      "{\"format\":\"diva-faults\",\"version\":1,\"events\":[{\"kind\":\"node_pause\",\"node\":%s,\"from\":0,\"until\":1}]}"
      node
  in
  (match Schedule.of_string (doc "2") with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "well-formed schedule rejected: %s" e);
  match Schedule.of_string (doc "1e300") with
  | Ok _ -> Alcotest.fail "\"node\":1e300 was accepted"
  | Error e ->
      Alcotest.(check string) "error" "fault event needs an integer \"node\"" e

let test_generate_deterministic () =
  let g () = Schedule.generate ~seed:5 ~num_nodes:16 ~num_links:48 () in
  let a = g () and b = g () in
  Alcotest.(check string) "same seed, same schedule" (Schedule.to_string a)
    (Schedule.to_string b);
  (match Schedule.validate a with
  | Ok () -> ()
  | Error e -> Alcotest.failf "generated schedule invalid: %s" e);
  Alcotest.(check bool) "never empty" false (Schedule.is_empty a);
  let c = Schedule.generate ~seed:6 ~num_nodes:16 ~num_links:48 () in
  Alcotest.(check bool) "different seed, different schedule" true
    (Schedule.to_string a <> Schedule.to_string c)

let check_meas name (a : Runner.measurements) (b : Runner.measurements) =
  Alcotest.(check int) (name ^ ": total msgs") a.Runner.total_msgs
    b.Runner.total_msgs;
  Alcotest.(check int) (name ^ ": total bytes") a.Runner.total_bytes
    b.Runner.total_bytes;
  Alcotest.(check int) (name ^ ": startups") a.Runner.startups b.Runner.startups;
  Alcotest.(check (float 0.0)) (name ^ ": time") a.Runner.time b.Runner.time

(* Installing the empty schedule must leave a run bit-identical to one
   with no fault machinery at all: the reliable envelope stays unarmed. *)
let test_empty_schedule_identity () =
  let faulted = ref None in
  let base =
    Runner.run_matmul ~seed:3 ~rows:4 ~cols:4 ~block:64
      (Runner.Strategy strategy_4ary)
  in
  let with_empty =
    Runner.run_matmul ~seed:3
      ~obs:{ Runner.null_obs with Runner.obs_faults = Schedule.empty }
      ~on_net:(fun net -> faulted := Network.faults net)
      ~rows:4 ~cols:4 ~block:64
      (Runner.Strategy strategy_4ary)
  in
  check_meas "empty schedule" base with_empty;
  Alcotest.(check bool) "no injector installed" true (!faulted = None)

let drop_schedule =
  Schedule.make ~seed:9
    [
      Schedule.Msg_drop { prob = 0.05; w = { t0 = 0.0; t1 = 50_000.0 } };
      Schedule.Link_slow
        { link = None; w = { t0 = 10_000.0; t1 = 20_000.0 }; factor = 3.0 };
      Schedule.Node_pause { node = 5; w = { t0 = 5_000.0; t1 = 15_000.0 } };
    ]

let faulted_matmul strategy =
  let captured = ref None in
  let m =
    Runner.run_matmul ~seed:3
      ~obs:{ Runner.null_obs with Runner.obs_faults = drop_schedule }
      ~on_net:(fun net -> captured := Network.faults net)
      ~rows:4 ~cols:4 ~block:256 strategy
  in
  let f = Option.get !captured in
  (m, [ Faults.lost_total f; Faults.retransmits f; Faults.enveloped f;
        Faults.dsm_reissues f ])

(* Same schedule + seed => bit-identical faulted run, for both strategies;
   and the faults really do bite (losses happen, every one recovered). *)
let test_fault_determinism () =
  List.iter
    (fun (name, strategy) ->
      let m1, c1 = faulted_matmul strategy in
      let m2, c2 = faulted_matmul strategy in
      check_meas (name ^ " faulted rerun") m1 m2;
      Alcotest.(check (list int)) (name ^ ": fault counters") c1 c2;
      let lost, retransmits, enveloped =
        match c1 with
        | [ l; r; e; _ ] -> (l, r, e)
        | _ -> assert false
      in
      Alcotest.(check bool) (name ^ ": messages were lost") true (lost > 0);
      Alcotest.(check bool)
        (name ^ ": every loss retransmitted") true (retransmits >= lost);
      Alcotest.(check bool) (name ^ ": envelope armed") true (enveloped > 0))
    [
      ("fixed-home", Runner.Strategy Dsm.Fixed_home);
      ("4-ary", Runner.Strategy strategy_4ary);
    ]

let test_fault_workload_determinism () =
  let spec =
    Spec.make ~num_vars:24 ~lock_every:4
      ~phases:[ Spec.phase ~read_ratio:0.7 40 ]
      ~seed:11 ()
  in
  let go strategy =
    let captured = ref None in
    let r =
      Generator.run
        ~obs:{ Runner.null_obs with Runner.obs_faults = drop_schedule }
        ~on_net:(fun net -> captured := Network.faults net)
        ~dims:[| 4; 4 |] ~strategy spec
    in
    let f = Option.get !captured in
    (r.Generator.measurements, Faults.lost_total f, Faults.retransmits f)
  in
  List.iter
    (fun (name, strategy) ->
      let m1, l1, r1 = go strategy in
      let m2, l2, r2 = go strategy in
      check_meas (name ^ " workload rerun") m1 m2;
      Alcotest.(check int) (name ^ ": lost") l1 l2;
      Alcotest.(check int) (name ^ ": retransmits") r1 r2)
    [ ("fixed-home", Dsm.Fixed_home); ("4-ary", strategy_4ary) ]

(* ------------------------------------------------------------------ *)
(* Coherence oracle                                                    *)
(* ------------------------------------------------------------------ *)

let ok_or_fail = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "oracle rejected a valid history: %s" e

let expect_violation what = function
  | Error _ -> ()
  | Ok () -> Alcotest.failf "oracle accepted %s" what

let test_oracle_accepts_valid () =
  let o = Oracle.create () in
  Oracle.init_var o ~var:0 ~value:0;
  let v1 = Oracle.next_write_value o in
  Oracle.record_write o ~var:0 ~proc:0 ~value:v1 ~t0:0.0 ~t1:10.0;
  (* Concurrent with the write: either value is linearizable. *)
  Oracle.record_read o ~var:0 ~proc:1 ~value:0 ~t0:5.0 ~t1:20.0;
  Oracle.record_read o ~var:0 ~proc:1 ~value:v1 ~t0:15.0 ~t1:30.0;
  ok_or_fail (Oracle.check o);
  Alcotest.(check int) "ops recorded" 3 (Oracle.ops o)

let test_oracle_stale_read () =
  let o = Oracle.create () in
  Oracle.init_var o ~var:0 ~value:0;
  let v1 = Oracle.next_write_value o in
  let v2 = Oracle.next_write_value o in
  Oracle.record_write o ~var:0 ~proc:0 ~value:v1 ~t0:0.0 ~t1:10.0;
  Oracle.record_write o ~var:0 ~proc:1 ~value:v2 ~t0:20.0 ~t1:30.0;
  (* v1 was definitely overwritten before this read began. *)
  Oracle.record_read o ~var:0 ~proc:2 ~value:v1 ~t0:40.0 ~t1:50.0;
  expect_violation "a stale read" (Oracle.check o)

let test_oracle_unknown_value () =
  let o = Oracle.create () in
  Oracle.init_var o ~var:0 ~value:0;
  Oracle.record_read o ~var:0 ~proc:0 ~value:99 ~t0:0.0 ~t1:1.0;
  expect_violation "a read of a never-written value" (Oracle.check o)

let test_oracle_read_inversion () =
  let o = Oracle.create () in
  Oracle.init_var o ~var:0 ~value:0;
  let v_old = Oracle.next_write_value o in
  let v_new = Oracle.next_write_value o in
  Oracle.record_write o ~var:0 ~proc:0 ~value:v_old ~t0:0.0 ~t1:10.0;
  Oracle.record_write o ~var:0 ~proc:0 ~value:v_new ~t0:20.0 ~t1:30.0;
  (* First read sees the new write; a strictly later read (overlapping
     the new write, so not plain stale) sees the old one. *)
  Oracle.record_read o ~var:0 ~proc:1 ~value:v_new ~t0:21.0 ~t1:23.0;
  Oracle.record_read o ~var:0 ~proc:1 ~value:v_old ~t0:25.0 ~t1:27.0;
  expect_violation "inverted reads" (Oracle.check o)

(* An intentionally broken toy protocol: a reader caches the value once
   and never invalidates, while a writer keeps updating. The oracle must
   reject the resulting history. *)
let test_oracle_catches_broken_protocol () =
  let o = Oracle.create () in
  Oracle.init_var o ~var:0 ~value:0;
  let clock = ref 0.0 in
  let tick () = clock := !clock +. 10.0; !clock in
  let stale_cache = ref 0 in
  (* Reader fills its cache once... *)
  let t0 = tick () in
  stale_cache := 0;
  Oracle.record_read o ~var:0 ~proc:1 ~value:!stale_cache ~t0 ~t1:(tick ());
  (* ...the writer commits three updates... *)
  for _ = 1 to 3 do
    let v = Oracle.next_write_value o in
    let t0 = tick () in
    Oracle.record_write o ~var:0 ~proc:0 ~value:v ~t0 ~t1:(tick ())
  done;
  (* ...and the reader still serves from its stale cache. *)
  let t0 = tick () in
  Oracle.record_read o ~var:0 ~proc:1 ~value:!stale_cache ~t0 ~t1:(tick ());
  expect_violation "the no-invalidation toy protocol" (Oracle.check o)

(* ------------------------------------------------------------------ *)
(* Chaos campaign                                                      *)
(* ------------------------------------------------------------------ *)

(* 20 generated schedules x both strategies, every run oracle-checked.
   Determinism verification is off here (it has its own tests above),
   halving the runtime. *)
let test_chaos_campaign () =
  let cfg =
    {
      Chaos.dims = [| 4; 4 |];
      schedules = 20;
      seed = 123;
      ops = 20;
      num_vars = 16;
      lock_every = 4;
      read_ratio = 0.7;
      verify_determinism = false;
      strategies = Chaos.paper_strategies;
    }
  in
  let outcomes = Chaos.run cfg in
  Alcotest.(check int) "runs" 40 (List.length outcomes);
  List.iter
    (fun o ->
      (match o.Chaos.oracle_error with
      | None -> ()
      | Some e ->
          Alcotest.failf "schedule %d (%s): coherence violation: %s"
            o.Chaos.index o.Chaos.strategy e);
      Alcotest.(check int)
        (Printf.sprintf "schedule %d (%s): all ops recorded" o.Chaos.index
           o.Chaos.strategy)
        (16 * 20) o.Chaos.ops_checked)
    outcomes;
  Alcotest.(check bool) "campaign verdict" true (Chaos.passed outcomes);
  Alcotest.(check bool) "some schedule actually lost messages" true
    (List.exists (fun o -> o.Chaos.lost > 0) outcomes)

(* A short fault campaign over the full strategy registry — adaptive
   migration and capacity eviction each face injected faults
   with the linearizability oracle attached, and every run is replayed to
   prove schedule + seed still determine the execution. *)
let test_chaos_registry_zoo () =
  let strategies =
    List.map
      (fun (name, spec) -> (name, (spec : Diva_core.Strategy.spec)))
      (Diva_core.Registry.contenders ())
  in
  let cfg =
    {
      Chaos.default with
      Chaos.dims = [| 4; 4 |];
      schedules = 3;
      seed = 7;
      ops = 20;
      verify_determinism = true;
      strategies;
    }
  in
  let outcomes = Chaos.run cfg in
  Alcotest.(check int) "runs" (3 * List.length strategies)
    (List.length outcomes);
  List.iter
    (fun o ->
      (match o.Chaos.oracle_error with
      | None -> ()
      | Some e ->
          Alcotest.failf "schedule %d (%s): coherence violation: %s"
            o.Chaos.index o.Chaos.strategy e);
      if o.Chaos.deterministic <> Some true then
        Alcotest.failf "schedule %d (%s): non-deterministic replay"
          o.Chaos.index o.Chaos.strategy)
    outcomes;
  Alcotest.(check bool) "campaign verdict" true (Chaos.passed outcomes)

let suite =
  [
    Alcotest.test_case "schedule JSON round-trip" `Quick test_schedule_roundtrip;
    Alcotest.test_case "schedule validation" `Quick test_schedule_validate;
    Alcotest.test_case "schedule generation deterministic" `Quick
      test_generate_deterministic;
    Alcotest.test_case "empty schedule is the identity" `Quick
      test_empty_schedule_identity;
    Alcotest.test_case "faulted matmul deterministic" `Slow
      test_fault_determinism;
    Alcotest.test_case "faulted workload deterministic" `Slow
      test_fault_workload_determinism;
    Alcotest.test_case "oracle accepts valid history" `Quick
      test_oracle_accepts_valid;
    Alcotest.test_case "oracle rejects stale read" `Quick test_oracle_stale_read;
    Alcotest.test_case "oracle rejects unknown value" `Quick
      test_oracle_unknown_value;
    Alcotest.test_case "oracle rejects read inversion" `Quick
      test_oracle_read_inversion;
    Alcotest.test_case "oracle catches broken protocol" `Quick
      test_oracle_catches_broken_protocol;
    Alcotest.test_case "chaos campaign: 20 schedules, both strategies" `Slow
      test_chaos_campaign;
    Alcotest.test_case "chaos campaign: full strategy registry" `Slow
      test_chaos_registry_zoo;
    Alcotest.test_case "schedule rejects out-of-range int" `Quick
      test_schedule_rejects_out_of_range_int;
  ]
