(* Tests for the experiment harness: runner measurements, report tables,
   heatmap rendering. *)

module Network = Diva_simnet.Network
module Link_stats = Diva_simnet.Link_stats
module Dsm = Diva_core.Dsm
module Runner = Diva_harness.Runner
module Report = Diva_harness.Report
module Heatmap = Diva_harness.Heatmap
module Barnes_hut = Diva_apps.Barnes_hut
open Helpers

let contains s needle =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_runner_matmul_measurements () =
  let m =
    Runner.run_matmul ~rows:4 ~cols:4 ~block:64
      (Runner.Strategy (Dsm.access_tree ~arity:4 ()))
  in
  Alcotest.(check bool) "time positive" true (m.Runner.time > 0.0);
  Alcotest.(check bool) "congestion <= total" true
    (m.Runner.congestion_bytes <= m.Runner.total_bytes);
  Alcotest.(check bool) "has startups" true (m.Runner.startups > 0);
  Alcotest.(check bool) "counts events" true
    (m.Runner.events >= m.Runner.startups);
  Alcotest.(check int) "reads = P * sqrtP * 2" (16 * 4 * 2) m.Runner.dsm_reads

let test_runner_deterministic () =
  let run () =
    Runner.run_bitonic ~rows:4 ~cols:4 ~keys:32
      (Runner.Strategy (Dsm.access_tree ~arity:2 ()))
  in
  Alcotest.(check bool) "identical measurements" true (run () = run ())

let test_runner_bh_phase_sums () =
  let cfg =
    { (Barnes_hut.default_config ~nbodies:64) with Barnes_hut.steps = 3; warmup = 1 }
  in
  let r =
    Runner.run_barnes_hut ~rows:2 ~cols:2 ~cfg (Dsm.access_tree ~arity:2 ())
  in
  (* Phase times sum to the total; phase traffic sums to the total. *)
  let phases =
    [ Barnes_hut.Build; Barnes_hut.Com; Barnes_hut.Partition; Barnes_hut.Force;
      Barnes_hut.Advance; Barnes_hut.Space ]
  in
  let tsum =
    List.fold_left (fun acc ph -> acc +. (r.Runner.bh_phase ph).Runner.time) 0.0 phases
  in
  Alcotest.(check (float 1e-6)) "phase times sum" r.Runner.bh_total.Runner.time tsum;
  let msum =
    List.fold_left
      (fun acc ph -> acc + (r.Runner.bh_phase ph).Runner.total_msgs)
      0 phases
  in
  Alcotest.(check int) "phase traffic sums" r.Runner.bh_total.Runner.total_msgs msum

let test_heatmap_accounts_all_traffic () =
  let net, dsm = make_dsm ~rows:4 ~cols:4 (Dsm.access_tree ~arity:4 ()) in
  let v = Dsm.create_var dsm ~owner:0 ~size:256 0 in
  run_procs net (fun p -> ignore (Dsm.read dsm p v));
  let traffic = Heatmap.node_traffic net in
  let sum = Array.fold_left ( + ) 0 traffic in
  Alcotest.(check int) "outgoing sums to total bytes"
    (Link_stats.total_bytes (Network.stats net))
    sum

let test_heatmap_render_shape () =
  let net, dsm = make_dsm ~rows:3 ~cols:5 (Dsm.access_tree ~arity:2 ()) in
  let v = Dsm.create_var dsm ~owner:7 ~size:64 0 in
  run_procs net (fun p -> ignore (Dsm.read dsm p v));
  let s = Heatmap.render net in
  (* Header line + one line per row, each cols characters wide. *)
  let lines = String.split_on_char '\n' s in
  let grid =
    List.filter
      (fun l -> l <> "" && (not (contains l "traffic")) && not (contains l "link"))
      lines
  in
  Alcotest.(check int) "3 rows" 3 (List.length grid);
  List.iter (fun l -> Alcotest.(check int) "5 cols" 5 (String.length l)) grid

let test_heatmap_hottest_link () =
  let net, dsm = make_dsm ~rows:4 ~cols:4 Dsm.Fixed_home in
  let v = Dsm.create_var dsm ~owner:5 ~size:128 0 in
  run_procs net (fun p -> ignore (Dsm.read dsm p v));
  (match Heatmap.hottest_link ~mode:Heatmap.Bytes net with
  | None -> Alcotest.fail "traffic but no hottest link"
  | Some (link, src, dst, amount) ->
      let per_link = Link_stats.per_link_bytes (Network.stats net) in
      Array.iter
        (fun b -> Alcotest.(check bool) "is the max" true (b <= amount))
        per_link;
      Alcotest.(check int) "amount matches stats" per_link.(link) amount;
      let s, d = Diva_mesh.Mesh.link_endpoints (Network.mesh net) link in
      Alcotest.(check int) "src" s src;
      Alcotest.(check int) "dst" d dst);
  (* Message mode counts crossings, not payload. *)
  match Heatmap.hottest_link ~mode:Heatmap.Msgs net with
  | None -> Alcotest.fail "no hottest link in msgs mode"
  | Some (link, _, _, amount) ->
      Alcotest.(check int) "msgs mode reads message stats"
        (Link_stats.per_link_msgs (Network.stats net)).(link)
        amount

let test_heatmap_link_values_fold () =
  let mesh = Diva_mesh.Mesh.create_nd ~dims:[| 3; 3 |] in
  (* One unit on every directed link: each node accumulates its out-degree. *)
  let values =
    List.init (Diva_mesh.Mesh.num_links mesh) (fun l -> (l, 1.0))
  in
  let nodes = Heatmap.nodes_of_link_values mesh values in
  let total = Array.fold_left ( +. ) 0.0 nodes in
  Alcotest.(check (float 1e-9))
    "fold conserves the values"
    (float_of_int (Diva_mesh.Mesh.num_links mesh))
    total;
  let s = Heatmap.render_grid mesh ~label:"w" nodes in
  Alcotest.(check bool) "labelled" true (contains s "w (max")

(* --- bench regression gate ---------------------------------------- *)

module Gate = Diva_harness.Bench_gate
module Json = Diva_obs.Json

let doc fields = Json.Obj [ ("apps", Json.Obj fields) ]

let matmul_entry time congestion hits =
  ( "matmul",
    Json.Obj
      [ ("time_us", Json.Float time);
        ("congestion_bytes", Json.Int congestion);
        ("dsm_read_hits", Json.Int hits) ] )

let test_gate_identical_passes () =
  let d = doc [ matmul_entry 1000.0 5000 40 ] in
  let vs = Gate.compare_docs ~baseline:d ~current:d () in
  Alcotest.(check int) "no failures" 0 (List.length (Gate.failures vs));
  Alcotest.(check bool) "compared something" true (List.length vs >= 3)

let test_gate_flags_regression () =
  let baseline = doc [ matmul_entry 1000.0 5000 40 ] in
  (* 50% slower: far beyond the 10% tolerance. *)
  let current = doc [ matmul_entry 1500.0 5000 40 ] in
  let vs = Gate.compare_docs ~baseline ~current () in
  (match Gate.failures vs with
  | [ v ] ->
      Alcotest.(check bool) "names the metric" true
        (contains v.Gate.v_path "time_us");
      Alcotest.(check bool) "is a regression" true
        (v.Gate.v_status = Gate.Regressed)
  | vs -> Alcotest.failf "expected exactly one failure, got %d" (List.length vs));
  (* 50% faster is an improvement, never a failure. *)
  let current = doc [ matmul_entry 500.0 5000 40 ] in
  let vs = Gate.compare_docs ~baseline ~current () in
  Alcotest.(check int) "improvement passes" 0 (List.length (Gate.failures vs));
  Alcotest.(check bool) "reported as improved" true
    (List.exists (fun v -> v.Gate.v_status = Gate.Improved) vs)

let test_gate_direction_aware () =
  (* Fewer cache hits is worse even though the number went down. *)
  let baseline = doc [ matmul_entry 1000.0 5000 40 ] in
  let current = doc [ matmul_entry 1000.0 5000 20 ] in
  let vs = Gate.compare_docs ~baseline ~current () in
  match Gate.failures vs with
  | [ v ] ->
      Alcotest.(check bool) "hits regressed" true
        (contains v.Gate.v_path "dsm_read_hits")
  | vs -> Alcotest.failf "expected exactly one failure, got %d" (List.length vs)

let test_gate_structural_drift () =
  let baseline = doc [ matmul_entry 1000.0 5000 40 ] in
  let current =
    doc
      [ ( "matmul",
          Json.Obj
            [ ("time_us", Json.Float 1000.0);
              ("congestion_bytes", Json.Int 5000);
              ("startups", Json.Int 3) ] ) ]
  in
  let vs = Gate.compare_docs ~baseline ~current () in
  let has st path =
    List.exists
      (fun v -> v.Gate.v_status = st && contains v.Gate.v_path path)
      (Gate.failures vs)
  in
  Alcotest.(check bool) "dropped metric is MISSING" true
    (has Gate.Missing "dsm_read_hits");
  Alcotest.(check bool) "new metric is EXTRA" true (has Gate.Extra "startups");
  let r = Gate.render vs in
  Alcotest.(check bool) "render names them" true
    (contains r "MISSING" && contains r "EXTRA")

(* Event counts gate exactly, in both directions: one event more or less
   means the protocol did something different. *)
let test_gate_exact_events () =
  let cell events =
    doc
      [ ( "matmul",
          Json.Obj [ ("time_us", Json.Float 1000.0); ("events", Json.Int events) ]
        ) ]
  in
  let baseline = cell 59441 in
  Alcotest.(check int) "same count passes" 0
    (List.length
       (Gate.failures (Gate.compare_docs ~baseline ~current:baseline ())));
  List.iter
    (fun events ->
      match
        Gate.failures (Gate.compare_docs ~baseline ~current:(cell events) ())
      with
      | [ v ] ->
          Alcotest.(check string) "names the count" "apps/matmul/events"
            v.Gate.v_path;
          Alcotest.(check bool) "is a regression" true
            (v.Gate.v_status = Gate.Regressed)
      | vs ->
          Alcotest.failf "events %d: expected one failure, got %d" events
            (List.length vs))
    [ 59442; 59440 ]

let with_temp_file contents f =
  let path = Filename.temp_file "diva-baseline" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc contents;
      close_out oc;
      f path)

let one_line what = function
  | Ok _ -> Alcotest.failf "%s: expected an error" what
  | Error e ->
      Alcotest.(check bool) (what ^ ": non-empty") true (e <> "");
      Alcotest.(check bool) (what ^ ": one line") false (String.contains e '\n')

let test_gate_load () =
  let d = doc [ matmul_entry 1000.0 5000 40 ] in
  with_temp_file (Json.to_string d) (fun path ->
      match Gate.load path with
      | Ok d' ->
          Alcotest.(check string) "round-trips" (Json.to_string d)
            (Json.to_string d')
      | Error e -> Alcotest.failf "valid baseline rejected: %s" e);
  let missing = Filename.concat (Filename.get_temp_dir_name ()) "diva-no-such.json" in
  one_line "missing file" (Gate.load missing);
  with_temp_file "{\"apps\": {\"matmul\": " (fun path ->
      let r = Gate.load path in
      one_line "malformed JSON" r;
      match r with
      | Error e -> Alcotest.(check bool) "names the file" true (contains e path)
      | Ok _ -> ())

let test_report_tables () =
  let m =
    Runner.run_matmul ~rows:4 ~cols:4 ~block:16 Runner.Hand_optimized
  in
  let m2 =
    Runner.run_matmul ~rows:4 ~cols:4 ~block:16
      (Runner.Strategy Dsm.Fixed_home)
  in
  let s =
    Report.ratio_table ~title:"T" ~param:"block" ~congestion:`Bytes
      ~rows:[ ("16", m, [ ("fh", m2) ]) ]
  in
  Alcotest.(check bool) "has header" true (contains s "fh cong");
  Alcotest.(check bool) "has title" true (contains s "T");
  let a =
    Report.absolute_table ~title:"A" ~param:"n"
      ~rows:[ ("1", [ ("s", m2) ]) ] ()
  in
  Alcotest.(check bool) "absolute has column" true (contains a "s cong(msg)")

let suite =
  [
    Alcotest.test_case "runner matmul measurements" `Quick
      test_runner_matmul_measurements;
    Alcotest.test_case "runner deterministic" `Quick test_runner_deterministic;
    Alcotest.test_case "BH phases sum to total" `Quick test_runner_bh_phase_sums;
    Alcotest.test_case "heatmap accounts all traffic" `Quick
      test_heatmap_accounts_all_traffic;
    Alcotest.test_case "heatmap render shape" `Quick test_heatmap_render_shape;
    Alcotest.test_case "heatmap hottest link" `Quick test_heatmap_hottest_link;
    Alcotest.test_case "heatmap folds link values" `Quick
      test_heatmap_link_values_fold;
    Alcotest.test_case "bench gate: identical passes" `Quick
      test_gate_identical_passes;
    Alcotest.test_case "bench gate: flags regression" `Quick
      test_gate_flags_regression;
    Alcotest.test_case "bench gate: direction aware" `Quick
      test_gate_direction_aware;
    Alcotest.test_case "bench gate: structural drift" `Quick
      test_gate_structural_drift;
    Alcotest.test_case "report tables" `Quick test_report_tables;
    Alcotest.test_case "bench gate: events gate exactly" `Quick
      test_gate_exact_events;
    Alcotest.test_case "bench gate: load rejects bad baselines" `Quick
      test_gate_load;
  ]
