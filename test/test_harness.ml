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
    Runner.run_matmul ~dims:[| 4; 4 |] ~block:64
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
    Runner.run_bitonic ~dims:[| 4; 4 |] ~keys:32
      (Runner.Strategy (Dsm.access_tree ~arity:2 ()))
  in
  Alcotest.(check bool) "identical measurements" true (run () = run ())

let test_runner_bh_phase_sums () =
  let cfg =
    { (Barnes_hut.default_config ~nbodies:64) with Barnes_hut.steps = 3; warmup = 1 }
  in
  let r =
    Runner.run_barnes_hut ~dims:[| 2; 2 |] ~cfg (Dsm.access_tree ~arity:2 ())
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

(* A phase row counts its own startups and DSM reads: they are taken at
   the measurement marks. With no warmup the first mark opens the run and
   the last closes it, so the phases sum to the whole run's counts; the
   whole-run fields of [bh_total] keep counting the warmup steps. *)
let test_runner_bh_phase_counters () =
  let phases =
    [ Barnes_hut.Build; Barnes_hut.Com; Barnes_hut.Partition; Barnes_hut.Force;
      Barnes_hut.Advance; Barnes_hut.Space ]
  in
  let run warmup =
    let cfg =
      { (Barnes_hut.default_config ~nbodies:64) with
        Barnes_hut.steps = 3; warmup }
    in
    Runner.run_barnes_hut ~dims:[| 2; 2 |] ~cfg (Dsm.access_tree ~arity:4 ())
  in
  let sum r f =
    List.fold_left (fun acc ph -> acc + f (r.Runner.bh_phase ph)) 0 phases
  in
  let startups m = m.Runner.startups
  and reads m = m.Runner.dsm_reads
  and hits m = m.Runner.dsm_read_hits in
  let all = run 0 and measured = run 1 in
  List.iter
    (fun (what, f) ->
      Alcotest.(check int) (what ^ ": phases sum to the run") (f all.Runner.bh_total)
        (sum all f);
      Alcotest.(check int) (what ^ ": warmup still in the total")
        (f all.Runner.bh_total) (f measured.Runner.bh_total);
      let s = sum measured f in
      Alcotest.(check bool) (what ^ ": warmup left out of the phases") true
        (s > 0 && s < sum all f))
    [ ("startups", startups); ("reads", reads); ("read hits", hits) ];
  List.iter
    (fun ph ->
      Alcotest.(check bool) "a phase is not the whole run" true
        (startups (all.Runner.bh_phase ph) < startups all.Runner.bh_total))
    phases

let test_heatmap_accounts_all_traffic () =
  let net, dsm = make_dsm ~rows:4 ~cols:4 (Dsm.access_tree ~arity:4 ()) in
  let v = Dsm.create_var dsm ~owner:0 ~size:256 0 in
  run_procs net (fun p -> ignore (Dsm.read dsm p v));
  let per = Link_stats.per_link_bytes (Network.stats net) in
  let traffic =
    Heatmap.nodes_of_link_values (Network.mesh net)
      (Array.to_list (Array.mapi (fun l v -> (l, float_of_int v)) per))
  in
  let sum = Array.fold_left ( +. ) 0.0 traffic in
  Alcotest.(check (float 0.0)) "outgoing sums to total bytes"
    (float_of_int (Link_stats.total_bytes (Network.stats net)))
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
  let hottest =
    List.find_opt
      (fun l -> contains l "hottest directed link")
      (String.split_on_char '\n' (Heatmap.render net))
  in
  match hottest with
  | None -> Alcotest.fail "traffic but no hottest link"
  | Some line ->
      Scanf.sscanf line "hottest directed link: %d (%d -> %d), %d bytes"
        (fun link src dst amount ->
          let per_link = Link_stats.per_link_bytes (Network.stats net) in
          Array.iteri
            (fun l b ->
              Alcotest.(check bool) "is the max, lowest id on ties" true
                (b < amount || (b = amount && l >= link)))
            per_link;
          Alcotest.(check int) "amount matches stats" per_link.(link) amount;
          let s, d = Diva_mesh.Mesh.link_endpoints (Network.mesh net) link in
          Alcotest.(check int) "src" s src;
          Alcotest.(check int) "dst" d dst)

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

(* --- bench gate ---------------------------------------------------- *)

module Gate = Diva_harness.Bench_gate
module Json = Diva_obs.Json

let doc fields = Json.Obj [ ("apps", Json.Obj fields) ]

let matmul_entry ?(events = 59441) time hits =
  ( "matmul",
    Json.Obj
      [ ("time_us", Json.Float time);
        ("congestion_bytes", Json.Int 5000);
        ("dsm_read_hits", Json.Int hits);
        ("events", Json.Int events) ] )

let with_temp_file contents f =
  let path = Filename.temp_file "diva-baseline" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc contents;
      close_out oc;
      f path)

(* The gate's answer for [current] against a baseline committed the way
   [bench --only bench_json] commits it: written by [Json.to_file], read
   back by [Gate.load]. *)
let gate ~baseline current =
  with_temp_file "" (fun path ->
      Json.to_file path baseline;
      match Gate.load path with
      | Ok b -> Gate.check b current
      | Error e -> Alcotest.failf "baseline rejected: %s" e)

let base = doc [ matmul_entry 1000.1 40 ]

let test_gate_identical_passes () =
  Alcotest.(check (list string)) "no differences" [] (gate ~baseline:base base)

(* Any move of a leaf fails, however small and in either direction, and
   the report names the leaf with both values: a 50% drop in time is a
   change to the figures like any other. *)
let test_gate_flags_any_move () =
  List.iter
    (fun (what, time, current) ->
      Alcotest.(check (list string)) what
        [ "apps/matmul/time_us: baseline 1000.1, current " ^ current ]
        (gate ~baseline:base (doc [ matmul_entry time 40 ])))
    [ ("one ulp up", Float.succ 1000.1, "1000.1000000000001");
      ("one ulp down", Float.pred 1000.1, "1000.0999999999999");
      ("50% drop", 500.05, "500.05") ]

(* One event more or less means the protocol did something different. *)
let test_gate_exact_events () =
  List.iter
    (fun events ->
      Alcotest.(check (list string))
        (Printf.sprintf "%d events" events)
        [ Printf.sprintf "apps/matmul/events: baseline 59441, current %d" events ]
        (gate ~baseline:base (doc [ matmul_entry ~events 1000.1 40 ])))
    [ 59442; 59440 ]

let test_gate_structural_drift () =
  let current =
    doc
      [ ( "matmul",
          Json.Obj
            [ ("time_us", Json.Float 1000.1);
              ("congestion_bytes", Json.Int 5000);
              ("events", Json.Int 59441);
              ("startups", Json.Int 3) ] ) ]
  in
  Alcotest.(check (list string)) "missing and extra keys named"
    [ "apps/matmul/dsm_read_hits: in the baseline, missing from the current run";
      "apps/matmul/startups: in the current run, absent from the baseline" ]
    (gate ~baseline:base current);
  let reordered =
    doc
      [ ( "matmul",
          Json.Obj
            [ ("events", Json.Int 59441);
              ("dsm_read_hits", Json.Int 40);
              ("congestion_bytes", Json.Int 5000);
              ("time_us", Json.Float 1000.1) ] ) ]
  in
  Alcotest.(check (list string)) "key order counts"
    [ "every leaf is equal, but the key order or the spelling differs" ]
    (gate ~baseline:base reordered)

let one_line what = function
  | Ok _ -> Alcotest.failf "%s: expected an error" what
  | Error e ->
      Alcotest.(check bool) (what ^ ": non-empty") true (e <> "");
      Alcotest.(check bool) (what ^ ": one line") false (String.contains e '\n')

let test_gate_load () =
  let d = doc [ matmul_entry 1000.0 40 ] in
  with_temp_file (Json.to_string d) (fun path ->
      match Gate.load path with
      | Ok b ->
          Alcotest.(check string) "round-trips" (Json.to_string d)
            (Json.to_string b.Gate.doc)
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
    Runner.run_matmul ~dims:[| 4; 4 |] ~block:16 Runner.Hand_optimized
  in
  let m2 =
    Runner.run_matmul ~dims:[| 4; 4 |] ~block:16
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
    Alcotest.test_case "BH phase counters are the phase's" `Quick
      test_runner_bh_phase_counters;
    Alcotest.test_case "heatmap accounts all traffic" `Quick
      test_heatmap_accounts_all_traffic;
    Alcotest.test_case "heatmap render shape" `Quick test_heatmap_render_shape;
    Alcotest.test_case "heatmap hottest link" `Quick test_heatmap_hottest_link;
    Alcotest.test_case "heatmap folds link values" `Quick
      test_heatmap_link_values_fold;
    Alcotest.test_case "bench gate: identical passes" `Quick
      test_gate_identical_passes;
    Alcotest.test_case "bench gate: flags any move" `Quick
      test_gate_flags_any_move;
    Alcotest.test_case "bench gate: structural drift" `Quick
      test_gate_structural_drift;
    Alcotest.test_case "report tables" `Quick test_report_tables;
    Alcotest.test_case "bench gate: events gate exactly" `Quick
      test_gate_exact_events;
    Alcotest.test_case "bench gate: load rejects bad baselines" `Quick
      test_gate_load;
  ]
