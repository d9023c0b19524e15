(* Tests for causal span trees (Diva_obs.Spans) and critical-path cost
   attribution (Diva_obs.Analysis): the decomposition must sum exactly to
   the measured blocking latency for every transaction of every app under
   both strategies, and causal chains must be contiguous in time. *)

module Network = Diva_simnet.Network
module Machine = Diva_simnet.Machine
module Dsm = Diva_core.Dsm
module Runner = Diva_harness.Runner
module Barnes_hut = Diva_apps.Barnes_hut
module Trace = Diva_obs.Trace
module Spans = Diva_obs.Spans
module Analysis = Diva_obs.Analysis

let eps = 1e-6

(* Run one app with causal tracing on and return (overheads, spans). *)
let traced_run run =
  let trace = Trace.create () in
  let obs = { Runner.null_obs with Runner.obs_trace = trace } in
  let captured = ref None in
  let on_net net = captured := Some net in
  run ~obs ~on_net;
  let net = Option.get !captured in
  let m = Network.machine net in
  let ov =
    { Analysis.send_overhead = m.Machine.send_overhead;
      recv_overhead = m.Machine.recv_overhead;
      local_overhead = m.Machine.local_overhead }
  in
  (ov, Spans.build (Trace.events trace))

(* Every app of the paper, small enough for the test suite. *)
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

(* The tentpole invariant: startup + transfer + queue + cpu = t_dur exactly,
   and no term is negative, for every transaction of every app x strategy. *)
let test_decomposition_sums () =
  List.iter
    (fun (app, run) ->
      List.iter
        (fun (sname, strategy) ->
          let ov, spans = traced_run (run strategy) in
          let txns = Spans.txns spans in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s has transactions" app sname)
            true (txns <> []);
          List.iter
            (fun (t : Spans.txn) ->
              let c = Analysis.decompose ov spans t in
              let where =
                Printf.sprintf "%s/%s txn %d" app sname t.Spans.t_id
              in
              List.iter
                (fun (term, v) ->
                  if v < -.eps then
                    Alcotest.failf "%s: negative %s (%g)" where term v)
                [ ("startup", c.Analysis.startup_us);
                  ("transfer", c.Analysis.transfer_us);
                  ("queue", c.Analysis.queue_us);
                  ("cpu", c.Analysis.cpu_us) ];
              let total = Analysis.total_cost c in
              let tol = eps *. Float.max 1.0 t.Spans.t_dur in
              if Float.abs (total -. t.Spans.t_dur) > tol then
                Alcotest.failf "%s: decomposition %g <> latency %g" where
                  total t.Spans.t_dur)
            txns)
        both_strategies)
    apps

(* Handlers are instantaneous in simulated time, so along a completing
   chain each message is issued exactly when its parent is handled, every
   chain message belongs to the transaction, and the chain ends at the
   message that unblocked the fiber. *)
let test_chain_contiguity () =
  List.iter
    (fun (sname, strategy) ->
      let _, spans = traced_run ((List.assoc "matmul" apps) strategy) in
      List.iter
        (fun (t : Spans.txn) ->
          let chain = Spans.chain spans t in
          List.iter
            (fun (m : Spans.msg) ->
              Alcotest.(check int)
                (Printf.sprintf "%s: chain msg in txn" sname)
                t.Spans.t_id m.Spans.txn)
            chain;
          (match List.rev chain with
          | last :: _ ->
              Alcotest.(check int)
                (Printf.sprintf "%s: chain ends at completer" sname)
                t.Spans.t_completed_by last.Spans.id
          | [] -> ());
          let rec pairs = function
            | (a : Spans.msg) :: (b :: _ as rest) ->
                (match a.Spans.handled with
                | Some h ->
                    Alcotest.(check (float eps))
                      (Printf.sprintf "%s: child issued at parent handler"
                         sname)
                      h b.Spans.sent
                | None ->
                    Alcotest.failf "%s: chain crosses an unhandled message"
                      sname);
                pairs rest
            | _ -> ()
          in
          pairs chain)
        (Spans.txns spans))
    both_strategies

(* The critical-path timeline starts at 0 and covers gaps as cpu, so its
   total equals the makespan. *)
let test_critical_path_covers_makespan () =
  let ov, spans =
    traced_run ((List.assoc "matmul" apps) (Dsm.access_tree ~arity:4 ()))
  in
  match Analysis.critical_path ov spans with
  | None -> Alcotest.fail "no critical path on a traced run"
  | Some cp ->
      Alcotest.(check bool) "has transactions" true (cp.Analysis.cp_txns <> []);
      Alcotest.(check (float 1e-3))
        "timeline total = makespan" cp.Analysis.cp_end
        (Analysis.total_cost cp.Analysis.cp_cost)

(* Level rows partition the messages; link-bytes are bytes x crossings. *)
let test_level_profile_partitions () =
  let _, spans =
    traced_run ((List.assoc "matmul" apps) (Dsm.access_tree ~arity:4 ()))
  in
  let rows = Analysis.level_profile spans in
  let msgs = List.fold_left (fun a r -> a + r.Analysis.lv_msgs) 0 rows in
  Alcotest.(check int) "levels partition msgs" (Spans.num_msgs spans) msgs;
  let tagged =
    List.exists (fun r -> r.Analysis.lv_level >= 0 && r.Analysis.lv_msgs > 0)
      rows
  in
  Alcotest.(check bool) "access tree tags levels" true tagged

(* Window attribution is overlap-proportional, so summed over all windows
   it conserves every occupancy's bytes. *)
let test_windows_conserve_bytes () =
  let _, spans =
    traced_run ((List.assoc "bitonic" apps) Dsm.Fixed_home)
  in
  let expect =
    List.fold_left
      (fun a (m : Spans.msg) ->
        a +. float_of_int (m.Spans.size * List.length m.Spans.xfers))
      0.0 (Spans.msgs spans)
  in
  let got =
    List.fold_left
      (fun a w ->
        List.fold_left (fun a (_, b) -> a +. b) a w.Analysis.w_link_bytes)
      0.0
      (Analysis.windows ~n:5 spans)
  in
  Alcotest.(check bool) "windowed bytes conserve link traffic" true
    (Float.abs (got -. expect) <= 1e-6 *. Float.max 1.0 expect)

(* The op table groups the same transactions the decomposition walks. *)
let test_op_table_counts () =
  let ov, spans =
    traced_run ((List.assoc "matmul" apps) Dsm.Fixed_home)
  in
  let rows = Analysis.op_table ov spans in
  let n = List.fold_left (fun a r -> a + r.Analysis.or_count) 0 rows in
  Alcotest.(check int) "op rows partition txns"
    (List.length (Spans.txns spans))
    n;
  List.iter
    (fun r ->
      Alcotest.(check bool) "mean <= max" true
        (r.Analysis.or_mean_us <= r.Analysis.or_max_us +. eps))
    rows

(* analysis.json must be valid JSON and round-trip through the parser. *)
let test_to_json_roundtrip () =
  let ov, spans =
    traced_run ((List.assoc "matmul" apps) (Dsm.access_tree ~arity:4 ()))
  in
  let j =
    Analysis.to_json
      ~meta:[ ("app", Diva_obs.Json.String "matmul") ]
      ~top_k:5 ~num_windows:3 ov spans
  in
  let s = Diva_obs.Json.to_string j in
  match Diva_obs.Json.of_string s with
  | Error e -> Alcotest.failf "analysis.json does not parse: %s" e
  | Ok (Diva_obs.Json.Obj fields) ->
      List.iter
        (fun k ->
          Alcotest.(check bool) (k ^ " present") true (List.mem_assoc k fields))
        [ "app"; "num_txns"; "num_msgs"; "critical_path"; "levels";
          "top_links"; "windows"; "ops" ]
  | Ok _ -> Alcotest.fail "analysis.json is not an object"

(* ------------------------------------------------------------------ *)
(* Cost sweep vs the quadratic reference                                *)
(* ------------------------------------------------------------------ *)

(* The sweep as it was before the sort-based rewrite: for every pair of
   consecutive boundary points, scan every segment at the midpoint. *)
let reference_decompose_chain (ov : Analysis.overheads) ~t0 ~dur links =
  let t1 = t0 +. dur in
  let segs = ref [] in
  let add label a b =
    let a = Float.max a t0 and b = Float.min b t1 in
    if b > a then segs := (label, a, b) :: !segs
  in
  List.iter
    (fun (l : Analysis.chain_link) ->
      if l.Analysis.cl_local then
        add `Cpu (l.Analysis.cl_inject -. ov.Analysis.local_overhead)
          l.Analysis.cl_inject
      else begin
        add `Startup (l.Analysis.cl_inject -. ov.Analysis.send_overhead)
          l.Analysis.cl_inject;
        let x = l.Analysis.cl_xfers in
        for k = 0 to (Array.length x / 2) - 1 do
          add `Transfer x.(2 * k) x.((2 * k) + 1)
        done;
        match l.Analysis.cl_handled with
        | Some h -> add `Startup (h -. ov.Analysis.recv_overhead) h
        | None -> ()
      end)
    links;
  let pts =
    List.sort_uniq Float.compare
      (t0 :: t1 :: List.concat_map (fun (_, a, b) -> [ a; b ]) !segs)
  in
  let startup = ref 0.0 and transfer = ref 0.0 and cpu = ref 0.0 in
  let rec sweep = function
    | a :: (b :: _ as rest) ->
        let mid = (a +. b) /. 2.0 in
        let active l =
          List.exists (fun (l', x, y) -> l' = l && x <= mid && mid < y) !segs
        in
        let d = b -. a in
        if active `Startup then startup := !startup +. d
        else if active `Transfer then transfer := !transfer +. d
        else if active `Cpu then cpu := !cpu +. d;
        sweep rest
    | _ -> ()
  in
  sweep pts;
  {
    Analysis.startup_us = !startup;
    transfer_us = !transfer;
    queue_us = dur -. (!startup +. !transfer +. !cpu);
    cpu_us = !cpu;
  }

let same_bits (a : Analysis.cost) (b : Analysis.cost) =
  List.for_all2
    (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
    [ a.startup_us; a.transfer_us; a.queue_us; a.cpu_us ]
    [ b.startup_us; b.transfer_us; b.queue_us; b.cpu_us ]

(* Points drawn from a small pool so segments share endpoints, each
   possibly nudged by a few ulps: around adjacent doubles [(a +. b) /. 2.0]
   rounds onto an endpoint, the case the sweep must classify exactly as
   the segment test does. Rarely, values near [max_float] make the
   midpoint overflow. *)
let gen_point =
  QCheck.Gen.(
    let base =
      frequency
        [ (6, map (fun k -> float_of_int k *. 0.5) (int_range 0 40));
          (2, map (fun k -> 1e6 +. float_of_int k) (int_range 0 8));
          (2, oneofl [ 1.0; 3.0; 1024.0; 0.1; 7.3 ]);
          (1, map (fun k -> 1.5e308 +. (float_of_int k *. 1e306)) (int_range 0 20)) ]
    in
    let rec nudge n f =
      if n > 0 then nudge (n - 1) (Float.succ f)
      else if n < 0 then nudge (n + 1) (Float.pred f)
      else f
    in
    map2 (fun f n -> if n > 3 then f else nudge n f) base (int_range (-3) 10))

let gen_chain =
  QCheck.Gen.(
    let link =
      map
        (fun ((local, inject), (handled, xfers)) ->
          { Analysis.cl_local = local; cl_inject = inject; cl_handled = handled;
            cl_xfers =
              Array.of_list (List.concat_map (fun (s, f) -> [ s; f ]) xfers) })
        (pair
           (pair (frequencyl [ (1, true); (3, false) ]) gen_point)
           (pair (opt gen_point) (list_size (int_bound 4) (pair gen_point gen_point))))
    in
    let ov =
      map
        (fun (s, (r, l)) ->
          { Analysis.send_overhead = s; recv_overhead = r; local_overhead = l })
        (pair gen_point (pair gen_point gen_point))
    in
    quad ov gen_point
      (frequency [ (6, gen_point); (1, map Float.neg gen_point) ])
      (list_size (int_bound 6) link))

let print_chain (ov, t0, dur, links) =
  let b = Buffer.create 256 in
  Printf.bprintf b "ov=(%h,%h,%h) t0=%h dur=%h\n" ov.Analysis.send_overhead
    ov.Analysis.recv_overhead ov.Analysis.local_overhead t0 dur;
  List.iter
    (fun (l : Analysis.chain_link) ->
      Printf.bprintf b "  local=%b inject=%h handled=%s xfers=[%s]\n"
        l.Analysis.cl_local l.Analysis.cl_inject
        (match l.Analysis.cl_handled with
        | Some h -> Printf.sprintf "%h" h
        | None -> "-")
        (String.concat ";"
           (Array.to_list (Array.map (Printf.sprintf "%h") l.Analysis.cl_xfers))))
    links;
  Buffer.contents b

let prop_sweep_matches_reference =
  QCheck.Test.make ~name:"sort-based sweep = quadratic reference, bit for bit"
    ~count:3000
    (QCheck.make ~print:print_chain gen_chain)
    (fun (ov, t0, dur, links) ->
      same_bits
        (Analysis.decompose_chain ov ~t0 ~dur links)
        (reference_decompose_chain ov ~t0 ~dur links))

(* Adjacent doubles whose midpoint rounds up onto the right endpoint: the
   segment test then credits [a, b) to whatever is live from [b] on, not
   to the transfer that actually covers it. The sweep must agree. *)
let test_sweep_midpoint_rounds_up () =
  let a = Float.succ 1.0 in
  let b = Float.succ a in
  let c = Float.succ b in
  Alcotest.(check bool) "midpoint rounds onto b" true ((a +. b) /. 2.0 = b);
  let ov =
    { Analysis.send_overhead = c -. b; recv_overhead = 0.0; local_overhead = 0.0 }
  in
  let links =
    [ { Analysis.cl_local = false; cl_inject = c; cl_handled = None;
        cl_xfers = [| a; b |] } ]
  in
  let got = Analysis.decompose_chain ov ~t0:1.0 ~dur:(c -. 1.0) links in
  let want = reference_decompose_chain ov ~t0:1.0 ~dur:(c -. 1.0) links in
  Alcotest.(check bool) "bit-equal to the reference" true (same_bits got want);
  Alcotest.(check bool) "[a, b) counted as startup" true
    (got.Analysis.startup_us = c -. a && got.Analysis.transfer_us = 0.0)

let suite =
  [
    Alcotest.test_case "decomposition sums to latency" `Quick
      test_decomposition_sums;
    Alcotest.test_case "chains are contiguous" `Quick test_chain_contiguity;
    Alcotest.test_case "critical path covers makespan" `Quick
      test_critical_path_covers_makespan;
    Alcotest.test_case "level profile partitions messages" `Quick
      test_level_profile_partitions;
    Alcotest.test_case "windows conserve bytes" `Quick
      test_windows_conserve_bytes;
    Alcotest.test_case "op table partitions transactions" `Quick
      test_op_table_counts;
    Alcotest.test_case "analysis.json round-trips" `Quick
      test_to_json_roundtrip;
    Alcotest.test_case "sweep midpoint rounding onto an endpoint" `Quick
      test_sweep_midpoint_rounds_up;
    QCheck_alcotest.to_alcotest prop_sweep_matches_reference;
  ]
