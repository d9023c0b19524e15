(* Tests for critical-path cost attribution (Diva_obs.Analysis, folded by
   Diva_obs.Streaming): the decomposition must sum exactly to the measured
   blocking latency for every transaction of every app under both
   strategies, causal chains must be contiguous in time, and the engine,
   which retires each transaction's records at completion, must agree bit
   for bit with a reference that keeps every message of the run. *)

module Network = Diva_simnet.Network
module Machine = Diva_simnet.Machine
module Dsm = Diva_core.Dsm
module Runner = Diva_harness.Runner
module Barnes_hut = Diva_apps.Barnes_hut
module Trace = Diva_obs.Trace
module Analysis = Diva_obs.Analysis
module Streaming = Diva_obs.Streaming

let eps = 1e-6

(* Run one app with causal tracing on and return (overheads, events). *)
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
  (ov, Trace.events trace)

let summarize ?num_windows ov events =
  fst (Streaming.analyze_events ?num_windows ov events)

(* Every app of the paper, small enough for the test suite. *)
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

(* ------------------------------------------------------------------ *)
(* Keep-everything reference                                            *)
(* ------------------------------------------------------------------ *)

(* One message of the run with everything the stream ever says about it,
   including crossings emitted after its transaction completed. *)
type msg = {
  id : int;
  parent : int;
  txn : int;
  sent : float;
  local : bool;
  inject : float;
  mutable handled : float option;
  mutable xfers : float list;  (* (start, finish) pairs, flattened, reversed *)
}

type txn = {
  t_id : int;
  t_op : Trace.dsm_op;
  t_start : float;
  t_dur : float;
  t_completed_by : int;
  t_chain : msg list;  (* causal (oldest-first) order *)
}

(* The run's transactions in completion order, each with its completing
   chain: from the message that unblocked the fiber, walk [parent] links
   backwards while still inside the transaction. *)
let reference_txns events =
  let msgs = Hashtbl.create 1024 in
  List.iter
    (function
      | Trace.Msg_send { ts; id; parent; txn; inject; local; _ } ->
          Hashtbl.replace msgs id
            { id; parent; txn; sent = ts; local; inject;
              handled = (if local then Some inject else None); xfers = [] }
      | Trace.Link_xfer { start; finish; msg; _ } -> (
          match Hashtbl.find_opt msgs msg with
          | Some m -> m.xfers <- finish :: start :: m.xfers
          | None -> ())
      | Trace.Msg_deliver { id; handled; _ } -> (
          match Hashtbl.find_opt msgs id with
          | Some m when m.handled = None -> m.handled <- Some handled
          | _ -> ())
      | _ -> ())
    events;
  let chain txn completed_by =
    let rec go acc prev id =
      if id < 0 || id >= prev then acc
      else
        match Hashtbl.find_opt msgs id with
        | Some m when m.txn = txn -> go (m :: acc) id m.parent
        | _ -> acc
    in
    go [] max_int completed_by
  in
  List.filter_map
    (function
      | Trace.Dsm_access { ts; dur; op; txn; completed_by; _ } when txn >= 0 ->
          Some
            { t_id = txn; t_op = op; t_start = ts; t_dur = dur;
              t_completed_by = completed_by; t_chain = chain txn completed_by }
      | _ -> None)
    events

let decompose ov t =
  Analysis.decompose_chain ov ~t0:t.t_start ~dur:t.t_dur
    (List.map
       (fun m ->
         { Analysis.cl_local = m.local; cl_inject = m.inject;
           cl_handled = m.handled;
           cl_xfers = Array.of_list (List.rev m.xfers) })
       t.t_chain)

let same_bits (a : Analysis.cost) (b : Analysis.cost) =
  List.for_all2
    (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
    [ a.startup_us; a.transfer_us; a.queue_us; a.cpu_us ]
    [ b.startup_us; b.transfer_us; b.queue_us; b.cpu_us ]

(* The tentpole invariant: startup + transfer + queue + cpu = t_dur exactly,
   and no term is negative, for every transaction of every app x strategy.
   Summed per operation in completion order, the reference's costs are
   also the engine's op rows, bit for bit: retiring each transaction's
   records at completion loses nothing the decomposition reads. *)
let test_decomposition_sums () =
  List.iter
    (fun (app, run) ->
      List.iter
        (fun (sname, strategy) ->
          let ov, events = traced_run (run strategy) in
          let txns = reference_txns events in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s has transactions" app sname)
            true (txns <> []);
          let per_op = Hashtbl.create 8 in
          List.iter
            (fun t ->
              let c = decompose ov t in
              let where = Printf.sprintf "%s/%s txn %d" app sname t.t_id in
              List.iter
                (fun (term, v) ->
                  if v < -.eps then
                    Alcotest.failf "%s: negative %s (%g)" where term v)
                [ ("startup", c.Analysis.startup_us);
                  ("transfer", c.Analysis.transfer_us);
                  ("queue", c.Analysis.queue_us);
                  ("cpu", c.Analysis.cpu_us) ];
              let total = Analysis.total_cost c in
              let tol = eps *. Float.max 1.0 t.t_dur in
              if Float.abs (total -. t.t_dur) > tol then
                Alcotest.failf "%s: decomposition %g <> latency %g" where
                  total t.t_dur;
              let n, sum =
                Option.value ~default:(0, Analysis.zero_cost)
                  (Hashtbl.find_opt per_op t.t_op)
              in
              Hashtbl.replace per_op t.t_op (n + 1, Analysis.add_cost sum c))
            txns;
          let rows = (summarize ov events).Analysis.sm_ops in
          Alcotest.(check int)
            (Printf.sprintf "%s/%s op kinds" app sname)
            (Hashtbl.length per_op) (List.length rows);
          List.iter
            (fun (r : Analysis.op_row) ->
              let n, sum = Hashtbl.find per_op r.Analysis.or_op in
              let what =
                Printf.sprintf "%s/%s %s" app sname
                  (Analysis.op_name r.Analysis.or_op)
              in
              Alcotest.(check int) (what ^ " count") n r.Analysis.or_count;
              Alcotest.(check bool)
                (what ^ " cost = keep-everything reference, bit for bit")
                true
                (same_bits sum r.Analysis.or_cost))
            rows)
        both_strategies)
    apps

(* Handlers are instantaneous in simulated time, so along a completing
   chain each message is issued exactly when its parent is handled, every
   chain message belongs to the transaction, and the chain ends at the
   message that unblocked the fiber. *)
let test_chain_contiguity () =
  List.iter
    (fun (sname, strategy) ->
      let _, events = traced_run ((List.assoc "matmul" apps) strategy) in
      List.iter
        (fun t ->
          List.iter
            (fun m ->
              Alcotest.(check int)
                (Printf.sprintf "%s: chain msg in txn" sname)
                t.t_id m.txn)
            t.t_chain;
          (match List.rev t.t_chain with
          | last :: _ ->
              Alcotest.(check int)
                (Printf.sprintf "%s: chain ends at completer" sname)
                t.t_completed_by last.id
          | [] -> ());
          let rec pairs = function
            | a :: (b :: _ as rest) ->
                (match a.handled with
                | Some h ->
                    Alcotest.(check (float eps))
                      (Printf.sprintf "%s: child issued at parent handler"
                         sname)
                      h b.sent
                | None ->
                    Alcotest.failf "%s: chain crosses an unhandled message"
                      sname);
                pairs rest
            | _ -> ()
          in
          pairs t.t_chain)
        (reference_txns events))
    both_strategies

(* The critical-path timeline starts at 0 and covers gaps as cpu, so its
   total equals the makespan. *)
let test_critical_path_covers_makespan () =
  let ov, events =
    traced_run ((List.assoc "matmul" apps) (Dsm.access_tree ~arity:4 ()))
  in
  match (summarize ov events).Analysis.sm_critical with
  | None -> Alcotest.fail "no critical path on a traced run"
  | Some c ->
      Alcotest.(check bool) "has transactions" true (c.Analysis.sc_txns > 0);
      Alcotest.(check (float 1e-3))
        "timeline total = makespan" c.Analysis.sc_end
        (Analysis.total_cost c.Analysis.sc_cost)

let count p events = List.length (List.filter p events)

(* Level rows partition the messages; link-bytes are bytes x crossings. *)
let test_level_profile_partitions () =
  let ov, events =
    traced_run ((List.assoc "matmul" apps) (Dsm.access_tree ~arity:4 ()))
  in
  let s = summarize ov events in
  let msgs =
    List.fold_left (fun a r -> a + r.Analysis.lv_msgs) 0 s.Analysis.sm_levels
  in
  Alcotest.(check int) "levels partition msgs" s.Analysis.sm_num_msgs msgs;
  Alcotest.(check int) "every send counted"
    (count (function Trace.Msg_send _ -> true | _ -> false) events)
    msgs;
  let tagged =
    List.exists (fun r -> r.Analysis.lv_level >= 0 && r.Analysis.lv_msgs > 0)
      s.Analysis.sm_levels
  in
  Alcotest.(check bool) "access tree tags levels" true tagged

(* Window attribution is overlap-proportional, so summed over all windows
   it conserves every occupancy's bytes. *)
let test_windows_conserve_bytes () =
  let ov, events = traced_run ((List.assoc "bitonic" apps) Dsm.Fixed_home) in
  let expect =
    List.fold_left
      (fun a e ->
        match e with
        | Trace.Link_xfer { msg; size; _ } when msg >= 0 ->
            a +. float_of_int size
        | _ -> a)
      0.0 events
  in
  let got =
    List.fold_left
      (fun a w ->
        List.fold_left (fun a (_, b) -> a +. b) a w.Analysis.w_link_bytes)
      0.0
      (summarize ~num_windows:5 ov events).Analysis.sm_windows
  in
  Alcotest.(check bool) "windowed bytes conserve link traffic" true
    (Float.abs (got -. expect) <= 1e-6 *. Float.max 1.0 expect)

(* The op table groups the same transactions the decomposition walks. *)
let test_op_table_counts () =
  let ov, events = traced_run ((List.assoc "matmul" apps) Dsm.Fixed_home) in
  let s = summarize ov events in
  let rows = s.Analysis.sm_ops in
  let n = List.fold_left (fun a r -> a + r.Analysis.or_count) 0 rows in
  Alcotest.(check int) "op rows partition txns"
    (count
       (function Trace.Dsm_access { txn; _ } -> txn >= 0 | _ -> false)
       events)
    n;
  Alcotest.(check int) "summary counts them too" s.Analysis.sm_num_txns n;
  List.iter
    (fun r ->
      Alcotest.(check bool) "mean <= max" true
        (r.Analysis.or_mean_us <= r.Analysis.or_max_us +. eps))
    rows

(* analysis.json must be valid JSON and round-trip through the parser. *)
let test_to_json_roundtrip () =
  let ov, events =
    traced_run ((List.assoc "matmul" apps) (Dsm.access_tree ~arity:4 ()))
  in
  let summary, _ = Streaming.analyze_events ~top_k:5 ~num_windows:3 ov events in
  let j =
    Analysis.summary_to_json
      ~meta:[ ("app", Diva_obs.Json.String "matmul") ]
      summary
  in
  let s = Diva_obs.Json.to_string j in
  match Diva_obs.Json.of_string s with
  | Error e -> Alcotest.failf "analysis.json does not parse: %s" e
  | Ok (Diva_obs.Json.Obj fields) ->
      List.iter
        (fun k ->
          Alcotest.(check bool) (k ^ " present") true (List.mem_assoc k fields))
        [ "app"; "num_txns"; "num_msgs"; "end_us"; "critical_path"; "levels";
          "top_links"; "windows"; "ops" ];
      Alcotest.(check string) "reprints identically" s
        (Diva_obs.Json.to_string (Diva_obs.Json.Obj fields))
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
