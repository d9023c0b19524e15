(* Tests for critical-path cost attribution (Diva_obs.Analysis, folded by
   Diva_obs.Streaming): the decomposition must sum exactly to the measured
   blocking latency for every transaction of every app under both
   strategies, causal chains must be contiguous in time, and the engine,
   which retires each transaction's records at completion, must agree bit
   for bit with a reference that keeps every message and every link
   crossing of the run: chain costs, side branches and windows, with and
   without injected message loss. *)

module Network = Diva_simnet.Network
module Machine = Diva_simnet.Machine
module Dsm = Diva_core.Dsm
module Runner = Diva_harness.Runner
module Barnes_hut = Diva_apps.Barnes_hut
module Trace = Diva_obs.Trace
module Analysis = Diva_obs.Analysis
module Streaming = Diva_obs.Streaming

let eps = 1e-6

(* Every term of a cost decomposition, summed. *)
let total_cost (c : Analysis.cost) =
  c.Analysis.startup_us +. c.Analysis.transfer_us +. c.Analysis.queue_us
  +. c.Analysis.cpu_us

(* Run one app with causal tracing on and return (overheads, events). *)
let traced_run ?(faults = Diva_faults.Schedule.empty) run =
  let trace = Trace.create () in
  let obs =
    { Runner.null_obs with Runner.obs_trace = trace; obs_faults = faults }
  in
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
  fst (Helpers.analyze_events ?num_windows ov events)

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

(* Every app x strategy, plus a matmul that loses one message in ten, so
   that lost, retransmitted and duplicate deliveries and post-completion
   crossings are in the stream. Each is (label, overheads, events). *)
let traced_runs =
  lazy
    (let faulted =
       let faults =
         Diva_faults.Schedule.make ~seed:9
           [ Diva_faults.Schedule.Msg_drop
               { prob = 0.1; w = { t0 = 0.0; t1 = 1e9 } } ]
       in
       let ov, events =
         traced_run ~faults
           ((List.assoc "matmul" apps) (Dsm.access_tree ~arity:4 ()))
       in
       ("matmul/4-ary/lossy", ov, events)
     in
     List.concat_map
       (fun (app, run) ->
         List.map
           (fun (sname, strategy) ->
             let ov, events = traced_run (run strategy) in
             (app ^ "/" ^ sname, ov, events))
           both_strategies)
       apps
     @ [ faulted ])

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
  t_sides : Analysis.side list;
      (* the other messages of the transaction in send order, as they
         stood when its completion event passed *)
}

(* The (start, finish) pairs of a message in arrival order. *)
let xfer_pairs m =
  let rec go acc = function
    | f :: s :: rest -> go ((s, f) :: acc) rest
    | _ -> acc
  in
  go [] m.xfers

(* The run's transactions in completion order, each with its completing
   chain (from the message that unblocked the fiber, walk [parent] links
   backwards while still inside the transaction) and its side branches,
   snapshot at the completion event. *)
let reference_txns events =
  let msgs = Hashtbl.create 1024 in
  let by_txn = Hashtbl.create 256 (* txn -> its messages, newest first *) in
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
  let side m =
    { Analysis.s_local = m.local; s_sent = m.sent; s_inject = m.inject;
      s_handled = m.handled;
      s_xfer_us =
        List.fold_left (fun acc (s, f) -> acc +. (f -. s)) 0.0 (xfer_pairs m) }
  in
  let txns = ref [] in
  List.iter
    (function
      | Trace.Msg_send { ts; id; parent; txn; inject; local; _ } ->
          let m =
            { id; parent; txn; sent = ts; local; inject;
              handled = (if local then Some inject else None); xfers = [] }
          in
          Hashtbl.replace msgs id m;
          if txn >= 0 then
            Hashtbl.replace by_txn txn
              (m :: Option.value ~default:[] (Hashtbl.find_opt by_txn txn))
      | Trace.Link_xfer { start; finish; msg; _ } -> (
          match Hashtbl.find_opt msgs msg with
          | Some m -> m.xfers <- finish :: start :: m.xfers
          | None -> ())
      | Trace.Msg_deliver { id; handled; _ } -> (
          match Hashtbl.find_opt msgs id with
          | Some m when m.handled = None -> m.handled <- Some handled
          | _ -> ())
      | Trace.Dsm_access { ts; dur; op; txn; completed_by; _ } when txn >= 0 ->
          let t_chain = chain txn completed_by in
          let t_sides =
            List.filter_map
              (fun m -> if List.memq m t_chain then None else Some (side m))
              (List.rev (Option.value ~default:[] (Hashtbl.find_opt by_txn txn)))
          in
          Hashtbl.remove by_txn txn;
          txns :=
            { t_id = txn; t_op = op; t_start = ts; t_dur = dur;
              t_completed_by = completed_by; t_chain; t_sides }
            :: !txns
      | _ -> ())
    events;
  List.rev !txns

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

(* Summed per operation in completion order, the reference's chain costs,
   side-branch counts and side costs are the engine's op rows, bit for
   bit: retiring each transaction's records at completion loses nothing
   the decomposition reads, and the records hold what the stream said by
   then. *)
let check_ops label ov events txns =
  let per_op = Hashtbl.create 8 in
  List.iter
    (fun t ->
      let n, sum, sides, side_sum =
        Option.value
          ~default:(0, Analysis.zero_cost, 0, Analysis.zero_cost)
          (Hashtbl.find_opt per_op t.t_op)
      in
      Hashtbl.replace per_op t.t_op
        ( n + 1,
          Analysis.add_cost sum (decompose ov t),
          sides + List.length t.t_sides,
          Analysis.add_cost side_sum (Analysis.sides_cost ov t.t_sides) ))
    txns;
  let rows = (summarize ov events).Analysis.sm_ops in
  Alcotest.(check int) (label ^ " op kinds") (Hashtbl.length per_op)
    (List.length rows);
  List.iter
    (fun (r : Analysis.op_row) ->
      let n, sum, sides, side_sum = Hashtbl.find per_op r.Analysis.or_op in
      let what =
        Printf.sprintf "%s %s" label (Analysis.op_name r.Analysis.or_op)
      in
      Alcotest.(check int) (what ^ " count") n r.Analysis.or_count;
      Alcotest.(check bool)
        (what ^ " cost = keep-everything reference, bit for bit")
        true
        (same_bits sum r.Analysis.or_cost);
      Alcotest.(check int) (what ^ " side messages") sides
        r.Analysis.or_side_msgs;
      Alcotest.(check bool)
        (what ^ " side cost = keep-everything reference, bit for bit")
        true
        (same_bits side_sum r.Analysis.or_side_cost))
    rows

(* The tentpole invariant: startup + transfer + queue + cpu = t_dur exactly,
   and no term is negative, for every transaction of every app x strategy,
   with and without message loss; and the engine's op rows are the
   keep-everything reference's. *)
let test_decomposition_sums () =
  List.iter
    (fun (label, ov, events) ->
      let txns = reference_txns events in
      Alcotest.(check bool) (label ^ " has transactions") true (txns <> []);
      List.iter
        (fun t ->
          let c = decompose ov t in
          let where = Printf.sprintf "%s txn %d" label t.t_id in
          List.iter
            (fun (term, v) ->
              if v < -.eps then
                Alcotest.failf "%s: negative %s (%g)" where term v)
            [ ("startup", c.Analysis.startup_us);
              ("transfer", c.Analysis.transfer_us);
              ("queue", c.Analysis.queue_us);
              ("cpu", c.Analysis.cpu_us) ];
          let total = total_cost c in
          let tol = eps *. Float.max 1.0 t.t_dur in
          if Float.abs (total -. t.t_dur) > tol then
            Alcotest.failf "%s: decomposition %g <> latency %g" where total
              t.t_dur)
        txns;
      check_ops label ov events txns)
    (Lazy.force traced_runs)

(* One write whose three side messages cross links for 1, 1 and 1e16 us,
   in that send order, and whose second side message is delivered twice.
   Summed in send order the side transfer is 1e16 + 2; in any order that
   does not add the 1e16 last it rounds to 1e16. So the engine must keep
   send order, and the first delivery. *)
let test_side_send_order () =
  let send ~id ~parent ~ts ~inject =
    Trace.Msg_send
      { ts; id; parent; txn = 0; inject; level = 0; src = 0; dst = 1;
        size = 8; local = false }
  and xfer msg start finish =
    Trace.Link_xfer
      { start; finish; link = msg; msg; txn = 0; level = 0; src = 0; dst = 1;
        size = 8 }
  and deliver id handled =
    Trace.Msg_deliver { ts = handled; id; txn = 0; handled; src = 0; dst = 1; size = 8 }
  in
  let events =
    [ send ~id:1 ~parent:(-1) ~ts:0.0 ~inject:1.0; xfer 1 1.0 2.0;
      deliver 1 3.0;
      send ~id:2 ~parent:1 ~ts:3.0 ~inject:4.0; xfer 2 4.0 5.0;
      send ~id:3 ~parent:1 ~ts:3.0 ~inject:4.0; xfer 3 4.0 5.0;
      send ~id:4 ~parent:1 ~ts:3.0 ~inject:4.0; xfer 4 4.0 (4.0 +. 1e16);
      send ~id:5 ~parent:1 ~ts:3.0 ~inject:4.0; xfer 5 4.0 5.0;
      deliver 3 6.0; deliver 3 7.0; deliver 5 6.0;
      Trace.Dsm_access
        { ts = 0.0; dur = 6.0; node = 0; var = 0; var_name = "v"; op = Trace.Write;
          size = 8; hit = false; txn = 0; completed_by = 5 } ]
  in
  let ov =
    { Analysis.send_overhead = 0.5; recv_overhead = 0.5; local_overhead = 0.25 }
  in
  let txns = reference_txns events in
  (match txns with
  | [ t ] ->
      Alcotest.(check (list int)) "chain" [ 1; 5 ] (List.map (fun m -> m.id) t.t_chain);
      Alcotest.(check (float 0.0)) "side transfer in send order" (1e16 +. 2.0)
        (Analysis.sides_cost ov t.t_sides).Analysis.transfer_us
  | _ -> Alcotest.fail "one transaction expected");
  check_ops "synthetic" ov events txns

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
        (total_cost c.Analysis.sc_cost)

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

module Int_map = Map.Make (Int)

(* The windowed link series straight from the event list, as
   {!Analysis.window} defines it. The run ends at the last local handler,
   link release (acks excluded) or handler run. The width [w] starts at
   1 us; before each crossing with a send, it doubles while the [n]
   windows end before the crossing does, each window of the new width
   summing the two it covers; then the crossing spreads its bytes over
   the windows it overlaps, in proportion to the overlap. At the end the
   width doubles likewise until the windows reach the end time. Sums are
   kept per link as sparse maps from window index, so an absent window
   stands for 0. Returns the end time and the windows up to it as
   (start, finish, per-link non-zero bytes). *)
let reference_windows n events =
  let t_end =
    List.fold_left
      (fun acc e ->
        match e with
        | Trace.Msg_send { local = true; inject; _ } -> Float.max acc inject
        | Trace.Link_xfer { msg; finish; _ } when msg >= 0 ->
            Float.max acc finish
        | Trace.Msg_deliver { id; handled; _ } when id >= 0 ->
            Float.max acc handled
        | _ -> acc)
      0.0 events
  in
  let nf = float_of_int n in
  let w = ref 1.0 and sums = ref Int_map.empty in
  let halve m =
    Int_map.fold
      (fun i b acc ->
        (* Ascending keys: the even window is added first. *)
        Int_map.update (i / 2)
          (function None -> Some b | Some b' -> Some (b' +. b))
          acc)
      m Int_map.empty
  in
  let reach limit =
    while nf *. !w < limit do
      sums := Int_map.map halve !sums;
      w := 2.0 *. !w
    done
  in
  List.iter
    (function
      | Trace.Link_xfer { start = s; finish = f; link; msg; size; _ }
        when msg >= 0 ->
          reach f;
          let w = !w and rate = float_of_int size /. (f -. s) in
          let windows =
            ref (Option.value ~default:Int_map.empty (Int_map.find_opt link !sums))
          in
          if f > s && f > 0.0 then
            for i = int_of_float (Float.max 0.0 (s /. w)) to
                min (n - 1) (int_of_float (f /. w)) do
              let lo = Float.max s (float_of_int i *. w)
              and hi = Float.min f (float_of_int (i + 1) *. w) in
              if hi > lo then
                windows :=
                  Int_map.update i
                    (fun b ->
                      Some (Option.value ~default:0.0 b +. (rate *. (hi -. lo))))
                    !windows
            done;
          sums := Int_map.add link !windows !sums
      | _ -> ())
    events;
  if t_end <= 0.0 then (t_end, [])
  else begin
    reach t_end;
    let w = !w in
    let k = min n (int_of_float (Float.ceil (t_end /. w))) in
    ( t_end,
      List.init k (fun i ->
          ( float_of_int i *. w,
            Float.min (float_of_int (i + 1) *. w) t_end,
            Int_map.fold
              (fun link m acc ->
                match Int_map.find_opt i m with
                | Some b when b <> 0.0 -> (link, b) :: acc
                | _ -> acc)
              !sums []
            |> List.rev )) )
  end

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* The engine's windows and end time against the reference, bit for
   bit; and the shape the definition promises: at most [n] windows, more
   than [n / 2] once wider than 1 us, the last one ending at the end
   time. Returns the engine's summary. *)
let check_windows what ov events n =
  let s = summarize ~num_windows:n ov events in
  let t_end, want = reference_windows n events in
  if not (same_float t_end s.Analysis.sm_end_us) then
    Alcotest.failf "%s: end %h, reference %h" what s.Analysis.sm_end_us t_end;
  (match s.Analysis.sm_windows with
  | [] -> ()
  | w0 :: _ as ws ->
      let k = List.length ws and last = List.nth ws (List.length ws - 1) in
      if
        k > n
        || (w0.Analysis.w_finish > 1.0 && 2 * k <= n)
        || not (same_float last.Analysis.w_finish t_end)
      then
        Alcotest.failf
          "%s: %d windows of %g us for n = %d, the last ending at %g" what k
          w0.Analysis.w_finish n last.Analysis.w_finish);
  Alcotest.(check int)
    (Printf.sprintf "%s: %d windows" what n)
    (List.length want)
    (List.length s.Analysis.sm_windows);
  List.iteri
    (fun i ((lo, hi, bytes), (got : Analysis.window)) ->
      let same =
        same_float lo got.Analysis.w_start
        && same_float hi got.Analysis.w_finish
        && List.length bytes = List.length got.Analysis.w_link_bytes
        && List.for_all2
             (fun (l, b) (l', b') -> l = l' && same_float b b')
             bytes got.Analysis.w_link_bytes
      in
      if not same then
        Alcotest.failf "%s: window %d of %d differs from the reference" what i
          n)
    (List.combine want s.Analysis.sm_windows);
  s

(* Every run's windowed series is the reference's, bit for bit, from one
   window up to the cap. *)
let test_windows_match_reference () =
  List.iter
    (fun (label, ov, events) ->
      List.iter
        (fun n -> ignore (check_windows label ov events n))
        [ 1; 5; 7; 8; 100; Streaming.max_windows ])
    (Lazy.force traced_runs)

(* Crossings on arbitrary links with arbitrary sizes: links and sizes
   at and past 30 and 32 bits either way, negative ones, the extremes
   of int. *)
let test_windows_wide_crossings () =
  let rng = Random.State.make [| 26 |] in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let links =
    [| 0; 3; 7; -5; (1 lsl 30) - 1; 1 lsl 30; -(1 lsl 30); -(1 lsl 30) - 1;
       max_int; min_int |]
  and sizes =
    [| 0; 1; 64; 4096; (1 lsl 32) - 2; (1 lsl 32) - 1; 1 lsl 40; -1; -64;
       max_int |]
  in
  let events =
    List.init 10_000 (fun i ->
        let start = float_of_int i *. 0.37 in
        let finish = start +. pick [| 0.0; 0.5; 3.0; 40.0 |] in
        Trace.Link_xfer
          { start; finish; link = pick links; msg = i; txn = -1; level = -1;
            src = 0; dst = 1; size = pick sizes })
  in
  let ov =
    { Analysis.send_overhead = 1.0; recv_overhead = 1.0; local_overhead = 0.5 }
  in
  List.iter
    (fun n -> ignore (check_windows "synthetic" ov events n))
    [ 1; 7; Streaming.max_windows ]

let xfer ~link ~size start finish =
  Trace.Link_xfer
    { start; finish; link; msg = 0; txn = -1; level = -1; src = 0; dst = 1;
      size }

(* The fold at its edges, against the reference and by hand. Rate 10
   bytes/us throughout: link 3 crosses [-4, 4), of which [0, 4) counts;
   link 1's crossings end no later than they start, so they widen the
   windows but add nothing; link 2 crosses [3, 20); a delivery at 100 us
   ends the run after the last crossing. With 8 windows the width
   doubles from 1 to 4 us during the fold and to 16 at the end: seven
   windows, the last clipped to [96, 100). *)
let test_window_fold_edges () =
  let ov =
    { Analysis.send_overhead = 1.0; recv_overhead = 1.0; local_overhead = 0.5 }
  in
  let events =
    [ xfer ~link:3 ~size:80 (-4.0) 4.0;
      xfer ~link:1 ~size:50 10.0 10.0;
      xfer ~link:1 ~size:50 12.0 11.0;
      xfer ~link:2 ~size:170 3.0 20.0;
      Trace.Msg_deliver
        { ts = 90.0; id = 0; txn = -1; handled = 100.0; src = 0; dst = 1;
          size = 8 } ]
  in
  List.iter
    (fun n -> ignore (check_windows "edges" ov events n))
    [ 1; 5; 7; Streaming.max_windows ];
  let s = check_windows "edges" ov events 8 in
  let got =
    List.map
      (fun w ->
        (w.Analysis.w_start, w.Analysis.w_finish, w.Analysis.w_link_bytes))
      s.Analysis.sm_windows
  and want =
    [ (0.0, 16.0, [ (2, 130.0); (3, 40.0) ]); (16.0, 32.0, [ (2, 40.0) ]);
      (32.0, 48.0, []); (48.0, 64.0, []); (64.0, 80.0, []); (80.0, 96.0, []);
      (96.0, 100.0, []) ]
  in
  Alcotest.(
    check (list (triple (float 0.0) (float 0.0) (list (pair int (float 0.0))))))
    "8 windows of the edge cases" want got;
  (* A crossing that ends at 1e300 us widens the windows about a
     thousand times, and still ends. *)
  let far = [ xfer ~link:0 ~size:8 0.0 1e300; xfer ~link:5 ~size:8 1.0 2.0 ] in
  List.iter
    (fun n ->
      let s = check_windows "far" ov far n in
      let bytes =
        List.fold_left
          (fun a w ->
            List.fold_left (fun a (_, b) -> a +. b) a w.Analysis.w_link_bytes)
          0.0 s.Analysis.sm_windows
      in
      Alcotest.(check (float 1e-9)) "far: bytes conserved" 16.0 bytes)
    [ 1; 7; 8 ]

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
  let summary, _ = Helpers.analyze_events ~top_k:5 ~num_windows:3 ov events in
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
    Alcotest.test_case "windows = keep-everything reference" `Quick
      test_windows_match_reference;
    Alcotest.test_case "windows of unpackable crossings" `Quick
      test_windows_wide_crossings;
    Alcotest.test_case "window fold edge cases" `Quick test_window_fold_edges;
    Alcotest.test_case "side costs sum in send order" `Quick
      test_side_send_order;
  ]
