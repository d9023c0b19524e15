(* Tests for the discrete-event simulator and the network model. *)

module Sim = Diva_simnet.Sim
module Machine = Diva_simnet.Machine
module Network = Diva_simnet.Network
module Link_stats = Diva_simnet.Link_stats
module Mesh = Diva_mesh.Mesh

type Network.payload += Ping of int

let test_sim_event_order () =
  let s = Sim.create () in
  let log = ref [] in
  Sim.schedule s 5.0 (fun () -> log := 5 :: !log);
  Sim.schedule s 1.0 (fun () -> log := 1 :: !log);
  Sim.schedule s 3.0 (fun () -> log := 3 :: !log);
  Sim.run s;
  Alcotest.(check (list int)) "time order" [ 1; 3; 5 ] (List.rev !log)

let test_sim_fifo_same_time () =
  let s = Sim.create () in
  let log = ref [] in
  for i = 0 to 9 do
    Sim.schedule s 1.0 (fun () -> log := i :: !log)
  done;
  Sim.run s;
  Alcotest.(check (list int)) "fifo" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !log)

let test_sim_nested_schedule () =
  let s = Sim.create () in
  let log = ref [] in
  Sim.schedule s 1.0 (fun () ->
      log := `A :: !log;
      Sim.schedule s 2.0 (fun () -> log := `B :: !log));
  Sim.run s;
  Alcotest.(check int) "two events" 2 (List.length !log);
  Alcotest.(check bool) "order" true (List.rev !log = [ `A; `B ])

let test_sim_rejects_past () =
  let s = Sim.create () in
  Sim.schedule s 5.0 (fun () ->
      Alcotest.check_raises "past" (Invalid_argument
        "Sim.schedule: 1.000 is in the past (now = 5.000)")
        (fun () -> Sim.schedule s 1.0 (fun () -> ())));
  Sim.run s

(* A NaN time passes a plain [at < now] test, runs at once and sets the
   clock to NaN; +infinity would sit in the queue past every real event. *)
let test_sim_rejects_non_finite () =
  let s = Sim.create () in
  List.iter
    (fun at ->
      let name = Printf.sprintf "%g" at in
      let err =
        Invalid_argument (Printf.sprintf "Sim.schedule: time %g is not finite" at)
      in
      Alcotest.check_raises ("schedule " ^ name) err (fun () ->
          Sim.schedule s at ignore);
      Alcotest.check_raises ("schedule_call " ^ name) err (fun () ->
          Sim.schedule_call s at ignore ()))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  Alcotest.(check int) "nothing queued" 0 (Sim.pending s)

(* Allocation gate: 256 self-rescheduling [schedule_call] chains. Each
   event allocates the boxed time passed to [schedule_call] and the boxed
   clock (2 words each): 4 words (3.995 measured). The queue keeps the
   function and its argument in columns of its own; with a 3-word [Call]
   block per event the gate was 7 (6.99 measured). *)
type chain = { sim : Sim.t; step : float; mutable left : int }

let rec tick c =
  if c.left > 0 then begin
    c.left <- c.left - 1;
    Sim.schedule_call c.sim (Sim.now c.sim +. c.step) tick c
  end

let test_sim_alloc_gate () =
  let sim = Sim.create () in
  for i = 0 to 255 do
    Sim.schedule_call sim 0.0 tick
      { sim; step = 1.0 +. (float_of_int i *. 0.001); left = 400 }
  done;
  let w0 = Gc.minor_words () in
  Sim.run sim;
  let words =
    (Gc.minor_words () -. w0) /. float_of_int (Sim.events_executed sim)
  in
  if words > 4.0 then
    Alcotest.failf "Sim allocates %.3f words per event, over the gate of 4"
      words

(* Allocation gate for message delivery: 64 handler-to-handler send
   chains on a 16x16 mesh with uniform destinations, [Network.Empty]
   payloads of 64 B. Each message measures 14.02 minor words; the gate
   sits at the next half word. It measured 18.02 (gate 24.5) while the
   delivery step was a non-inlined call that boxed its time argument and
   its result, and 34.02 (gate 34.5) when each delivery also allocated a
   5-word context record and a 3-word queue cell, the message record was
   2 words smaller, and the CPU reservation boxed its overhead argument
   and its result. *)
let test_network_alloc_gate () =
  let net = Network.create ~seed:5 ~rows:16 ~cols:16 () in
  let n = Network.num_nodes net in
  let rng = Diva_util.Prng.create ~seed:13 in
  let ops = 20_000 and chains = 64 in
  let left = ref (ops - chains) and delivered = ref 0 in
  let other src = (src + 1 + Diva_util.Prng.int rng (n - 1)) mod n in
  let handler net (m : Network.msg) =
    incr delivered;
    if !left > 0 then begin
      decr left;
      Network.send net ~src:m.Network.m_dst ~dst:(other m.Network.m_dst)
        ~size:64 Network.Empty
    end
  in
  for p = 0 to n - 1 do
    Network.set_handler net p handler
  done;
  Sim.schedule (Network.sim net) 0.0 (fun () ->
      for k = 0 to chains - 1 do
        let src = k mod n in
        Network.send net ~src ~dst:(other src) ~size:64 Network.Empty
      done);
  let w0 = Gc.minor_words () in
  Network.run net;
  let words = (Gc.minor_words () -. w0) /. float_of_int ops in
  Alcotest.(check int) "every message delivered" ops !delivered;
  if words > 14.5 then
    Alcotest.failf
      "Network allocates %.3f words per message, over the gate of 14.5" words

let test_delivery_and_congestion () =
  let net = Network.create ~rows:1 ~cols:3 () in
  let got = ref [] in
  Network.set_handler net 2 (fun _ msg ->
      got := (msg.Network.m_src, msg.Network.m_size) :: !got);
  Network.send net ~src:0 ~dst:2 ~size:100 (Ping 1);
  Network.run net;
  Alcotest.(check (list (pair int int))) "delivered" [ (0, 100) ] !got;
  (* The message crossed two links: congestion 1 message / 100 bytes. *)
  let st = Network.stats net in
  Alcotest.(check int) "congestion msgs" 1 (Link_stats.congestion_msgs st);
  Alcotest.(check int) "congestion bytes" 100 (Link_stats.congestion_bytes st);
  Alcotest.(check int) "total msgs = hops" 2 (Link_stats.total_msgs st);
  Alcotest.(check int) "total bytes" 200 (Link_stats.total_bytes st);
  Alcotest.(check int) "one startup" 1 (Network.startups net)

let test_local_send_free () =
  let net = Network.create ~rows:2 ~cols:2 () in
  let got = ref 0 in
  Network.set_handler net 1 (fun _ _ -> incr got);
  Network.send net ~src:1 ~dst:1 ~size:1000 (Ping 2);
  Network.run net;
  Alcotest.(check int) "delivered locally" 1 !got;
  Alcotest.(check int) "no congestion" 0 (Link_stats.congestion_msgs (Network.stats net));
  Alcotest.(check int) "no startup" 0 (Network.startups net)

let test_timing_uncontended () =
  (* latency = send_overhead + (h-1)*hop_latency + size/bw, plus the
     receiver overhead before the handler runs. *)
  let machine = Machine.gcel in
  let net = Network.create ~rows:1 ~cols:5 () in
  let at = ref 0.0 in
  Network.set_handler net 4 (fun n _ -> at := Network.now n);
  Network.send net ~src:0 ~dst:4 ~size:1000 (Ping 3);
  Network.run net;
  let expected =
    machine.Machine.send_overhead
    +. (3.0 *. machine.Machine.hop_latency)
    +. Machine.transfer_time machine 1000
    +. machine.Machine.recv_overhead
  in
  Alcotest.(check (float 1e-6)) "uncontended latency" expected !at

let test_link_contention_serializes () =
  (* Two messages over the same link must be served one after another. *)
  let machine = Machine.gcel in
  let net = Network.create ~rows:1 ~cols:2 () in
  let times = ref [] in
  Network.set_handler net 1 (fun n _ -> times := Network.now n :: !times);
  (* Two sends from node 0 at t=0: the second also waits for the sender's
     CPU (startup) and then for the link. *)
  Network.send net ~src:0 ~dst:1 ~size:10000 (Ping 1);
  Network.send net ~src:0 ~dst:1 ~size:10000 (Ping 2);
  Network.run net;
  match List.rev !times with
  | [ t1; t2 ] ->
      let transfer = Machine.transfer_time machine 10000 in
      Alcotest.(check bool) "second delayed by >= transfer" true
        (t2 -. t1 >= transfer -. 1e-6)
  | _ -> Alcotest.fail "expected two deliveries"

let test_fiber_compute_and_time () =
  let net = Network.create ~rows:1 ~cols:1 () in
  let finished = ref 0.0 in
  Network.spawn net 0 (fun () ->
      Network.compute net 0 100.0;
      Network.compute net 0 50.0;
      finished := Network.now net);
  Network.run net;
  Alcotest.(check (float 1e-9)) "computes add up" 150.0 !finished;
  Alcotest.(check (float 1e-9)) "accounted" 150.0 (Network.compute_times net).(0)

let test_fiber_charge_flush () =
  let net = Network.create ~rows:1 ~cols:1 () in
  let finished = ref 0.0 in
  Network.spawn net 0 (fun () ->
      Network.charge net 0 30.0;
      Network.charge net 0 20.0;
      Network.flush_charge net 0;
      finished := Network.now net);
  Network.run net;
  Alcotest.(check (float 1e-9)) "charges folded in" 50.0 !finished;
  Alcotest.(check (float 1e-9)) "accounted" 50.0 (Network.compute_times net).(0)

let test_compute_rejects_non_finite () =
  let net = Network.create ~rows:1 ~cols:1 () in
  let raised = ref 0 in
  Network.spawn net 0 (fun () ->
      List.iter
        (fun dt ->
          match Network.compute net 0 dt with
          | () -> ()
          | exception Invalid_argument _ -> incr raised)
        [ Float.nan; Float.infinity; -1.0 ]);
  Network.run net;
  Alcotest.(check int) "every bad time rejected" 3 !raised;
  Alcotest.(check (float 0.0)) "clock untouched" 0.0 (Network.now net);
  Alcotest.(check (float 0.0)) "nothing accounted" 0.0
    (Network.compute_times net).(0)

let test_charge_rejects_non_finite () =
  let net = Network.create ~rows:1 ~cols:1 () in
  List.iter
    (fun dt ->
      match Network.charge net 0 dt with
      | () -> Alcotest.failf "charge %g accepted" dt
      | exception Invalid_argument _ -> ())
    [ Float.nan; Float.infinity; -1.0 ];
  Alcotest.(check (float 0.0)) "nothing accounted" 0.0
    (Network.compute_times net).(0)

let test_fiber_recv_blocks () =
  let net = Network.create ~rows:1 ~cols:2 () in
  let got = ref (-1) in
  Network.spawn net 1 (fun () ->
      let msg = Network.recv net 1 () in
      (match msg.Network.m_payload with Ping i -> got := i | _ -> ());
      ());
  Network.spawn net 0 (fun () ->
      Network.compute net 0 500.0;
      Network.send net ~src:0 ~dst:1 ~size:8 (Ping 77));
  Network.run net;
  Alcotest.(check int) "received" 77 !got

let test_fiber_recv_filter () =
  let net = Network.create ~rows:1 ~cols:2 () in
  let order = ref [] in
  Network.spawn net 1 (fun () ->
      let m1 = Network.recv net 1 ~tag:2 () in
      (match m1.Network.m_payload with Ping i -> order := i :: !order | _ -> ());
      let m2 = Network.recv net 1 () in
      match m2.Network.m_payload with Ping i -> order := i :: !order | _ -> ());
  Network.spawn net 0 (fun () ->
      Network.send net ~tag:1 ~src:0 ~dst:1 ~size:8 (Ping 1);
      Network.send net ~tag:2 ~src:0 ~dst:1 ~size:8 (Ping 2));
  Network.run net;
  Alcotest.(check (list int)) "filtered then oldest" [ 2; 1 ] (List.rev !order)

let test_deadlock_detection () =
  let net = Network.create ~rows:1 ~cols:1 () in
  Network.spawn net 0 (fun () -> ignore (Network.recv net 0 ()));
  Alcotest.check_raises "deadlock"
    (Failure "Network.run: deadlock — 1 fiber(s) still blocked at t = 0.0 us")
    (fun () -> Network.run net)

let test_determinism () =
  (* Two identical runs produce identical statistics and end times. *)
  let run () =
    let net = Network.create ~seed:123 ~rows:4 ~cols:4 () in
    for p = 0 to 15 do
      Network.spawn net p (fun () ->
          for i = 1 to 5 do
            Network.send net ~src:p ~dst:((p + i) mod 16) ~size:(64 * i) (Ping i);
            Network.compute net p 10.0
          done)
    done;
    Network.run net;
    ( Network.now net,
      Link_stats.congestion_bytes (Network.stats net),
      Link_stats.total_bytes (Network.stats net),
      Network.startups net )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical runs" true (a = b)

(* A large mailbox burst must stay linear: the inbox is a queue with O(1)
   append (the old [list @ [msg]] representation was quadratic — 50k
   messages took minutes). FIFO order is asserted on every message; the
   generous wall-clock bound only guards against a quadratic regression. *)
let test_mailbox_burst_linear () =
  let n = 50_000 in
  let net = Network.create ~rows:1 ~cols:1 () in
  let t0 = Sys.time () in
  for i = 0 to n - 1 do
    Network.mailbox_deliver net
      { Network.m_src = 0; m_dst = 0; m_size = 8; m_tag = -1; m_id = i;
        m_txn = -1; m_payload = Ping i }
  done;
  let ok = ref 0 in
  Network.spawn net 0 (fun () ->
      for i = 0 to n - 1 do
        match (Network.recv net 0 ()).Network.m_payload with
        | Ping j when j = i -> incr ok
        | _ -> ()
      done);
  Network.run net;
  Alcotest.(check int) "all messages in FIFO order" n !ok;
  Alcotest.(check bool) "burst stays linear (< 5 s cpu)" true
    (Sys.time () -. t0 < 5.0)

(* Blocked receivers register in an O(1) FIFO (the old [waiters @ [w]]
   was quadratic): 10 000 fibers block on one mailbox before any message
   arrives, and each arrival wakes the oldest of them. *)
let test_mailbox_waiters_fifo () =
  let n = 10_000 in
  let net = Network.create ~rows:1 ~cols:1 () in
  let got = Array.make n (-1) in
  let t0 = Sys.time () in
  for i = 0 to n - 1 do
    Network.spawn net 0 (fun () ->
        match (Network.recv net 0 ()).Network.m_payload with
        | Ping j -> got.(i) <- j
        | _ -> ())
  done;
  Sim.schedule (Network.sim net) 1.0 (fun () ->
      for j = 0 to n - 1 do
        Network.mailbox_deliver net
          { Network.m_src = 0; m_dst = 0; m_size = 8; m_tag = -1; m_id = j;
            m_txn = -1; m_payload = Ping j }
      done);
  Network.run net;
  Alcotest.(check bool) "every receiver woken in FIFO order" true
    (Array.for_all2 ( = ) got (Array.init n Fun.id));
  Alcotest.(check bool) "waiters stay linear (< 5 s cpu)" true
    (Sys.time () -. t0 < 5.0)

(* Closure-free scheduling: Sim.schedule_call carries (f, x) instead of a
   fresh closure, and must interleave with ordinary closures in exact
   (time, insertion) order. *)
let test_sim_schedule_call () =
  let s = Sim.create () in
  let log = ref [] in
  let push x = log := x :: !log in
  Sim.schedule_call s 2.0 push 2;
  Sim.schedule s 1.0 (fun () -> push 1);
  Sim.schedule_call s 1.0 push 10;
  Sim.schedule s 1.0 (fun () ->
      (* now-relative variant from inside an event *)
      Sim.schedule_now s (fun () -> push 11));
  Sim.run s;
  Alcotest.(check (list int)) "call/closure interleaving" [ 1; 10; 11; 2 ]
    (List.rev !log);
  Alcotest.(check int) "executed" 5 (Sim.events_executed s);
  Alcotest.check_raises "past call"
    (Invalid_argument "Sim.schedule: 0.500 is in the past (now = 2.000)")
    (fun () -> Sim.schedule_call s 0.5 push 99)

(* Selective receive by tag: per-tag FIFO, O(1) amortized, coexisting with
   untagged traffic and the predicate filter on the same mailbox. *)
let test_recv_by_tag () =
  let net = Network.create ~rows:1 ~cols:2 () in
  let got = ref [] in
  Network.spawn net 1 (fun () ->
      (* Tag 7 first although tag 3's messages arrived earlier. *)
      let a = Network.recv net 1 ~tag:7 () in
      let b = Network.recv net 1 ~tag:3 () in
      let c = Network.recv net 1 ~tag:3 () in
      (* Untagged pops arrival order among the remaining messages. *)
      let d = Network.recv net 1 () in
      List.iter
        (fun m ->
          match m.Network.m_payload with
          | Ping i -> got := i :: !got
          | _ -> ())
        [ a; b; c; d ]);
  Network.spawn net 0 (fun () ->
      Network.send net ~src:0 ~dst:1 ~size:8 ~tag:3 (Ping 30);
      Network.send net ~src:0 ~dst:1 ~size:8 ~tag:3 (Ping 31);
      Network.send net ~src:0 ~dst:1 ~size:8 ~tag:7 (Ping 70);
      Network.send net ~src:0 ~dst:1 ~size:8 (Ping 99));
  Network.run net;
  Alcotest.(check (list int)) "tag routing" [ 70; 30; 31; 99 ]
    (List.rev !got)

let test_recv_tag_blocks_until_match () =
  let net = Network.create ~rows:1 ~cols:2 () in
  let order = ref [] in
  Network.spawn net 1 (fun () ->
      let m = Network.recv net 1 ~tag:5 () in
      (match m.Network.m_payload with
      | Ping i -> order := ("tagged", i) :: !order
      | _ -> ());
      let m2 = Network.recv net 1 () in
      match m2.Network.m_payload with
      | Ping i -> order := ("untagged", i) :: !order
      | _ -> ());
  Network.spawn net 0 (fun () ->
      (* The untagged message arrives first; the tag-5 waiter must skip it
         and wake only on the tagged one. *)
      Network.send net ~src:0 ~dst:1 ~size:8 (Ping 1);
      Network.send net ~src:0 ~dst:1 ~size:8 ~tag:5 (Ping 2));
  Network.run net;
  Alcotest.(check (list (pair string int)))
    "waiter wakes on its tag"
    [ ("tagged", 2); ("untagged", 1) ]
    (List.rev !order)

(* A tagged burst exercises the per-tag queues' lazy deletion: messages
   consumed by tag must also vanish from the arrival queue (and vice
   versa) without quadratic rescans. *)
let test_recv_tag_burst_linear () =
  let n = 30_000 in
  let net = Network.create ~rows:1 ~cols:1 () in
  let t0 = Sys.time () in
  for i = 0 to n - 1 do
    Network.mailbox_deliver net
      { Network.m_src = 0; m_dst = 0; m_size = 8; m_tag = i mod 4; m_id = i;
        m_txn = -1; m_payload = Ping i }
  done;
  let ok = ref 0 in
  Network.spawn net 0 (fun () ->
      (* Drain tag 2 completely, then everything else untagged. *)
      for k = 0 to (n / 4) - 1 do
        match (Network.recv net 0 ~tag:2 ()).Network.m_payload with
        | Ping j when j = (4 * k) + 2 -> incr ok
        | _ -> ()
      done;
      for _ = 1 to n - (n / 4) do
        match (Network.recv net 0 ()).Network.m_payload with
        | Ping j when j mod 4 <> 2 -> incr ok
        | _ -> ()
      done);
  Network.run net;
  Alcotest.(check int) "tagged + untagged drain" n !ok;
  Alcotest.(check bool) "burst stays linear (< 5 s cpu)" true
    (Sys.time () -. t0 < 5.0)

let test_snapshot_diff () =
  let net = Network.create ~rows:1 ~cols:2 () in
  Network.send net ~src:0 ~dst:1 ~size:50 (Ping 1);
  Network.run net;
  let snap = Link_stats.snapshot (Network.stats net) in
  Network.send net ~src:0 ~dst:1 ~size:70 (Ping 2);
  Network.run net;
  let since = Link_stats.diff ~base:snap (Link_stats.snapshot (Network.stats net)) in
  Alcotest.(check int) "since snapshot bytes" 70
    (Link_stats.snap_congestion_bytes since);
  Alcotest.(check int) "since snapshot msgs" 1
    (Link_stats.snap_congestion_msgs since);
  Alcotest.(check int) "full history" 120
    (Link_stats.congestion_bytes (Network.stats net))

let suite =
  [
    Alcotest.test_case "event order" `Quick test_sim_event_order;
    Alcotest.test_case "fifo same time" `Quick test_sim_fifo_same_time;
    Alcotest.test_case "nested schedule" `Quick test_sim_nested_schedule;
    Alcotest.test_case "rejects past" `Quick test_sim_rejects_past;
    Alcotest.test_case "rejects non-finite times" `Quick
      test_sim_rejects_non_finite;
    Alcotest.test_case "sim allocation gate" `Quick test_sim_alloc_gate;
    Alcotest.test_case "delivery and congestion" `Quick test_delivery_and_congestion;
    Alcotest.test_case "local send free" `Quick test_local_send_free;
    Alcotest.test_case "uncontended timing" `Quick test_timing_uncontended;
    Alcotest.test_case "link contention" `Quick test_link_contention_serializes;
    Alcotest.test_case "fiber compute" `Quick test_fiber_compute_and_time;
    Alcotest.test_case "fiber charge/flush" `Quick test_fiber_charge_flush;
    Alcotest.test_case "compute rejects non-finite" `Quick
      test_compute_rejects_non_finite;
    Alcotest.test_case "charge rejects non-finite" `Quick
      test_charge_rejects_non_finite;
    Alcotest.test_case "fiber recv blocks" `Quick test_fiber_recv_blocks;
    Alcotest.test_case "fiber recv filter" `Quick test_fiber_recv_filter;
    Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "mailbox burst linear" `Quick test_mailbox_burst_linear;
    Alcotest.test_case "schedule_call" `Quick test_sim_schedule_call;
    Alcotest.test_case "recv by tag" `Quick test_recv_by_tag;
    Alcotest.test_case "recv tag waiter" `Quick test_recv_tag_blocks_until_match;
    Alcotest.test_case "recv tag burst linear" `Quick test_recv_tag_burst_linear;
    Alcotest.test_case "snapshot diff" `Quick test_snapshot_diff;
    Alcotest.test_case "network allocation gate" `Quick test_network_alloc_gate;
    Alcotest.test_case "mailbox waiters fifo" `Quick test_mailbox_waiters_fifo;
  ]
