module Prng = Diva_util.Prng
module Mesh = Diva_mesh.Mesh
module Trace = Diva_obs.Trace
module Metrics = Diva_obs.Metrics
module Faults = Diva_faults.Faults
module Prof = Diva_obs.Prof
module Flight = Diva_obs.Flight

type payload = ..
type payload += Empty

type msg = {
  m_src : Mesh.node;
  m_dst : Mesh.node;
  m_size : int;
  m_tag : int;
      (* the message's key word: the selective-receive tag of a message
         delivered to a mailbox (-1 = untagged), the packed header of one
         a protocol handler consumes *)
  m_id : int;  (* causal message id; -1 for acks *)
  m_txn : int;  (* DSM transaction the message serves; -1 for none *)
  m_payload : payload;
}

(* A blocked receive, of any message or of one tag. Waiters are matched
   in registration (FIFO) order: a mailbox chains them through [w_next]
   from its head to its tail, and [no_waiter] ends the chain. *)
type wkind = W_any | W_tag of int

type waiter = {
  w_kind : wkind;
  w_resume : msg -> unit;
  mutable w_next : waiter;
}

let rec no_waiter = { w_kind = W_any; w_resume = ignore; w_next = no_waiter }

(* Mailbox entry shared between the arrival-order queue and the per-tag
   index. Consuming a message from either view marks the slot taken; the
   other view drops taken slots lazily when they reach its front, so a
   selective receive never rewrites queue contents (the old implementation
   rotated the whole inbox through a scratch queue per filtered receive —
   O(n) each; tagged receive is now O(1) amortized). *)
type slot = { sl_msg : msg; mutable sl_taken : bool }

type mailbox = {
  inbox : slot Queue.t;  (* every arrival, oldest first *)
  by_tag : (int, slot Queue.t) Hashtbl.t;  (* tagged arrivals only *)
  mutable w_head : waiter;  (* oldest blocked receive, or [no_waiter] *)
  mutable w_tail : waiter;  (* newest blocked receive, or [no_waiter] *)
}

(* Reliable-delivery envelope, used only while a fault schedule is
   installed. Payloads are wrapped in [Env] and acknowledged with [Ack];
   unacknowledged envelopes retransmit on an exponential-backoff timer.
   At-least-once transmission plus the receiver-side seen-set gives
   exactly-once handling. Both constructors are private to this module. *)
type payload += Env of { seq : int; inner : payload } | Ack of { seq : int }

type pend = {
  p_msg : msg;  (* the enveloped message; retransmissions resend it, id and all *)
  p_level : int;  (* access-tree level tag of the original send *)
  mutable p_attempt : int;
  mutable p_last_tx : float;  (* start of the most recent transmission *)
}

type reliable = {
  rl_faults : Faults.t;
  mutable rl_next_seq : int;
  rl_pending : (int, pend) Hashtbl.t;  (* unacked envelopes by seq *)
  rl_seen : (int, unit) Hashtbl.t;  (* seqs already handed to a handler *)
}

(* All-float scratch record for the route walk. OCaml stores records whose
   fields are all floats flat, so these are unboxed mutable slots: the old
   per-send [float ref] accumulators boxed a fresh float on every hop.
   The caller hands the walk its injection time in [wk_inject] and reads
   the attempt's outcome from [wk_outcome]: a float argument or result
   would be boxed on every message, as the walk is not inlined.
   Safe to share per network: the walk never re-enters [send]. *)
type walk_scratch = {
  mutable wk_inject : float;  (* in: when the attempt enters the network *)
  mutable wk_arrival : float;
  mutable wk_finish : float;  (* when the tail leaves the last link crossed *)
  mutable wk_outcome : float;  (* out: the attempt's delivery or loss time *)
}

type t = {
  sim : Sim.t;
  mesh : Mesh.t;
  machine : Machine.t;
  root_rng : Prng.t;
  route_buf : int array;  (* the route walk's scratch route *)
  walk : walk_scratch;
  link_free : float array;
  stats : Link_stats.t;
  cpu_free : float array;
  pending_compute : float array;
  node_compute : float array;
  handlers : (t -> msg -> unit) array;
  mailboxes : mailbox array;
  mutable startup_count : int;
  mutable fibers : int;
  mutable trace : Trace.sink;
  mutable prof : Prof.t option;
  mutable rel : reliable option;  (* Some iff an active fault schedule is installed *)
  mutable run_dispatch : msg -> unit;  (* the delivery event, [run_dispatch t] *)
  (* Causal context. [cur_msg]/[cur_txn] identify the message (and the DSM
     transaction it serves) whose handler is currently executing; sends
     issued inside the handler inherit them. Both are [-1] at top level
     (fiber bodies, timers). The counters advance unconditionally — traced
     and untraced runs allocate the same ids — and nothing in the
     simulation reads them, so causal tracking cannot perturb a run. *)
  mutable next_msg_id : int;
  mutable next_txn_id : int;
  mutable cur_msg : int;
  mutable cur_txn : int;
  mutable next_level : int;  (* one-shot tree-level tag for the next send *)
}

let waiter_matches w msg =
  match w.w_kind with
  | W_any -> true
  | W_tag k -> msg.m_tag = k

let default_handler t msg =
  let mb = t.mailboxes.(msg.m_dst) in
  let rec try_waiters prev w =
    if w == no_waiter then begin
      let sl = { sl_msg = msg; sl_taken = false } in
      Queue.add sl mb.inbox;
      if msg.m_tag >= 0 then begin
        let q =
          match Hashtbl.find_opt mb.by_tag msg.m_tag with
          | Some q -> q
          | None ->
              let q = Queue.create () in
              Hashtbl.add mb.by_tag msg.m_tag q;
              q
        in
        Queue.add sl q
      end
    end
    else if waiter_matches w msg then begin
      (* Unlink [w] before resuming: the fiber may block again at once. *)
      if prev == no_waiter then mb.w_head <- w.w_next else prev.w_next <- w.w_next;
      if mb.w_tail == w then mb.w_tail <- prev;
      w.w_resume msg
    end
    else try_waiters w w.w_next
  in
  try_waiters no_waiter mb.w_head

let mesh t = t.mesh
let sim t = t.sim
let machine t = t.machine
let rng t = t.root_rng
let now t = Sim.now t.sim
let num_nodes t = Mesh.num_nodes t.mesh
let set_handler t node h = t.handlers.(node) <- h
let stats t = t.stats
let startups t = t.startup_count
let max_compute_time t = Array.fold_left Float.max 0.0 t.node_compute
let compute_times t = Array.copy t.node_compute
let trace t = t.trace
let set_trace t sink = t.trace <- sink

(* Causal context (see the [t] field comments). *)
let fresh_txn t =
  let id = t.next_txn_id in
  t.next_txn_id <- id + 1;
  id

let set_txn t txn = t.cur_txn <- txn
let cur_txn t = t.cur_txn
let cur_msg t = t.cur_msg
let tag_level t level = t.next_level <- level

let fresh_msg_id t =
  let id = t.next_msg_id in
  t.next_msg_id <- id + 1;
  id

let set_faults t f =
  (* Installing the empty schedule is a no-op: every query degenerates to
     the identity, so the run stays bit-identical to a fault-free one, and
     sends stay unenveloped. *)
  if Faults.active f then begin
    if t.rel <> None then invalid_arg "Network.set_faults: faults already installed";
    t.rel <-
      Some
        {
          rl_faults = f;
          rl_next_seq = 0;
          rl_pending = Hashtbl.create 256;
          rl_seen = Hashtbl.create 1024;
        }
  end

let faults t = Option.map (fun r -> r.rl_faults) t.rel

(* The one sampling loop on the simulated clock: [f ts] runs at every
   multiple [ts] of [interval] that the clock passes, in order, before the
   events of the instant that passes it. It runs from the observe-only
   Sim advance hook, so a sampler reads state and cannot perturb the run. *)
let every t interval f =
  let next = ref interval in
  Sim.add_advance_hook t.sim (fun _old_clock new_clock ->
      while !next <= new_clock do
        f !next;
        next := !next +. interval
      done)

(* Standard observability gauges plus a periodic sampler. *)
let attach_metrics t ?(interval = 1000.0) m =
  if not (Float.is_finite interval) || interval <= 0.0 then
    invalid_arg "Network.attach_metrics: interval must be positive";
  let busy free = float_of_int (Array.fold_left
      (fun acc f -> if f > Sim.now t.sim then acc + 1 else acc) 0 free)
  in
  Metrics.gauge m "congestion_msgs"
    (fun () -> float_of_int (Link_stats.congestion_msgs t.stats));
  Metrics.gauge m "congestion_bytes"
    (fun () -> float_of_int (Link_stats.congestion_bytes t.stats));
  Metrics.gauge m "total_msgs"
    (fun () -> float_of_int (Link_stats.total_msgs t.stats));
  Metrics.gauge m "total_bytes"
    (fun () -> float_of_int (Link_stats.total_bytes t.stats));
  Metrics.gauge m "links_busy" (fun () -> busy t.link_free);
  Metrics.gauge m "cpus_busy" (fun () -> busy t.cpu_free);
  Metrics.gauge m "startups" (fun () -> float_of_int t.startup_count);
  Metrics.gauge m "total_compute"
    (fun () -> Array.fold_left ( +. ) 0.0 t.node_compute);
  Metrics.gauge m "live_fibers" (fun () -> float_of_int t.fibers);
  (match t.rel with
  | None -> ()
  | Some rel ->
      let f = rel.rl_faults in
      Metrics.gauge m "faults_lost"
        (fun () -> float_of_int (Faults.lost_total f));
      Metrics.gauge m "faults_retransmits"
        (fun () -> float_of_int (Faults.retransmits f));
      Metrics.gauge m "faults_pending"
        (fun () -> float_of_int (Hashtbl.length rel.rl_pending)));
  every t interval (fun ts -> Metrics.sample m ~ts)

(* Host-side self-profiling: the event loop stores subsystem tags
   ([Sim.set_prof]) and the sampling loop drives the window series.
   Attribution refinements below (protocol layer, strategy handlers) key
   off [t.prof]. *)
let attach_prof t p =
  t.prof <- Some p;
  Sim.set_prof t.sim p;
  Prof.arm p;
  every t Prof.window_us (fun sim_us ->
      Prof.sample p ~sim_us ~events:(Sim.events_executed t.sim))

let prof t = t.prof

(* Flight-recorder health snapshots every 5000 simulated microseconds.
   Event-ring recording is wired where the sink is built (the recorder
   must wrap the sink before anyone keeps a reference); this attaches only
   the periodic snapshots. *)
let attach_flight t fl =
  every t 5000.0 (fun sim_us ->
      Flight.snapshot fl
        {
          Flight.sn_wall = Unix.gettimeofday ();
          sn_sim_us = sim_us;
          sn_events = Sim.events_executed t.sim;
          sn_pending = Sim.pending t.sim;
          sn_fibers = t.fibers;
          sn_inflight =
            (match t.rel with
            | Some rel -> Hashtbl.length rel.rl_pending
            | None -> 0);
          sn_reissues =
            (match t.rel with
            | Some rel -> Faults.dsm_reissues rel.rl_faults
            | None -> 0);
        })

(* Reserve the node's CPU for [dt] starting no earlier than [from]; returns
   the completion time. Pending charged computation is folded in first.
   Inlined: a call boxes [dt] and the result, 4 words on each of a
   message's two reservations. *)
let[@inline] reserve_cpu t node ~from dt =
  let pending = t.pending_compute.(node) in
  t.pending_compute.(node) <- 0.0;
  (* Times are never NaN or -0., so a plain comparison does what [Float.max]
     does without its sign-bit tests. *)
  let free = t.cpu_free.(node) in
  let start = if from > free then from else free in
  let start =
    match t.rel with
    | Some r -> Faults.defer r.rl_faults ~node start
    | None -> start
  in
  let fin = start +. pending +. dt in
  t.cpu_free.(node) <- fin;
  fin

(* A remote send's startup: counted, and the sender's CPU reserved for
   the send overhead from [from]. Returns the injection time. *)
let[@inline] startup t src ~from =
  t.startup_count <- t.startup_count + 1;
  reserve_cpu t src ~from t.machine.Machine.send_overhead

(* The hottest schedule site in the simulator is "run this message's
   handler at time T with its causal context": the message carries its id
   and transaction, so the delivery event is the network's one
   [run_dispatch] closure applied to the message itself, and a message in
   flight costs its record and its payload, nothing else. Schedules the
   handler and returns the time it runs, so the caller can record it in
   the delivery event. Inlined, outside the recursive group below: a call
   boxes [at] and the result, 4 words per delivered message. *)
let[@inline] deliver t msg at =
  (* Receive overhead on the destination CPU, then the handler runs. *)
  let handle_at = reserve_cpu t msg.m_dst ~from:at t.machine.Machine.recv_overhead in
  Sim.schedule_call t.sim handle_at t.run_dispatch msg;
  handle_at

(* Dispatch trampoline: set the causal context, run the envelope layer /
   handler, reset. *)
let rec run_dispatch t msg =
  t.cur_msg <- msg.m_id;
  t.cur_txn <- msg.m_txn;
  (match t.prof with
  | Some p -> Prof.set_sub p Prof.Protocol
  | None -> ());
  dispatch t msg;
  t.cur_msg <- -1;
  t.cur_txn <- -1

(* Envelope layer between physical delivery and the node handler. *)
and dispatch t msg =
  match t.rel with
  | None -> t.handlers.(msg.m_dst) t msg
  | Some rel -> (
      match msg.m_payload with
      | Ack { seq } ->
          if Hashtbl.mem rel.rl_pending seq then begin
            Hashtbl.remove rel.rl_pending seq;
            Faults.count_ack rel.rl_faults
          end
      | Env { seq; inner } ->
          (* Always (re-)acknowledge — the previous ack may have been lost —
             but hand only the first copy to the handler. Acks have no
             [Msg_send] of their own, so they carry id [-1] (the sentinel
             analyzers filter on) and inherit the envelope's transaction.
             Acks are modelled as hardware-level control messages: they
             occupy links like any flit but cost no CPU overhead on either
             side and do not count as startups. Charging the full 500 us
             send/recv overhead per ack doubles the CPU load of every hot
             protocol node, which inflates latencies past the retry timeout
             and feeds a spurious retransmission spiral. *)
          t.walk.wk_inject <- Faults.defer rel.rl_faults ~node:msg.m_dst (now t);
          transmit t ~level:(-1)
            { m_src = msg.m_dst; m_dst = msg.m_src;
              m_size = Faults.ack_size; m_tag = -1; m_id = -1;
              m_txn = t.cur_txn; m_payload = Ack { seq } };
          if not (Hashtbl.mem rel.rl_seen seq) then begin
            Hashtbl.add rel.rl_seen seq ();
            t.handlers.(msg.m_dst) t { msg with m_payload = inner }
          end
      | _ -> t.handlers.(msg.m_dst) t msg)

(* A lost transmission: counted and traced, never delivered. Only fault
   schedules lose messages. *)
and lose t f msg reason ts =
  Faults.count_lost f reason;
  if Trace.enabled t.trace then
    Trace.emit t.trace
      (Trace.Msg_lost
         { ts; msg = msg.m_id; txn = msg.m_txn; src = msg.m_src;
           dst = msg.m_dst; size = msg.m_size; reason });
  t.walk.wk_outcome <- ts

(* One physical transmission attempt, injected at [t.walk.wk_inject]: the
   eager wormhole approximation. The header advances hop by hop, each link
   is occupied for the full transfer time, and the tail leaves the last
   link [occupancy] after the header entered it. The route is walked out
   of a preallocated buffer with unboxed float accumulators, so the
   fault-free walk allocates nothing but the delivery.

   Under an installed fault schedule the attempt first draws its drop,
   then meets per-link outages and slowdown factors hop by hop, then the
   destination's crash windows: the drop draws consume the schedule's
   seeded stream, so this order is part of a run's identity. Without one
   the walk makes no fault query.

   Leaves the attempt's outcome time, delivery or loss, in
   [t.walk.wk_outcome], so retry timers can be armed from when the
   attempt actually resolved rather than when it was injected (a message
   queued behind congested links must not be retransmitted while still
   in flight: that feedback loop melts the network). *)
and transmit t ~level msg =
  let rel = t.rel in
  let wk = t.walk in
  let src = msg.m_src and dst = msg.m_dst and size = msg.m_size in
  let id = msg.m_id and txn = msg.m_txn in
  let inject_at = wk.wk_inject in
  match rel with
  | Some r when Faults.draw_drop r.rl_faults ~now:inject_at ->
      lose t r.rl_faults msg Trace.Loss_random inject_at
  | _ ->
      let occupancy = Machine.transfer_time t.machine size in
      let hops = Mesh.route_into t.mesh ~src ~dst t.route_buf in
      wk.wk_arrival <- inject_at;
      (* [h] ends past [hops] iff a link outage lost the message. *)
      let h = ref 0 in
      while !h < hops do
        let link = t.route_buf.(!h) in
        let free = t.link_free.(link) in
        let start = if wk.wk_arrival > free then wk.wk_arrival else free in
        match rel with
        | Some r when Faults.link_down r.rl_faults ~link ~now:start ->
            lose t r.rl_faults msg Trace.Loss_link_down start;
            h := hops + 1
        | _ ->
            let occupancy =
              match rel with
              | None -> occupancy
              | Some r -> occupancy *. Faults.link_factor r.rl_faults ~link ~now:start
            in
            t.link_free.(link) <- start +. occupancy;
            Link_stats.record t.stats ~link ~bytes:size;
            if Trace.enabled t.trace then
              Trace.emit t.trace
                (Trace.Link_xfer
                   { start; finish = start +. occupancy; link; msg = id; txn;
                     level; src; dst; size });
            wk.wk_finish <- start +. occupancy;
            wk.wk_arrival <- start +. t.machine.Machine.hop_latency;
            incr h
      done;
      if !h = hops then begin
        let delivered_at = wk.wk_finish in
        match rel with
        | Some r when Faults.crashed r.rl_faults ~node:dst ~now:delivered_at ->
            lose t r.rl_faults msg Trace.Loss_crashed delivered_at
        | _ ->
            let handled =
              match msg.m_payload with
              | Ack _ ->
                  (* Hardware-level control message: no receive overhead,
                     the envelope layer consumes it at arrival time. *)
                  Sim.schedule_call t.sim delivered_at t.run_dispatch msg;
                  delivered_at
              | _ -> deliver t msg delivered_at
            in
            if Trace.enabled t.trace then
              Trace.emit t.trace
                (Trace.Msg_deliver
                   { ts = delivered_at; id; txn; handled; src; dst; size });
            wk.wk_outcome <- delivered_at
      end

(* Retransmission timer, armed from the attempt's outcome time [from]
   (delivery or loss) with exponential backoff capped at rto * 2^6. The
   captured attempt number makes stale timers (superseded by an earlier
   retransmit, e.g. a watchdog nudge) no-ops. *)
and arm_timeout t rel seq p ~from =
  let attempt = p.p_attempt in
  let backoff = Faults.rto rel.rl_faults *. Float.of_int (1 lsl min attempt 6) in
  Sim.schedule t.sim (from +. backoff) (fun () ->
      if Hashtbl.mem rel.rl_pending seq && p.p_attempt = attempt then
        retransmit t rel seq p)

and retransmit t rel seq p =
  p.p_attempt <- p.p_attempt + 1;
  p.p_last_tx <- now t;
  Faults.count_retransmit rel.rl_faults;
  let m = p.p_msg in
  if Trace.enabled t.trace then
    Trace.emit t.trace
      (Trace.Msg_retry
         { ts = now t; msg = m.m_id; txn = m.m_txn; src = m.m_src;
           dst = m.m_dst; size = m.m_size; attempt = p.p_attempt });
  t.walk.wk_inject <- startup t m.m_src ~from:(now t);
  transmit t ~level:p.p_level m;
  arm_timeout t rel seq p ~from:t.walk.wk_outcome

(* Defined after [run_dispatch]: the network keeps the one closure every
   delivery event applies to its message. *)
let create_nd ?(seed = 42) ~dims () =
  let mesh = Mesh.create_nd ~dims in
  let n = Mesh.num_nodes mesh in
  let nl = Mesh.num_links mesh in
  let t = {
    sim = Sim.create ();
    mesh;
    machine = Machine.gcel;
    root_rng = Prng.create ~seed;
    route_buf = Array.make (max 1 (Mesh.max_route_length mesh)) 0;
    walk =
      { wk_inject = 0.0; wk_arrival = 0.0; wk_finish = 0.0; wk_outcome = 0.0 };
    link_free = Array.make nl 0.0;
    stats = Link_stats.create ~num_links:nl;
    cpu_free = Array.make n 0.0;
    pending_compute = Array.make n 0.0;
    node_compute = Array.make n 0.0;
    handlers = Array.make n default_handler;
    mailboxes =
      Array.init n (fun _ ->
          { inbox = Queue.create (); by_tag = Hashtbl.create 4;
            w_head = no_waiter; w_tail = no_waiter });
    startup_count = 0;
    fibers = 0;
    trace = Trace.null;
    prof = None;
    rel = None;
    run_dispatch = ignore;
    next_msg_id = 0;
    next_txn_id = 0;
    cur_msg = -1;
    cur_txn = -1;
    next_level = -1;
  } in
  t.run_dispatch <- run_dispatch t;
  t

let create ?seed ~rows ~cols () = create_nd ?seed ~dims:[| rows; cols |] ()

let send t ?(tag = -1) ~src ~dst ~size payload =
  let id = fresh_msg_id t in
  let txn = t.cur_txn and parent = t.cur_msg and level = t.next_level in
  let msg =
    { m_src = src; m_dst = dst; m_size = size; m_tag = tag; m_id = id;
      m_txn = txn; m_payload = payload }
  in
  t.next_level <- -1;
  let t0 = now t in
  let local = src = dst in
  (* A node-local protocol hop costs no startup and no network traffic. *)
  let inject_at =
    if local then reserve_cpu t src ~from:t0 t.machine.Machine.local_overhead
    else startup t src ~from:t0
  in
  (* Emitted before the message's link crossings (and a same-instant
     delivery or loss): single-pass analyzers must see the message record
     first. *)
  if Trace.enabled t.trace then
    Trace.emit t.trace
      (Trace.Msg_send
         { ts = t0; id; parent; txn; inject = inject_at; level; src; dst;
           size; local });
  if local then
    (* [run_dispatch] rather than a direct handler call: application
       payloads never match the (private) envelope constructors, so the
       envelope layer is a no-op for local messages. *)
    Sim.schedule_call t.sim inject_at t.run_dispatch msg
  else begin
    t.walk.wk_inject <- inject_at;
    match t.rel with
    | None -> transmit t ~level msg
    | Some rel ->
        let seq = rel.rl_next_seq in
        rel.rl_next_seq <- seq + 1;
        Faults.count_enveloped rel.rl_faults;
        let p = { p_msg = { msg with m_payload = Env { seq; inner = payload } };
                  p_level = level; p_attempt = 0; p_last_tx = t0 } in
        Hashtbl.add rel.rl_pending seq p;
        transmit t ~level p.p_msg;
        arm_timeout t rel seq p ~from:t.walk.wk_outcome
  end

(* Forced early retransmission of the envelopes still pending from [src],
   in seq order for determinism. The DSM watchdog calls this when a
   transaction has been blocked longer than the schedule's patience —
   cheaper and safer than re-issuing the transaction itself, which could
   double-commit a write. Only envelopes idle for at least one rto are
   touched: retransmitting a message that is merely queued behind
   congested links would amplify the very congestion that delayed it. *)
let nudge t ~src =
  match t.rel with
  | None -> ()
  | Some rel ->
      let stale_before = now t -. Faults.rto rel.rl_faults in
      Hashtbl.fold
        (fun seq p acc ->
          if p.p_msg.m_src = src && p.p_last_tx <= stale_before then (seq, p) :: acc
          else acc)
        rel.rl_pending []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
      |> List.iter (fun (seq, p) -> retransmit t rel seq p)

(* ------------------------------------------------------------------ *)
(* Fibers                                                              *)
(* ------------------------------------------------------------------ *)

type _ Effect.t += Suspend : (('a -> unit) -> unit) -> 'a Effect.t

let suspend register = Effect.perform (Suspend register)

(* Two handlers, one chosen per fiber: one handler that asked [t.prof] at
   every resume and suspension measured 181 words per 4-ary read miss in
   the DSM allocation gate against 178 (and 10.9 live words per in-flight
   message against 9.7): the closures built at each suspension then
   capture the profiler hooks as well as the continuation. *)
let spawn t node f =
  t.fibers <- t.fibers + 1;
  let open Effect.Deep in
  let body =
    match t.prof with
    | None ->
        fun () ->
          match_with f ()
            {
              retc = (fun () -> t.fibers <- t.fibers - 1);
              exnc = raise;
              effc =
                (fun (type b) (eff : b Effect.t) ->
                  match eff with
                  | Suspend register ->
                      Some
                        (fun (k : (b, _) continuation) ->
                          register (fun v -> continue k v))
                  | _ -> None);
            }
    | Some p ->
        (* The fiber's own code books to [App]: from where it resumes to
           where it suspends or ends. [caller] is the subsystem of the
           code that resumed it, booked again from the suspension on —
           including the [register] call, which starts the operation the
           fiber blocks on. *)
        let caller = ref Prof.Host in
        let resume () =
          caller := Prof.cur_sub p;
          Prof.set_sub p Prof.App
        in
        let back () = Prof.set_sub p !caller in
        fun () ->
          resume ();
          match_with f ()
            {
              retc =
                (fun () ->
                  back ();
                  t.fibers <- t.fibers - 1);
              exnc =
                (fun e ->
                  back ();
                  raise e);
              effc =
                (fun (type b) (eff : b Effect.t) ->
                  match eff with
                  | Suspend register ->
                      Some
                        (fun (k : (b, _) continuation) ->
                          back ();
                          register (fun v ->
                              resume ();
                              continue k v))
                  | _ -> None);
            }
  in
  ignore node;
  (* Fiber bodies start at top level, outside any message's causal extent. *)
  Sim.schedule_now t.sim (fun () ->
      t.cur_msg <- -1;
      t.cur_txn <- -1;
      body ())

let compute t node dt =
  if not (dt >= 0.0 && dt < Float.infinity) then
    invalid_arg "Network.compute: negative or non-finite time";
  t.node_compute.(node) <- t.node_compute.(node) +. dt;
  let fin = reserve_cpu t node ~from:(now t) dt in
  suspend (fun resume ->
      Sim.schedule t.sim fin (fun () ->
          (* A timer resume is not caused by any message. *)
          t.cur_msg <- -1;
          t.cur_txn <- -1;
          resume ()))

let charge t node dt =
  if not (dt >= 0.0 && dt < Float.infinity) then
    invalid_arg "Network.charge: negative or non-finite time";
  t.node_compute.(node) <- t.node_compute.(node) +. dt;
  t.pending_compute.(node) <- t.pending_compute.(node) +. dt

let flush_charge t node =
  if t.pending_compute.(node) > 0.0 then compute t node 0.0

(* Drop taken slots (consumed through the other view) off the queue front,
   then pop the first live one. Each slot is popped at most twice across
   both views, so the lazy deletion is O(1) amortized. *)
let pop_live q =
  let rec go () =
    match Queue.peek_opt q with
    | None -> None
    | Some sl ->
        ignore (Queue.pop q : slot);
        if sl.sl_taken then go ()
        else begin
          sl.sl_taken <- true;
          Some sl.sl_msg
        end
  in
  go ()

let recv t node ?tag () =
  let mb = t.mailboxes.(node) in
  let taken =
    match tag with
    | Some k -> (
        (* O(1) amortized: oldest message with this tag, straight off the
           tag queue's front. *)
        match Hashtbl.find_opt mb.by_tag k with
        | None -> None
        | Some q -> pop_live q)
    | None -> pop_live mb.inbox
  in
  match taken with
  | Some m -> m
  | None ->
      let kind = match tag with Some k -> W_tag k | None -> W_any in
      suspend (fun resume ->
          let w = { w_kind = kind; w_resume = resume; w_next = no_waiter } in
          if mb.w_tail == no_waiter then mb.w_head <- w else mb.w_tail.w_next <- w;
          mb.w_tail <- w)

let mailbox_deliver t msg = default_handler t msg

let run t =
  Sim.run t.sim;
  if t.fibers > 0 then
    failwith
      (Printf.sprintf
         "Network.run: deadlock — %d fiber(s) still blocked at t = %.1f us"
         t.fibers (now t))
