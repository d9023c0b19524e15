(* Cost attribution and the run summary: the math and the report types
   {!Streaming}'s fold produces.

   The machine's overhead constants arrive as parameters: [Diva_obs] sits
   below the simulator in the dependency order, so it cannot read
   [Diva_simnet.Machine] itself. *)

type overheads = {
  send_overhead : float;
  recv_overhead : float;
  local_overhead : float;
}

type cost = {
  startup_us : float;
  transfer_us : float;
  queue_us : float;
  cpu_us : float;
}

let zero_cost = { startup_us = 0.0; transfer_us = 0.0; queue_us = 0.0; cpu_us = 0.0 }

let add_cost a b =
  {
    startup_us = a.startup_us +. b.startup_us;
    transfer_us = a.transfer_us +. b.transfer_us;
    queue_us = a.queue_us +. b.queue_us;
    cpu_us = a.cpu_us +. b.cpu_us;
  }

let total_cost c = c.startup_us +. c.transfer_us +. c.queue_us +. c.cpu_us

let op_name = function
  | Trace.Read -> "read"
  | Trace.Write -> "write"
  | Trace.Lock -> "lock"
  | Trace.Unlock -> "unlock"
  | Trace.Barrier -> "barrier"
  | Trace.Reduce -> "reduce"

(* One completing-chain message: what the decomposition sweep needs. *)
type chain_link = {
  cl_local : bool;
  cl_inject : float;
  cl_handled : float option;
  cl_xfers : float array;  (* (start, finish) pairs, flattened, arrival order *)
}

(* Labels of clipped segments, in precedence order. *)
let l_startup = 0
let l_transfer = 1
let l_cpu = 2

(* The highest-precedence label with a live segment in [live] (indexed by
   label), or 3 for none. *)
let top_live live =
  if live.(l_startup) > 0 then l_startup
  else if live.(l_transfer) > 0 then l_transfer
  else if live.(l_cpu) > 0 then l_cpu
  else 3

(* The same, from the segments themselves: for a midpoint that is not in
   its interval, which happens only when [a +. b] overflows. *)
let top_at ~lo ~hi ~label n mid =
  let rec live l i =
    i < n && ((label.(i) = l && lo.(i) <= mid && mid < hi.(i)) || live l (i + 1))
  in
  if live l_startup 0 then l_startup
  else if live l_transfer 0 then l_transfer
  else if live l_cpu 0 then l_cpu
  else 3

(* Exact decomposition of one transaction's blocking window [t0, t0+dur]:
   every message on the completing causal chain contributes labeled time
   segments (send/receive overheads -> startup, link occupancy -> transfer,
   local handler cost -> cpu), clipped to the window. A boundary sweep
   measures the union with precedence startup > transfer > cpu, and the
   uncovered remainder is queueing (CPU contention, link contention and
   header propagation). By construction every term is non-negative (up to
   float rounding) and the four sum exactly to [dur].

   The sweep sorts the boundary events once and keeps one live-segment
   counter per label. An elementary interval [a, b) between consecutive
   distinct boundary points is labeled by the segments live at its
   midpoint [(a +. b) /. 2.0], exactly as the segment test
   [x <= mid && mid < y] would: no endpoint lies strictly inside, so a
   midpoint in [a, b) sees the counters after the events at [a], and a
   midpoint that rounded onto [b] (adjacent doubles) sees them after the
   events at [b]. Intervals are summed left to right.

   The clipping makes the result insensitive to events emitted after the
   completion event: any link crossing emitted later (a post-completion
   retransmission) starts at or after [t0 +. dur] and clips to nothing, so
   an analyzer that retires the transaction at its completion event
   computes the same cost as one that kept every record. *)
let decompose_chain ov ~t0 ~dur links =
  let t1 = t0 +. dur in
  let cap =
    List.fold_left
      (fun n l -> n + if l.cl_local then 1 else 2 + (Array.length l.cl_xfers / 2))
      0 links
  in
  let lo = Array.make cap 0.0 and hi = Array.make cap 0.0 in
  let label = Array.make cap 0 in
  let n = ref 0 in
  let add l a b =
    let a = Float.max a t0 and b = Float.min b t1 in
    if b > a then begin
      lo.(!n) <- a;
      hi.(!n) <- b;
      label.(!n) <- l;
      incr n
    end
  in
  List.iter
    (fun l ->
      if l.cl_local then add l_cpu (l.cl_inject -. ov.local_overhead) l.cl_inject
      else begin
        add l_startup (l.cl_inject -. ov.send_overhead) l.cl_inject;
        for k = 0 to (Array.length l.cl_xfers / 2) - 1 do
          add l_transfer l.cl_xfers.(2 * k) l.cl_xfers.((2 * k) + 1)
        done;
        match l.cl_handled with
        | Some h -> add l_startup (h -. ov.recv_overhead) h
        | None -> ()
      end)
    links;
  let n = !n in
  (* Boundary events: [e < n] opens segment [e], [n <= e < 2n] closes
     segment [e - n], and the last two are the window's ends. *)
  let m = (2 * n) + 2 in
  let at = Array.make m t0 in
  Array.blit lo 0 at 0 n;
  Array.blit hi 0 at n n;
  at.(m - 1) <- t1;
  let order = Array.init m Fun.id in
  Array.sort (fun i j -> Float.compare at.(i) at.(j)) order;
  let live = Array.make 3 0 in
  let startup = ref 0.0 and transfer = ref 0.0 and cpu = ref 0.0 in
  let i = ref 0 and a = ref 0.0 in
  while !i < m do
    let b = at.(order.(!i)) in
    let top_before = top_live live in
    while !i < m && Float.compare at.(order.(!i)) b = 0 do
      let e = order.(!i) in
      if e < n then live.(label.(e)) <- live.(label.(e)) + 1
      else if e < 2 * n then live.(label.(e - n)) <- live.(label.(e - n)) - 1;
      incr i
    done;
    (* Every point but the first closes the interval [!a, b). *)
    if Float.compare at.(order.(0)) b <> 0 then begin
      let a' = !a in
      let mid = (a' +. b) /. 2.0 in
      let top =
        if a' <= mid && mid < b then top_before
        else if mid = b then top_live live
        else top_at ~lo ~hi ~label n mid
      in
      let d = b -. a' in
      if top = l_startup then startup := !startup +. d
      else if top = l_transfer then transfer := !transfer +. d
      else if top = l_cpu then cpu := !cpu +. d
    end;
    a := b
  done;
  {
    startup_us = !startup;
    transfer_us = !transfer;
    queue_us = dur -. (!startup +. !transfer +. !cpu);
    cpu_us = !cpu;
  }

(* Snapshot of a side-branch message (e.g. an invalidation fan-out hop)
   as it stood when its transaction's completion event passed. *)
type side = {
  s_local : bool;
  s_sent : float;
  s_inject : float;
  s_handled : float option;
  s_xfer_us : float;
}

(* Side branches run concurrently with the blocking window, so their
   terms are attributed per message rather than swept as a timeline:
   overheads -> startup, link occupancy -> transfer, local handler cost ->
   cpu, and the dead time between issue and injection (CPU queueing) ->
   queue. A message still in flight at completion is charged for what it
   had consumed by then. *)
let side_cost ov s =
  if s.s_local then
    {
      startup_us = 0.0;
      transfer_us = 0.0;
      queue_us = Float.max 0.0 (s.s_inject -. s.s_sent -. ov.local_overhead);
      cpu_us = ov.local_overhead;
    }
  else
    match s.s_handled with
    | Some h ->
        let startup = ov.send_overhead +. ov.recv_overhead in
        {
          startup_us = startup;
          transfer_us = s.s_xfer_us;
          queue_us = Float.max 0.0 (h -. s.s_sent -. startup -. s.s_xfer_us);
          cpu_us = 0.0;
        }
    | None ->
        {
          startup_us = ov.send_overhead;
          transfer_us = s.s_xfer_us;
          queue_us = Float.max 0.0 (s.s_inject -. s.s_sent -. ov.send_overhead);
          cpu_us = 0.0;
        }

let sides_cost ov sides =
  List.fold_left (fun a s -> add_cost a (side_cost ov s)) zero_cost sides

(* ------------------------------------------------------------------ *)
(* Run summary                                                          *)
(* ------------------------------------------------------------------ *)

type level_row = {
  lv_level : int;
  lv_msgs : int;
  lv_bytes : int;
  lv_local : int;
  lv_crossings : int;
  lv_link_bytes : int;
}

type link_row = {
  lk_link : int;
  lk_msgs : int;
  lk_bytes : int;
  lk_busy_us : float;
}

type window = {
  w_start : float;
  w_finish : float;
  w_link_bytes : (int * float) list;
}

type op_row = {
  or_op : Trace.dsm_op;
  or_count : int;
  or_mean_us : float;
  or_max_us : float;
  or_cost : cost;
  or_side_msgs : int;
  or_side_cost : cost;
}

type critical_summary = {
  sc_node : int;
  sc_end : float;
  sc_txns : int;
  sc_cost : cost;
}

type summary = {
  sm_num_txns : int;
  sm_num_msgs : int;
  sm_end_us : float;
  sm_critical : critical_summary option;
  sm_levels : level_row list;
  sm_top_links : link_row list;
  sm_windows : window list;
  sm_ops : op_row list;
}

(* ------------------------------------------------------------------ *)
(* Reports                                                              *)
(* ------------------------------------------------------------------ *)

let cost_json c =
  Json.Obj
    [
      ("startup_us", Json.Float c.startup_us);
      ("transfer_us", Json.Float c.transfer_us);
      ("queue_us", Json.Float c.queue_us);
      ("cpu_us", Json.Float c.cpu_us);
      ("total_us", Json.Float (total_cost c));
    ]

let level_row_json r =
  Json.Obj
    [
      ("level", Json.Int r.lv_level);
      ("msgs", Json.Int r.lv_msgs);
      ("bytes", Json.Int r.lv_bytes);
      ("local", Json.Int r.lv_local);
      ("crossings", Json.Int r.lv_crossings);
      ("link_bytes", Json.Int r.lv_link_bytes);
    ]

let link_row_json r =
  Json.Obj
    [
      ("link", Json.Int r.lk_link);
      ("msgs", Json.Int r.lk_msgs);
      ("bytes", Json.Int r.lk_bytes);
      ("busy_us", Json.Float r.lk_busy_us);
    ]

let window_json w =
  Json.Obj
    [
      ("start_us", Json.Float w.w_start);
      ("finish_us", Json.Float w.w_finish);
      ( "links",
        Json.List
          (List.map
             (fun (l, b) ->
               Json.Obj [ ("link", Json.Int l); ("bytes", Json.Float b) ])
             w.w_link_bytes) );
    ]

let op_row_json r =
  Json.Obj
    [
      ("op", Json.String (op_name r.or_op));
      ("count", Json.Int r.or_count);
      ("mean_us", Json.Float r.or_mean_us);
      ("max_us", Json.Float r.or_max_us);
      ("cost", cost_json r.or_cost);
      ("side_msgs", Json.Int r.or_side_msgs);
      ("side_cost", cost_json r.or_side_cost);
    ]

let summary_to_json ?(meta = []) s =
  let critical =
    match s.sm_critical with
    | None -> Json.Null
    | Some c ->
        Json.Obj
          [
            ("node", Json.Int c.sc_node);
            ("end_us", Json.Float c.sc_end);
            ("txns", Json.Int c.sc_txns);
            ("cost", cost_json c.sc_cost);
          ]
  in
  Json.Obj
    (meta
    @ [
        ("num_txns", Json.Int s.sm_num_txns);
        ("num_msgs", Json.Int s.sm_num_msgs);
        ("end_us", Json.Float s.sm_end_us);
        ("critical_path", critical);
        ("levels", Json.List (List.map level_row_json s.sm_levels));
        ("top_links", Json.List (List.map link_row_json s.sm_top_links));
        ("windows", Json.List (List.map window_json s.sm_windows));
        ("ops", Json.List (List.map op_row_json s.sm_ops));
      ])

let pct part whole = if whole <= 0.0 then 0.0 else 100.0 *. part /. whole

let render_cost c =
  let t = total_cost c in
  Printf.sprintf
    "startup %.0f us (%.1f%%) | transfer %.0f us (%.1f%%) | queue %.0f us (%.1f%%) | cpu %.0f us (%.1f%%)"
    c.startup_us (pct c.startup_us t) c.transfer_us (pct c.transfer_us t)
    c.queue_us (pct c.queue_us t) c.cpu_us (pct c.cpu_us t)

let render_summary s =
  let b = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "transactions: %d   messages: %d\n" s.sm_num_txns s.sm_num_msgs;
  (match s.sm_critical with
  | None -> pf "critical path: (no transactions)\n"
  | Some c ->
      pf "critical path: node %d, makespan %.0f us over %d transactions\n"
        c.sc_node c.sc_end c.sc_txns;
      pf "  %s\n" (render_cost c.sc_cost));
  if s.sm_levels <> [] then begin
    pf "\ntraffic by access-tree level (-1 = untagged):\n";
    pf "  %5s %8s %12s %7s %10s %12s\n" "level" "msgs" "bytes" "local"
      "crossings" "link-bytes";
    List.iter
      (fun r ->
        pf "  %5d %8d %12d %7d %10d %12d\n" r.lv_level r.lv_msgs r.lv_bytes
          r.lv_local r.lv_crossings r.lv_link_bytes)
      s.sm_levels
  end;
  if s.sm_top_links <> [] then begin
    pf "\ntop %d congested directed links:\n" (List.length s.sm_top_links);
    pf "  %6s %8s %12s %12s\n" "link" "msgs" "bytes" "busy-us";
    List.iter
      (fun r ->
        pf "  %6d %8d %12d %12.0f\n" r.lk_link r.lk_msgs r.lk_bytes
          r.lk_busy_us)
      s.sm_top_links
  end;
  if s.sm_ops <> [] then begin
    pf "\nper-operation cost decomposition (miss path):\n";
    pf "  %-8s %7s %10s %10s   %s\n" "op" "count" "mean-us" "max-us"
      "cost decomposition";
    List.iter
      (fun r ->
        pf "  %-8s %7d %10.0f %10.0f   %s\n" (op_name r.or_op) r.or_count
          r.or_mean_us r.or_max_us (render_cost r.or_cost);
        if r.or_side_msgs > 0 then
          pf "  %-8s %7s side branches: %d msgs, %s\n" "" "" r.or_side_msgs
            (render_cost r.or_side_cost))
      s.sm_ops
  end;
  Buffer.contents b
