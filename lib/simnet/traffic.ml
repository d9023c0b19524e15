(* Parallel mesh traffic simulation on top of Par_engine.

   The protocol-coupled DSM stack cannot be sharded without changing its
   results (a send reserves every link of its route and the destination
   CPU at the send instant — zero lookahead). This model is the
   shard-friendly counterpart: packets move hop by hop, each hop costing
   [hop_latency] plus queueing on the (directed) outgoing link, so all
   interactions between rows are at least one hop apart and the
   conservative engine applies with lookahead = hop_latency.

   Sharding: one logical shard per mesh row, whatever the domain count.
   Dimension-order routing adjusts the column first, so a packet's
   horizontal hops stay inside its current row's shard; each vertical hop
   crosses exactly one shard boundary. Every directed link is owned by
   the shard of its source node, so link occupancy words are only ever
   touched by their owner shard.

   Everything — per-node Poisson processes (seeded by hash2(seed, node)),
   link queueing, per-shard stats merged in shard order — is a function of
   model state alone, so results are byte-identical for any domain
   count. *)

module Prng = Diva_util.Prng

type pattern = Uniform | Transpose | Hotspot

let pattern_name = function
  | Uniform -> "uniform"
  | Transpose -> "transpose"
  | Hotspot -> "hotspot"

let pattern_of_string = function
  | "uniform" -> Some Uniform
  | "transpose" -> Some Transpose
  | "hotspot" -> Some Hotspot
  | _ -> None

type ev =
  | Inject of int (* node *)
  | Arrive of { node : int; dst : int; injected : float; hops : int }

type stats = {
  mutable st_injected : int;
  mutable st_delivered : int;
  mutable st_lat_sum : float;
  mutable st_lat_max : float;
  mutable st_hops : int;
}

type result = {
  r_injected : int;
  r_delivered : int;
  r_lat_mean_us : float;
  r_lat_max_us : float;
  r_hops : int;
  r_events : int;
}

type model = {
  rows : int;
  cols : int;
  rate : float; (* packets per microsecond per node *)
  horizon : float;
  size : int;
  pattern : pattern;
  machine : Machine.t;
  prngs : Prng.t array; (* per node, touched only by its row's shard *)
  (* Directed-link busy-until times, indexed by source node. *)
  free_e : float array;
  free_w : float array;
  free_s : float array;
  free_n : float array;
  stats : stats array; (* per shard *)
}

let draw_dst m r node =
  let n = m.rows * m.cols in
  match m.pattern with
  | Uniform ->
      let rec go () =
        let d = Prng.int r n in
        if d = node then go () else d
      in
      go ()
  | Transpose ->
      let row = node / m.cols and col = node mod m.cols in
      let d = ((col mod m.rows) * m.cols) + (row mod m.cols) in
      if d = node then (node + 1) mod n else d
  | Hotspot ->
      (* 20% of traffic converges on node 0. *)
      if Prng.chance r 0.2 && node <> 0 then 0
      else
        let rec go () =
          let d = Prng.int r n in
          if d = node then go () else d
        in
        go ()

let exp_gap r rate = -.Float.log (1.0 -. Prng.float r 1.0) /. rate

(* One wormhole hop: queue on the directed link owned by [node], then
   surface at the neighbouring node after the header latency. *)
let hop m ctx ~node ~dst ~injected ~hops =
  let now = Par_engine.ctx_now ctx in
  let row = node / m.cols and col = node mod m.cols in
  let drow = dst / m.cols and dcol = dst mod m.cols in
  let free, next =
    if dcol > col then (m.free_e, node + 1)
    else if dcol < col then (m.free_w, node - 1)
    else if drow > row then (m.free_s, node + m.cols)
    else (m.free_n, node - m.cols)
  in
  (* Times are never NaN or -0., so plain comparisons do what [Float.max]
     does without its sign-bit tests, here and in the latency maxima. *)
  let busy = free.(node) in
  let depart = if now > busy then now else busy in
  free.(node) <- depart +. Machine.transfer_time m.machine m.size;
  let at = depart +. m.machine.Machine.hop_latency in
  let arrive = Arrive { node = next; dst; injected; hops = hops + 1 } in
  let next_row = next / m.cols in
  if next_row = row then Par_engine.ctx_schedule ctx ~at arrive
  else Par_engine.ctx_post ctx ~dst:next_row ~at arrive

let handler m ctx ev =
  let st = m.stats.(Par_engine.ctx_shard ctx) in
  match ev with
  | Inject node ->
      let now = Par_engine.ctx_now ctx in
      let r = m.prngs.(node) in
      let dst = draw_dst m r node in
      st.st_injected <- st.st_injected + 1;
      hop m ctx ~node ~dst ~injected:now ~hops:0;
      let next = now +. exp_gap r m.rate in
      if next < m.horizon then Par_engine.ctx_schedule ctx ~at:next (Inject node)
  | Arrive { node; dst; injected; hops } ->
      if node = dst then begin
        let lat = Par_engine.ctx_now ctx -. injected in
        st.st_delivered <- st.st_delivered + 1;
        st.st_lat_sum <- st.st_lat_sum +. lat;
        if lat > st.st_lat_max then st.st_lat_max <- lat;
        st.st_hops <- st.st_hops + hops
      end
      else hop m ctx ~node ~dst ~injected ~hops

let run ?(domains = 1) ?telemetry ?(seed = 17) ?(size = 64) ~rows ~cols ~rate
    ~horizon ~pattern () =
  if rows < 1 || cols < 1 || rows * cols < 2 then
    invalid_arg "Traffic.run: need at least 2 nodes";
  if not (rate > 0.0 && horizon > 0.0) then
    invalid_arg "Traffic.run: rate and horizon must be > 0";
  let n = rows * cols in
  let m =
    {
      rows;
      cols;
      rate;
      horizon;
      size;
      pattern;
      machine = Machine.gcel;
      prngs =
        Array.init n (fun i ->
            Prng.create
              ~seed:(Int64.to_int (Prng.hash2 (Int64.of_int seed) i)));
      free_e = Array.make n 0.0;
      free_w = Array.make n 0.0;
      free_s = Array.make n 0.0;
      free_n = Array.make n 0.0;
      stats =
        Array.init rows (fun _ ->
            {
              st_injected = 0;
              st_delivered = 0;
              st_lat_sum = 0.0;
              st_lat_max = 0.0;
              st_hops = 0;
            });
    }
  in
  let eng =
    Par_engine.create ~shards:rows ~lookahead:m.machine.Machine.hop_latency
  in
  (* First injection of every node: one deterministic exponential gap in
     node order, so the seeded queues are identical for any domain count. *)
  for node = 0 to n - 1 do
    let at = exp_gap m.prngs.(node) m.rate in
    if at < horizon then
      Par_engine.schedule_init eng ~shard:(node / cols) ~at (Inject node)
  done;
  Par_engine.run ~domains ?telemetry eng ~handler:(handler m);
  (* Merge per-shard stats in shard order: deterministic float sums. *)
  let injected = ref 0 and delivered = ref 0 and hops = ref 0 in
  let lat_sum = ref 0.0 and lat_max = ref 0.0 in
  Array.iter
    (fun st ->
      injected := !injected + st.st_injected;
      delivered := !delivered + st.st_delivered;
      hops := !hops + st.st_hops;
      lat_sum := !lat_sum +. st.st_lat_sum;
      if st.st_lat_max > !lat_max then lat_max := st.st_lat_max)
    m.stats;
  {
    r_injected = !injected;
    r_delivered = !delivered;
    r_lat_mean_us =
      (if !delivered = 0 then 0.0
       else !lat_sum /. float_of_int !delivered);
    r_lat_max_us = !lat_max;
    r_hops = !hops;
    r_events = Par_engine.events_executed eng;
  }

let render r =
  Printf.sprintf
    "injected %d, delivered %d, mean latency %.3f us, max latency %.3f us, \
     total hops %d, events %d"
    r.r_injected r.r_delivered r.r_lat_mean_us r.r_lat_max_us r.r_hops
    r.r_events
