(** Cost attribution and the run summary.

    The paper explains the access-tree strategy's win by splitting
    execution time into per-message startup, raw transfer time, and
    congestion-induced queueing; this module holds that decomposition and
    the report types. {!Streaming} is the one engine that folds a run's
    event stream — live, from a list, or from a saved trace file — into a
    {!summary}. Machine overhead constants are passed in as {!overheads}
    ([Diva_obs] sits below the simulator and cannot read
    [Diva_simnet.Machine]). *)

type overheads = {
  send_overhead : float;
  recv_overhead : float;
  local_overhead : float;
}

type cost = {
  startup_us : float;  (** send/receive per-message overheads *)
  transfer_us : float;  (** time some link on the path was moving the data *)
  queue_us : float;
      (** waiting: CPU contention, link contention, header propagation *)
  cpu_us : float;  (** local handler cost and application compute *)
}

val zero_cost : cost
val add_cost : cost -> cost -> cost
val total_cost : cost -> float

val op_name : Trace.dsm_op -> string

(** One message of a transaction's completing causal chain: the chain
    walks [parent] links back from the message that unblocked the fiber
    while still inside the transaction. *)
type chain_link = {
  cl_local : bool;
  cl_inject : float;
  cl_handled : float option;
  cl_xfers : float array;
      (** link occupancies as (start, finish) pairs, flattened, in arrival
          order *)
}

val decompose_chain :
  overheads -> t0:float -> dur:float -> chain_link list -> cost
(** Decompose one transaction's blocking window [\[t0, t0 +. dur\]] along
    its completing chain. Every term is non-negative (up to float
    rounding) and the four sum exactly to [dur]: the labeled segments —
    overheads as startup, link occupancy as transfer, local handler cost
    as cpu — are clipped to the window and measured as a union with
    precedence startup > transfer > cpu; the uncovered remainder is
    queueing. Clipping makes the result insensitive to link crossings
    emitted after the completion event, so an analyzer that retires
    transactions at completion loses nothing. *)

(** A side-branch message of a transaction (e.g. an invalidation fan-out
    hop the write triggered but did not block on), as it stood when the
    transaction's completion event passed: deliveries and crossings
    emitted later are absent. *)
type side = {
  s_local : bool;
  s_sent : float;
  s_inject : float;
  s_handled : float option;
  s_xfer_us : float;  (** summed link occupancy emitted by completion *)
}

val sides_cost : overheads -> side list -> cost
(** Each message's overheads as startup, link occupancy as transfer,
    local handler cost as cpu, issue-to-injection dead time as queue,
    summed in list order. *)

(** {2 Run summary} *)

type level_row = {
  lv_level : int;  (** access-tree depth; -1 collects untagged traffic *)
  lv_msgs : int;
  lv_bytes : int;
  lv_local : int;  (** how many of the messages were same-processor hops *)
  lv_crossings : int;  (** directed-link crossings *)
  lv_link_bytes : int;  (** bytes weighted by links crossed *)
}
(** Traffic grouped by the access-tree level of the destination protocol
    node. Shows the paper's locality effect: most tree traffic should sit
    at deep (cheap, short-distance) levels. *)

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
      (** per-link bytes attributed to the window, overlap-proportional;
          ascending link id, zero links omitted *)
}
(** One of [n] equal time windows over the run — the data behind
    time-lapse congestion heatmaps. *)

type op_row = {
  or_op : Trace.dsm_op;
  or_count : int;  (** miss-path transactions of this kind *)
  or_mean_us : float;
  or_max_us : float;
  or_cost : cost;  (** summed decomposition over all of them *)
  or_side_msgs : int;  (** side-branch messages (invalidation fan-out &c.) *)
  or_side_cost : cost;  (** summed side-branch attribution *)
}
(** Latency and summed cost decomposition per operation type (miss path
    only — hits never enter the protocol). *)

type critical_summary = {
  sc_node : int;  (** the last-finishing processor *)
  sc_end : float;  (** when its final transaction completed *)
  sc_txns : int;  (** transactions on its timeline *)
  sc_cost : cost;
      (** the node's whole timeline: blocking decompositions plus
          inter-transaction gaps (application compute) as [cpu_us] *)
}
(** The makespan is decided by the last-finishing processor; its timeline
    decomposition explains where the run's wall-clock went. *)

(** Everything [divasim analyze] reports, as one value. *)
type summary = {
  sm_num_txns : int;
  sm_num_msgs : int;
  sm_end_us : float;
      (** end of network activity: last link release (acks excluded),
          last handler run, last local handler — the windows' time basis *)
  sm_critical : critical_summary option;  (** [None] without transactions *)
  sm_levels : level_row list;  (** ascending level *)
  sm_top_links : link_row list;
      (** most bytes first, ties by ascending link id *)
  sm_windows : window list;
  sm_ops : op_row list;  (** read, write, lock, unlock, barrier, reduce *)
}

val summary_to_json : ?meta:(string * Json.t) list -> summary -> Json.t
(** The machine-readable [analysis.json] payload. [meta] entries are
    prepended to the object. *)

val render_summary : summary -> string
(** Human-readable report (the [divasim analyze] stdout). *)
