(** Export a trace to the Chrome trace-event JSON format.

    The output is the object form [{ "traceEvents": [...], ... }] and loads
    directly in Perfetto ({{:https://ui.perfetto.dev}ui.perfetto.dev}) or
    [chrome://tracing]. Timestamps are the simulation's microseconds, which
    is the trace format's native unit.

    Layout: each mesh node becomes a process (pid = node id) with a
    "messages" row for sends/deliveries and a "dsm" row for shared-memory
    operation spans and copy-set changes; one extra "network" process
    (pid = number of nodes) holds a row per directed link whose slices are
    the link-occupancy intervals, plus three counter tracks sampled at
    every change point: "in-flight messages" (issued but not yet handled),
    "busy links" (directed links currently occupied) and "copies held"
    (live variable copies across the machine). Each causal transaction
    additionally becomes a flow arrow (id = transaction id) from its DSM
    slice through every link slice its protocol messages occupied, so
    Perfetto renders the transaction's path through the machine. Events are
    emitted sorted by timestamp and the output is byte-deterministic for a
    given event list. *)

val write_file :
  ?metadata:(string * Json.t) list ->
  ?prof:Json.t ->
  num_nodes:int ->
  path:string ->
  Trace.event list ->
  unit
(** Write the export to [path], newline-terminated. [metadata] entries
    (e.g. the run manifest) are attached under the top-level ["metadata"]
    key. [prof] is a {!Prof.to_json} document; when given, its sample
    series becomes two counter tracks on an extra "profiler" process
    (pid = number of nodes + 1): host events/sec and host heap MB, plotted
    against simulated time. *)
