(** The analysis engine and the on-disk JSONL trace format.

    One fold turns a run's event stream into an {!Analysis.summary}:
    traffic profiles are event-self-contained sums, and each transaction
    is decomposed — completing chain and side branches — the moment its
    completion event passes, after which its message records are freed.
    Peak residency is O(concurrent transactions x protocol fan-out),
    independent of run length, and {!peak_msgs} exposes the high-water
    mark so harnesses can assert boundedness. The fold runs live, fed
    from a trace sink ([Trace.stream (feed t)], what [divasim analyze]
    attaches to the run), and over a saved trace file ({!analyze_file});
    both give the same summary bit for bit (floats included). The window clipping of
    {!Analysis.decompose_chain} makes post-completion retransmission
    crossings invisible to cost attribution, so retiring early loses
    nothing (tested against a keep-everything reference).

    The second half of the module is a versioned JSONL trace format —
    header line plus one compact JSON event per line — written by a
    {!Trace.stream} sink during the run ({!file_sink}), re-analyzed later
    by {!analyze_file} without re-simulating, and replayed by
    [Diva_workload.Replay]. *)

type t

val max_windows : int
(** Upper bound on [num_windows] (10000): every link crossed holds up to
    one float per window. *)

val create :
  ?top_k:int -> ?num_windows:int -> ?ring:int -> Analysis.overheads -> t
(** [top_k] (default 10) links are reported, over at most [num_windows]
    (default 8, at most {!max_windows}, else [Invalid_argument]) time
    windows of {!Analysis.window}. [ring] (default 1024) bounds the set
    of recently-completed transaction ids remembered to keep stray
    post-completion sends from repopulating the record table; eviction can
    only delay freeing such a record until the end, never change computed
    values. Test-only: a test shrinks [ring] to reach eviction in a
    test-sized run. *)

val feed : t -> Trace.event -> unit

val live_msgs : t -> int
(** Message records currently retained (messages of not-yet-completed
    transactions). Test-only: residency tests read it mid-fold, which no
    other path exposes. *)

val peak_msgs : t -> int
(** High-water mark of {!live_msgs} — the analyzer's peak residency.
    Test-only: boundedness tests read it mid-fold; {!analyze_file}
    returns the final value. *)

val finalize : t -> Analysis.summary
(** Non-destructive. The windowed link series folds during the pass: a
    link crossed holds its window sums in chunks of 32 windows, allocated
    when a crossing first reaches them, and nothing is kept per crossing.
    Here the windows widen to the run's end time, on a copy. *)

(** {2 On-disk JSONL trace format}

    The first line is a header object [{"format":"diva-event-trace","version":1,
    "app":...,"dims":[...],"strategy":...,"seed":...,"overheads":
    {"send_us":...,"recv_us":...,"local_us":...},"params":{...}}]; every
    later line is one event encoded by {!Trace.add_event}. Floats are
    printed round-trip exactly ({!Json.add_float}), so offline analysis
    of a saved trace is bit-identical to analyzing the live run. Readers
    reject unknown formats and versions newer than the one
    {!make_header} stamps, and skip blank lines everywhere, before the
    header included. *)

val format_name : string

type header = {
  h_version : int;
  h_app : string;
  h_dims : int array;
  h_strategy : string;
  h_seed : int;
  h_overheads : Analysis.overheads;
      (** machine overheads of the recorded run, so offline analysis needs
          no access to the simulator's machine model *)
  h_params : (string * Json.t) list;  (** free-form run parameters *)
}

val make_header :
  ?params:(string * Json.t) list ->
  app:string ->
  dims:int array ->
  strategy:string ->
  seed:int ->
  overheads:Analysis.overheads ->
  unit ->
  header

val write_header : out_channel -> header -> unit

val file_sink : out_channel -> header -> Trace.sink
(** Write the header now and every emitted event as one line, without
    buffering — recording costs O(1) memory. The caller closes the
    channel after the run. *)

val event_of_line : string -> (Trace.event, string) result
(** Decode one event line in a single pass over its bytes, building no
    {!Json.t}: member names are matched in place and each known member's
    value lands in a typed slot. The line must be one JSON document as
    {!Json.of_string} reads it; members may come in any order, with any
    whitespace, beside unknown members of any type, and the first of
    duplicate names wins. Int fields accept integral floats inside the
    [int] range. Errors name the first missing or malformed field in the
    event's field order, or the unknown tag or code. File readers prefix
    them with ["line N: "]. Test-only: tests hold the decoder to a
    reference decoder and check its messages one line at a time. *)

val iter_file : string -> f:(Trace.event -> unit) -> (header, string) result
(** Parse the header, then apply [f] to every event line in order,
    reading one line at a time. *)

val probe : string -> (unit, string) result
(** Validate that the file exists and starts with a parseable header of a
    supported version — cheap enough for argument parsing. *)

val analyze_file :
  ?top_k:int ->
  ?num_windows:int ->
  string ->
  (header * Analysis.summary * int, string) result
(** Full offline post-mortem of a saved trace in a single pass: the file
    is read once, and the windowed link series folds along the way.
    Returns the header, a summary bit-identical to analyzing the live
    run, and the peak message-record residency. A [num_windows] above {!max_windows} is an [Error]. *)

(** {2 Multi-run merge / compaction}

    [divasim trace merge] combines several single-run trace files into
    one time-ordered stream for fleet-level analysis. The merged file is
    its own format (["diva-event-trace-merged"], version 1): the first
    line is a header carrying every input's original header, and every
    event line gains a leading ["run"] field naming the input it came
    from (0-based, in argument order). *)

type merge_stats = {
  ms_runs : int;  (** number of input files merged *)
  ms_events : int;  (** event lines written to the output *)
  ms_dropped : int;  (** events removed by compaction (0 when off) *)
}

val merge_files :
  ?compact:bool ->
  inputs:string list ->
  output:string ->
  unit ->
  (merge_stats, string) result
(** K-way merge of the input traces into [output], ordered by event
    timestamp with the run index as tie-break; within one run the
    original emission order is preserved exactly, so the output is
    deterministic. With [compact] (default off), each run is first
    scanned for its quiescence point — the issue time of its first DSM
    access — and events before it are dropped as setup noise, except
    {!Trace.Var_decl} declarations, which always survive. Inputs are
    validated (existing file, parseable header) before the output is
    opened. *)
