(** Versioned, deterministic fault schedules.

    A schedule is a declarative list of fault windows keyed to the
    simulated clock: link slowdowns, transient link outages, probabilistic
    message loss, and node pause / crash-stop windows. Together with the
    schedule's [seed] (which drives the probabilistic-loss stream) it fully
    determines the injected faults, so the same schedule on the same run
    yields a bit-identical simulation.

    Schedules serialise to a single JSON document:

    {v
    {"format":"diva-faults","version":1,"seed":7,
     "rto_us":20000,"patience_us":100000,
     "events":[
       {"kind":"link_slow","link":3,"from":0,"until":5000,"factor":4},
       {"kind":"link_down","link":null,"from":2000,"until":2500},
       {"kind":"drop","prob":0.1,"from":0,"until":20000},
       {"kind":"node_pause","node":5,"from":1000,"until":3000},
       {"kind":"node_crash","node":2,"from":4000,"until":8000}]}
    v}

    Unknown top-level fields are ignored and a higher [version] is
    rejected, so the format can grow compatibly. *)

type window = { t0 : float; t1 : float }
(** Half-open activity window [\[t0, t1)] in simulated microseconds. *)

type event =
  | Link_slow of { link : int option; w : window; factor : float }
      (** Transfers crossing [link] ([None] = every link) during [w] take
          [factor] times as long. Overlapping slowdowns multiply. *)
  | Link_down of { link : int option; w : window }
      (** Messages whose route enters [link] during [w] are lost. *)
  | Msg_drop of { prob : float; w : window }
      (** Every physical transmission started during [w] is lost with
          probability [prob] (drawn from the schedule's seeded stream). *)
  | Node_pause of { node : int; w : window }
      (** The node's CPU stalls during [w]: message injection, receive
          overheads and computation scheduled inside the window start only
          after it closes. *)
  | Node_crash of { node : int; w : window }
      (** Crash-stop for the duration of [w]: additionally to pausing, all
          messages arriving at the node during the window are lost. The
          node recovers with its memory intact when the window closes. *)

type t = {
  version : int;
  seed : int;  (** seeds the probabilistic-loss stream *)
  rto_us : float;  (** base retransmission timeout of the reliable envelope *)
  patience_us : float;  (** DSM watchdog delay before a blocked op re-issues *)
  events : event list;
}

val make :
  ?seed:int -> ?rto_us:float -> ?patience_us:float -> event list -> t
(** Defaults: [seed 1], [rto_us 20000.], [patience_us 100000.]. Both
    timeouts must comfortably exceed the machine's per-message overheads
    (500 us each side on the default machine) and typical congested
    latencies, or spurious retransmissions feed the congestion they are
    reacting to. Test-only: tests build exact schedules in code; programs
    {!read} or {!generate} theirs. *)

val empty : t
(** The no-fault schedule; installing it changes nothing. *)

val is_empty : t -> bool

val validate : t -> (unit, string) result
(** Finite non-negative windows with [t0 <= t1], factors >= 1, drop
    probabilities in [0,1], node ids >= 0, positive timeouts. *)

val generate : seed:int -> num_nodes:int -> num_links:int -> unit -> t
(** A randomized but fully seed-determined chaos schedule scaled to the
    given mesh: a few link slowdowns, 0-2 transient outages, one
    probabilistic-loss window, 0-2 node pauses and at most one crash-stop
    window, all inside the first 30000 us (30 sim-ms).
    The generated schedule always passes {!validate} and is never empty. *)

val describe : t -> string
(** One-line human summary, e.g. ["2 slow, 1 down, drop<=0.15, 1 crash"]. *)

val to_json : t -> Diva_obs.Json.t

val read : string -> (t, string) result
(** Parse the schedule file at a path: a JSON document as above. *)
