(** Saturation sweep: step the offered load, find the knee.

    A sweep is one {!Run_spec.Serve} cell per stepped rate: the same run
    (mesh, strategy, seed, fault schedule, service spec and phase
    schedule) at that offered load. The caller runs the cells, usually
    with {!Run_spec.campaign}, and folds what they measured into rows and
    the knee. A point is marked {e diverged} when its achieved/offered
    throughput ratio falls below the threshold — past saturation the
    open-loop arrivals outrun the servers, queues grow and goodput
    detaches from offered load. The {e knee} is the highest stepped load
    the strategy still sustains. *)

type row = {
  sw_rate : float;  (** configured rate, requests per simulated second *)
  sw_offered : float;  (** measured arrivals per second *)
  sw_goodput : float;  (** in-horizon completions per second *)
  sw_ratio : float;  (** goodput / offered *)
  sw_latency : Diva_workload.Latency.t;
  sw_qmax : int;  (** worst per-node queue depth high-water mark *)
  sw_makespan : float;
  sw_diverged : bool;  (** ratio below the threshold *)
}

type t = {
  sv_strategy : string;
  sv_threshold : float;
  sv_rows : row list;  (** ascending by rate *)
  sv_knee : float option;
      (** highest non-diverged rate; [None] when every point diverges *)
}

val default_threshold : float
(** 0.95 *)

val cells : rates:float list -> Run_spec.t -> Run_spec.t list
(** One cell per distinct rate, ascending: the serve run with its
    service spec's [rate] replaced. Raises [Invalid_argument] on an empty
    rate list or a run that is not a {!Run_spec.Serve}. *)

val of_runs :
  ?threshold:float -> (Run_spec.t -> Run_spec.measured) -> Run_spec.t list -> t
(** [of_runs measured cells]: the sweep of [cells] (from {!cells}, in
    that order), each row built from [measured cell]. The strategy is the
    first cell's. Raises [Invalid_argument] on a cell that is not a serve
    run, [Failure] on no cells. *)

val to_json : params:(string * Diva_obs.Json.t) list -> t list -> Diva_obs.Json.t
(** The machine-readable sweep table (schema [diva-service-sweep/1]),
    one entry per strategy. *)

val render : t -> string
