module Network = Diva_simnet.Network
module Sim = Diva_simnet.Sim
module Runner = Diva_harness.Runner
module Prng = Diva_util.Prng
module Wspec = Diva_workload.Spec
module Sampler = Diva_workload.Sampler
module Driver = Diva_workload.Driver

type result = {
  measurements : Runner.measurements;
  slo : Slo.t;
  arrivals : int;
  completions : int;
  in_horizon : int;
  offered_per_s : float;
  goodput_per_s : float;
  queue_hwm : int array;
  makespan_us : float;
}

type request = {
  rq_key : int;
  rq_read : bool;
  rq_seq : int;  (* global arrival sequence number; doubles as write value *)
  rq_arrival : float;
}

let run ?(obs = Runner.null_obs) ?on_net ?oracle ~dims ~strategy spec =
  (match Spec.validate spec with
  | Ok () -> ()
  | Error e -> invalid_arg ("Diva_service.Engine.run: " ^ e));
  let procs = Array.fold_left ( * ) 1 dims in
  let keys = Spec.(spec.keys) in
  let bounds = Spec.boundaries spec in
  let horizon = Spec.(spec.horizon_us) in
  let hwm = Array.make procs 0 in
  let arrivals = ref 0 in
  let in_horizon = ref 0 in
  let setup ld =
    let net = Driver.net ld in
    let sim = Network.sim net in
    let vars =
      Driver.key_vars ld ~prefix:"k" ~size:Spec.(spec.value_size) keys
    in
    (* One sampler per phase, with the phase's shift: the phase schedule
       over key popularity reuses the workload sampler wholesale. *)
    let samplers =
      Array.of_list
        (List.map
           (fun (ph : Spec.phase) ->
             ( Sampler.create (Network.mesh net)
                 (Wspec.make ~num_vars:keys ~var_size:Spec.(spec.value_size)
                    ~popularity:ph.Spec.ph_popularity ~locality:Wspec.Global
                    ~seed:Spec.(spec.seed) ()),
               ph.Spec.ph_shift ))
           Spec.(spec.phases))
    in
    (* Independent deterministic streams: one for arrival timing, one for
       request content, so changing the arrival shape never perturbs which
       keys are requested at a given draw index and vice versa. *)
    let arr =
      Arrival.make
        ~seed:(Int64.to_int (Prng.hash2 (Int64.of_int Spec.(spec.seed)) 1))
        ~rate:Spec.(spec.rate) Spec.(spec.arrival)
    in
    let req_rng =
      Prng.create
        ~seed:(Int64.to_int (Prng.hash2 (Int64.of_int Spec.(spec.seed)) 2))
    in
    let queues = Array.init procs (fun _ -> Queue.create ()) in
    let waiters = Array.make procs None in
    let closed = ref false in
    let wake p =
      match waiters.(p) with
      | Some w ->
          waiters.(p) <- None;
          w ()
      | None -> ()
    in
    let close () =
      closed := true;
      for p = 0 to procs - 1 do
        wake p
      done
    in
    (* The arrival chain: each event records one request, wakes the entry
       node's server if it is idle, and schedules the next arrival — fully
       decoupled from service completion, so queues can genuinely grow. *)
    let rec arrive t_arr () =
      incr arrivals;
      let c = Prng.int req_rng Spec.(spec.clients) in
      let node = Prng.hash2_int (Int64.of_int Spec.(spec.seed)) c ~bound:procs in
      let sampler, shift = samplers.(Spec.index_at bounds t_arr) in
      let k = (Sampler.draw sampler ~proc:node req_rng + shift) mod keys in
      let is_read = Prng.chance req_rng Spec.(spec.read_ratio) in
      Queue.push
        { rq_key = k; rq_read = is_read; rq_seq = !arrivals; rq_arrival = t_arr }
        queues.(node);
      let depth = Queue.length queues.(node) in
      if depth > hwm.(node) then hwm.(node) <- depth;
      wake node;
      schedule_next ()
    and schedule_next () =
      let t = Arrival.next arr in
      if t > horizon then close () else Sim.schedule sim t (arrive t)
    in
    schedule_next ();
    (* One server fiber per node: drain the queue, block when idle, exit
       when the arrival stream has closed and the queue is dry. *)
    fun p ->
      let rec serve () =
        if not (Queue.is_empty queues.(p)) then begin
          let rq = Queue.pop queues.(p) in
          Driver.issue ld p ~key:rq.rq_key vars.(rq.rq_key) ~t0:rq.rq_arrival
            ~read:rq.rq_read ~value:rq.rq_seq;
          if Network.now net <= horizon then incr in_horizon;
          serve ()
        end
        else if !closed then ()
        else begin
          Network.suspend (fun resume -> waiters.(p) <- Some resume);
          serve ()
        end
      in
      serve ()
  in
  let m, slo =
    Driver.run ~obs ~on_net ~oracle ~seed:Spec.(spec.seed) ~dims ~strategy
      ~capacity:1024 setup
  in
  let horizon_s = horizon /. 1e6 in
  {
    measurements = m;
    slo;
    arrivals = !arrivals;
    completions = slo.Slo.n;
    in_horizon = !in_horizon;
    offered_per_s = float_of_int !arrivals /. horizon_s;
    goodput_per_s = float_of_int !in_horizon /. horizon_s;
    queue_hwm = hwm;
    makespan_us = m.Runner.time;
  }

let max_queue_hwm r = Array.fold_left max 0 r.queue_hwm

let render r =
  Printf.sprintf
    "%soffered / goodput     %.0f / %.0f req/s (%d arrivals, %d served in \
     horizon)\n\
     queue high-water      %d requests\n\
     makespan              %.3f s\n"
    (Slo.render_requests r.slo)
    r.offered_per_s r.goodput_per_s r.arrivals r.in_horizon
    (max_queue_hwm r)
    (r.makespan_us /. 1e6)
