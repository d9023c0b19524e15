module Network = Diva_simnet.Network
module Sim = Diva_simnet.Sim
module Dsm = Diva_core.Dsm
module Runner = Diva_harness.Runner
module Prng = Diva_util.Prng
module Wspec = Diva_workload.Spec
module Sampler = Diva_workload.Sampler

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

(* Growing sample buffer (cooperative scheduling: no concurrency, just
   unknown completion interleaving). *)
type samples = { mutable buf : float array; mutable n : int }

let add_sample s x =
  if s.n = Array.length s.buf then begin
    let buf = Array.make (max 1024 (2 * Array.length s.buf)) 0.0 in
    Array.blit s.buf 0 buf 0 s.n;
    s.buf <- buf
  end;
  s.buf.(s.n) <- x;
  s.n <- s.n + 1

let run ?(obs = Runner.null_obs) ?on_net ~dims ~strategy spec =
  (match Spec.validate spec with
  | Ok () -> ()
  | Error e -> invalid_arg ("Diva_service.Engine.run: " ^ e));
  let net = Network.create_nd ~seed:Spec.(spec.seed) ~dims () in
  Runner.install_obs net obs;
  let dsm = Dsm.create net ~strategy () in
  let procs = Network.num_nodes net in
  let sim = Network.sim net in
  let mesh = Network.mesh net in
  let keys = Spec.(spec.keys) in
  let vars =
    Array.init keys (fun k ->
        Dsm.create_var dsm
          ~name:(Printf.sprintf "k%d" k)
          ~owner:(k mod procs) ~size:Spec.(spec.value_size) 0)
  in
  (* One sampler per phase: the phase schedule over key popularity reuses
     the workload sampler wholesale. *)
  let samplers =
    Array.of_list
      (List.map
         (fun (ph : Spec.phase) ->
           Sampler.create mesh
             (Wspec.make ~num_vars:keys ~var_size:Spec.(spec.value_size)
                ~popularity:ph.Spec.ph_popularity ~locality:Wspec.Global
                ~seed:Spec.(spec.seed) ()))
         Spec.(spec.phases))
  in
  let shifts =
    Array.of_list (List.map (fun p -> p.Spec.ph_shift) Spec.(spec.phases))
  in
  let bounds = Spec.boundaries spec in
  let horizon = Spec.(spec.horizon_us) in
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
  let hwm = Array.make procs 0 in
  let closed = ref false in
  let arrivals = ref 0 in
  let completions = ref 0 in
  let in_horizon = ref 0 in
  let samples = { buf = Array.make 1024 0.0; n = 0 } in
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
    let ph = Spec.index_at bounds t_arr in
    let k =
      (Sampler.draw samplers.(ph) ~proc:node req_rng + shifts.(ph)) mod keys
    in
    let is_read = Prng.float req_rng 1.0 < Spec.(spec.read_ratio) in
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
  (* One server fiber per node: drain the queue, block when idle, exit
     when the arrival stream has closed and the queue is dry. *)
  for p = 0 to procs - 1 do
    Network.spawn net p (fun () ->
        let rec serve () =
          if not (Queue.is_empty queues.(p)) then begin
            let rq = Queue.pop queues.(p) in
            (if rq.rq_read then ignore (Dsm.read dsm p vars.(rq.rq_key))
             else Dsm.write dsm p vars.(rq.rq_key) rq.rq_seq);
            let t_done = Network.now net in
            incr completions;
            if t_done <= horizon then incr in_horizon;
            add_sample samples (t_done -. rq.rq_arrival);
            serve ()
          end
          else if !closed then ()
          else begin
            Network.suspend (fun resume -> waiters.(p) <- Some resume);
            serve ()
          end
        in
        serve ())
  done;
  (let t0 = Arrival.next arr in
   if t0 > horizon then closed := true else Sim.schedule sim t0 (arrive t0));
  Runner.finish ?on_net ~obs net;
  let m = Runner.collect net (Some dsm) in
  let horizon_s = horizon /. 1e6 in
  {
    measurements = m;
    slo = Slo.of_samples (Array.sub samples.buf 0 samples.n);
    arrivals = !arrivals;
    completions = !completions;
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
    (Slo.render r.slo) r.offered_per_s r.goodput_per_s r.arrivals r.in_horizon
    (max_queue_hwm r)
    (r.makespan_us /. 1e6)
