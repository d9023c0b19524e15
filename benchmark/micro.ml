(* Layer microbenches. Each one drives a single layer through its public
   functions and reports host ns per operation (median of [reps]) and
   minor words per operation. They run single-domain, so Gc.minor_words
   sees every allocation. *)

module Event_queue = Diva_util.Event_queue
module Prng = Diva_util.Prng
module Sim = Diva_simnet.Sim
module Network = Diva_simnet.Network
module Link_stats = Diva_simnet.Link_stats
module Dsm = Diva_core.Dsm
module Registry = Diva_core.Registry

let clock = Unix.gettimeofday

(* Run [f] [reps] times; [f] returns (ns per op, words per op). The ns are
   the median; words per op is near-deterministic, so the median too. *)
let repeat reps f =
  let rs = List.init reps (fun _ -> f ()) in
  (Results.median (List.map fst rs), Results.median (List.map snd rs))

let timed ~ops f =
  let w0 = Gc.minor_words () in
  let t0 = clock () in
  f ();
  let t1 = clock () in
  let w1 = Gc.minor_words () in
  let n = float_of_int ops in
  ((t1 -. t0) *. 1e9 /. n, (w1 -. w0) /. n)

(* One insert plus one min_priority_exn/pop_exn at a steady depth. The
   priorities are now + Exp(10 us) rounded to 0.1 us, so ties occur; the
   increments are drawn up front so the loop times only the queue. *)
let event_queue ~depth ~ops () =
  let rng = Prng.create ~seed:11 in
  let incs =
    Array.init 4096 (fun _ ->
        let e = -10.0 *. Float.log (1.0 -. Prng.float rng 1.0) in
        Float.round (e *. 10.0) /. 10.0)
  in
  let q = Event_queue.create () in
  for i = 0 to depth - 1 do
    Event_queue.insert q incs.(i land 4095) i
  done;
  timed ~ops (fun () ->
      for i = 0 to ops - 1 do
        let now = Event_queue.min_priority_exn q in
        let v = Event_queue.pop_exn q in
        Event_queue.insert q (now +. incs.(i land 4095)) v
      done)

(* 256 self-rescheduling no-op chains through Sim.schedule_call. *)
type chain = { sim : Sim.t; step : float; mutable left : int }

let rec tick c =
  if c.left > 0 then begin
    c.left <- c.left - 1;
    Sim.schedule_call c.sim (Sim.now c.sim +. c.step) tick c
  end

let sim_events ~ops () =
  let sim = Sim.create () in
  let chains = 256 in
  for i = 0 to chains - 1 do
    let c = { sim; step = 1.0 +. (float_of_int i *. 0.001); left = ops / chains } in
    Sim.schedule_call sim 0.0 tick c
  done;
  let ns, words = timed ~ops (fun () -> Sim.run sim) in
  (* Each chain's first tick adds one event to the [ops] rescheduled. *)
  let k = float_of_int ops /. float_of_int (Sim.events_executed sim) in
  (ns *. k, words *. k)

(* Handler-to-handler send chains on a 16x16 mesh with uniform
   destinations: [chains] messages are in flight at any time. *)
let network_send ~chains ~ops () =
  let net = Network.create ~seed:5 ~rows:16 ~cols:16 () in
  let n = Network.num_nodes net in
  let rng = Prng.create ~seed:13 in
  let left = ref (ops - chains) in
  let other src = (src + 1 + Prng.int rng (n - 1)) mod n in
  let handler net (m : Network.msg) =
    if !left > 0 then begin
      decr left;
      Network.send net ~src:m.Network.m_dst ~dst:(other m.Network.m_dst) ~size:64
        Network.Empty
    end
  in
  for p = 0 to n - 1 do
    Network.set_handler net p handler
  done;
  Sim.schedule (Network.sim net) 0.0 (fun () ->
      for k = 0 to chains - 1 do
        let src = k mod n in
        Network.send net ~src ~dst:(other src) ~size:64 Network.Empty
      done);
  timed ~ops (fun () -> Network.run net)

(* One fiber blocking on Network.compute in a loop. *)
let fiber_block ~ops () =
  let net = Network.create ~seed:5 ~rows:2 ~cols:2 () in
  Network.spawn net 0 (fun () ->
      for _ = 1 to ops do
        Network.compute net 0 1.0
      done);
  timed ~ops (fun () -> Network.run net)

(* The DSM microtrace: an 8x8 mesh, 64 vars of 64 B, var p homed on
   processor p. Each round has four phases separated by barriers: every
   processor reads its 63 remote vars (misses), reads them again (hits),
   writes its own var (invalidating the copies), then a barrier-only
   phase. Processor 0 reads the host clock and the link message total at
   each barrier exit; the barrier-only phase's time and messages are
   subtracted from the other three. *)
let dsm_trace spec ~rounds () =
  let net = Network.create ~seed:3 ~rows:8 ~cols:8 () in
  let dsm = Dsm.create net ~strategy:spec () in
  let n = Network.num_nodes net in
  let vars = Array.init n (fun p -> Dsm.create_var dsm ~owner:p ~size:64 0) in
  let stats = Network.stats net in
  let time = Array.make 4 0.0 and msgs = Array.make 4 0 in
  let t_mark = ref 0.0 and m_mark = ref 0 in
  let mark () =
    t_mark := clock ();
    m_mark := Link_stats.total_msgs stats
  in
  let lap k =
    let t = clock () and m = Link_stats.total_msgs stats in
    time.(k) <- time.(k) +. (t -. !t_mark);
    msgs.(k) <- msgs.(k) + (m - !m_mark);
    t_mark := t;
    m_mark := m
  in
  let phase p k body =
    body ();
    Dsm.barrier dsm p;
    if p = 0 then lap k
  in
  let read_all p () =
    for q = 0 to n - 1 do
      if q <> p then ignore (Dsm.read dsm p vars.(q))
    done
  in
  for p = 0 to n - 1 do
    Network.spawn net p (fun () ->
        Dsm.barrier dsm p;
        if p = 0 then mark ();
        for r = 1 to rounds do
          phase p 0 (read_all p);
          phase p 1 (read_all p);
          phase p 2 (fun () -> Dsm.write dsm p vars.(p) r);
          phase p 3 ignore
        done)
  done;
  Network.run net;
  let reads = float_of_int (rounds * n * (n - 1)) and writes = float_of_int (rounds * n) in
  let per k ops = Float.max 0.0 (time.(k) -. time.(3)) *. 1e9 /. ops in
  let msgs_per k ops = float_of_int (msgs.(k) - msgs.(3)) /. ops in
  [
    ("read_miss_ns", per 0 reads);
    ("read_hit_ns", per 1 reads);
    ("write_ns", per 2 writes);
    ("read_miss_msgs", msgs_per 0 reads);
    ("write_msgs", msgs_per 2 writes);
  ]

(* Every microbench metric. [ops] scales the operation counts (10^4 in the
   smoke run); the DSM microtrace runs [rounds] rounds. *)
let all ~reps ~ops ~rounds =
  let eq64, eq_w = repeat reps (event_queue ~depth:64 ~ops:(20 * ops)) in
  let eq32k, _ = repeat reps (event_queue ~depth:32768 ~ops:(20 * ops)) in
  let sim_ns, sim_w = repeat reps (sim_events ~ops:(10 * ops)) in
  let send64, send_w = repeat reps (network_send ~chains:64 ~ops:(2 * ops)) in
  let send16k, _ =
    repeat reps (network_send ~chains:(min 16384 (2 * ops)) ~ops:(4 * ops))
  in
  let block, _ = repeat reps (fiber_block ~ops:(2 * ops)) in
  let dsm =
    List.concat_map
      (fun name ->
        match Registry.find name with
        | None -> []
        | Some spec ->
            let runs = List.init reps (fun _ -> dsm_trace spec ~rounds ()) in
            List.map
              (fun (k, _) ->
                ( Printf.sprintf "dsm.%s.%s" name k,
                  Results.median (List.map (List.assoc k) runs) ))
              (List.hd runs))
      Results.strategies
  in
  [
    ("event_queue.op_ns_d64", eq64);
    ("event_queue.op_ns_d32k", eq32k);
    ("event_queue.words_per_op", eq_w);
    ("sim.event_ns", sim_ns);
    ("sim.words_per_event", sim_w);
    ("network.send_ns_64", send64);
    ("network.send_ns_16k", send16k);
    ("network.words_per_msg", send_w);
    ("network.fiber_block_ns", block);
  ]
  @ dsm
