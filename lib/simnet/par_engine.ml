(* Conservative, windowed, domain-sharded discrete-event engine.

   The model is partitioned into a FIXED number of logical shards chosen by
   the model builder (e.g. one per mesh row), independent of how many
   domains execute them — that independence is what makes results
   bit-identical for every domain count. Each shard owns a serial event
   queue and clock. Cross-shard interactions must respect a minimum
   latency, the [lookahead]: an event posted from shard A at time [t] into
   shard B carries a timestamp [>= t + lookahead].

   Execution proceeds in global time windows of width [lookahead]. The
   window [w, w + lookahead) starts at the global minimum pending
   timestamp [w], so gaps in the timeline are skipped in one hop. Within a
   window every shard processes its local events with [t < w + lookahead]
   strictly in (time, seq) order; any event those executions post across
   shards lands at [t' >= t + lookahead >= w + lookahead], i.e. beyond the
   window, so no shard can receive work for a window it is currently
   executing — the classical conservative-synchronization argument, with
   the window doubling as the barrier period.

   Cross-shard posts are buffered in per-(src, dst) outboxes. A source's
   first post into an empty outbox also sets the source's byte in the
   destination's [s_posted] row. At the barrier after each window, every
   shard scans its own row and drains only the flagged outboxes, in
   ascending source-shard order, each in FIFO order, into its local queue:
   the same order as visiting every source, without reading the queue
   headers other domains write. Both the drain order and the serial
   in-window execution are functions of shard state alone, never of the
   domain layout or of OS scheduling, so a run with [--domains 8] produces
   byte-identical results to [--domains 1]. Domains only decide which OS
   thread happens to execute a given shard's (deterministic) work.

   The barrier is crossed twice per window: once so every outbox is
   complete before drains begin, once so every drain is complete before
   the next window's execution (the last domain to arrive at the second
   crossing also computes the next window start, or signals termination
   when all queues are empty). A waiting domain spins on the barrier's
   phase counter for [spin_budget] iterations before it blocks on a
   condition variable: a futex wake-up costs more than the imbalance of a
   typical window. The engine spins only when it runs no more domains than
   [Domain.recommended_domain_count ()]; an oversubscribed domain would
   spin away the time slice of the domain it is waiting for. For the same
   reason a domain whose spins keep running out backs off to blocking
   (see [cross]). *)

module Heap = Diva_util.Event_queue

type 'a shard = {
  s_id : int;
  s_queue : 'a Heap.t;
  mutable s_clock : float;
  mutable s_executed : int;
  s_outboxes : (float * 'a) Queue.t array; (* indexed by destination shard *)
  s_posted : Bytes.t;
      (* indexed by source shard: nonzero iff that source's outbox to this
         shard is nonempty *)
}

type 'a t = {
  shards : 'a shard array;
  lookahead : float;
}

type 'a ctx = { c_eng : 'a t; c_shard : 'a shard }

let create ~shards ~lookahead =
  if shards < 1 then invalid_arg "Par_engine.create: shards must be >= 1";
  if not (lookahead > 0.0) then
    invalid_arg "Par_engine.create: lookahead must be > 0";
  {
    shards =
      Array.init shards (fun i ->
          {
            s_id = i;
            s_queue = Heap.create ();
            s_clock = 0.0;
            s_executed = 0;
            s_outboxes = Array.init shards (fun _ -> Queue.create ());
            s_posted = Bytes.make shards '\000';
          });
    lookahead;
  }

let num_shards t = Array.length t.shards

let schedule_init t ~shard ~at msg =
  if shard < 0 || shard >= Array.length t.shards then
    invalid_arg "Par_engine.schedule_init: bad shard";
  if not (at >= 0.0 && at < Float.infinity) then
    invalid_arg "Par_engine.schedule_init: bad time";
  Heap.insert t.shards.(shard).s_queue at msg

let events_executed t =
  Array.fold_left (fun acc s -> acc + s.s_executed) 0 t.shards

let ctx_shard c = c.c_shard.s_id
let ctx_now c = c.c_shard.s_clock

(* Both checks are written so that a NaN fails them. *)
let ctx_schedule c ~at msg =
  if not (at >= c.c_shard.s_clock && at < Float.infinity) then
    invalid_arg "Par_engine.ctx_schedule: time is in the past or not finite";
  Heap.insert c.c_shard.s_queue at msg

let ctx_post c ~dst ~at msg =
  if dst < 0 || dst >= num_shards c.c_eng then
    invalid_arg "Par_engine.ctx_post: bad destination shard"
  else if dst = c.c_shard.s_id then ctx_schedule c ~at msg
  else if
    not (at >= c.c_shard.s_clock +. c.c_eng.lookahead && at < Float.infinity)
  then
    invalid_arg
      "Par_engine.ctx_post: cross-shard event closer than the lookahead or \
       not finite"
  else begin
    let src = c.c_shard in
    let ob = src.s_outboxes.(dst) in
    if Queue.is_empty ob then
      Bytes.unsafe_set c.c_eng.shards.(dst).s_posted src.s_id '\001';
    Queue.push (at, msg) ob
  end

(* ------------------------------------------------------------------ *)

(* Phase barrier. [cross b w f] returns once all parties have arrived;
   the LAST arriver runs [f ()] before releasing everyone, alone, since
   every other party is waiting — that is where the global reduction for
   the next window lives. The atomic phase counter publishes [f]'s writes
   to the waiters. A waiter spins on the phase for [b_spin] iterations,
   then sleeps on the condition variable; the releaser bumps the phase
   under the mutex, so a waiter that has checked the phase under the
   mutex cannot miss the broadcast.

   Spinning pays only while the parties run on different cores. When the
   OS has put a woken domain on the core of the domain that woke it, the
   spinner holds the core its partner needs, and every spin runs out: on
   a 2-vCPU VM a 16x16 traffic run at 2 domains, started after a few idle
   seconds, took 1.2 s instead of 0.06 s. So each waiter [w] backs off:
   after a spin runs out it skips spinning for its next [w_backoff]
   crossings, a count that doubles with each consecutive run-out up to
   [max_backoff] and resets when a spin succeeds. *)
type barrier = {
  b_parties : int;
  b_spin : int;
  b_arrived : int Atomic.t;
  b_phase : int Atomic.t;
  b_mutex : Mutex.t;
  b_cond : Condition.t;
}

(* About 0.7 ms of [Domain.cpu_relax] on a 2-vCPU x86 VM: longer than most
   windows' imbalance, far shorter than a time slice. *)
let spin_budget = 20_000

let max_backoff = 1024

(* Owned by one domain. *)
type waiter = { mutable w_backoff : int; mutable w_skip : int }

let waiter () = { w_backoff = 0; w_skip = 0 }

let barrier_create parties =
  {
    b_parties = parties;
    b_spin =
      (if parties <= Domain.recommended_domain_count () then spin_budget
       else 0);
    b_arrived = Atomic.make 0;
    b_phase = Atomic.make 0;
    b_mutex = Mutex.create ();
    b_cond = Condition.create ();
  }

let cross b w f =
  (* No party can complete this phase before we arrive, so [phase] is
     the one we are waiting out. *)
  let phase = Atomic.get b.b_phase in
  if Atomic.fetch_and_add b.b_arrived 1 = b.b_parties - 1 then begin
    f ();
    Atomic.set b.b_arrived 0;
    Mutex.lock b.b_mutex;
    Atomic.set b.b_phase (phase + 1);
    Condition.broadcast b.b_cond;
    Mutex.unlock b.b_mutex
  end
  else begin
    let budget =
      if w.w_skip > 0 then begin
        w.w_skip <- w.w_skip - 1;
        0
      end
      else b.b_spin
    in
    let spins = ref budget in
    while !spins > 0 && Atomic.get b.b_phase = phase do
      Domain.cpu_relax ();
      decr spins
    done;
    if Atomic.get b.b_phase <> phase then begin
      if budget > 0 then w.w_backoff <- 0
    end
    else begin
      if budget > 0 then begin
        w.w_backoff <- min max_backoff (max 1 (2 * w.w_backoff));
        w.w_skip <- w.w_backoff
      end;
      Mutex.lock b.b_mutex;
      while Atomic.get b.b_phase = phase do
        Condition.wait b.b_cond b.b_mutex
      done;
      Mutex.unlock b.b_mutex
    end
  end

(* ------------------------------------------------------------------ *)

(* Per-domain wall-clock accounting, filled by [run ?telemetry]. All
   writes are either domain-local (each domain owns its [dom_stat]) or
   made by the barrier's last arriver while every other domain waits
   (window count), so recording needs no extra synchronization — and
   nothing in the model reads any of it, so a telemetered run stays
   byte-identical. *)
type dom_stat = {
  mutable d_busy_s : float;  (* executing events + draining outboxes *)
  mutable d_barrier_s : float;  (* waiting at the two window barriers *)
  mutable d_events : int;
}

type telemetry = {
  mutable tl_domains : int;
  mutable tl_windows : int;
  mutable tl_wall_s : float;
  mutable tl_doms : dom_stat array;
  mutable tl_shard_events : int array;
}

let telemetry_create () =
  {
    tl_domains = 0;
    tl_windows = 0;
    tl_wall_s = 0.0;
    tl_doms = [||];
    tl_shard_events = [||];
  }

let tl_stall_frac tl =
  let busy = Array.fold_left (fun a d -> a +. d.d_busy_s) 0.0 tl.tl_doms in
  let wait = Array.fold_left (fun a d -> a +. d.d_barrier_s) 0.0 tl.tl_doms in
  if busy +. wait > 0.0 then wait /. (busy +. wait) else 0.0

(* Max shard load over mean shard load: 1.0 is a perfectly balanced
   decomposition; the window occupancy of the busiest shard bounds every
   domain layout's speedup. *)
let tl_shard_imbalance tl =
  let n = Array.length tl.tl_shard_events in
  if n = 0 then 1.0
  else
    let total = Array.fold_left ( + ) 0 tl.tl_shard_events in
    if total = 0 then 1.0
    else
      let mx = Array.fold_left max 0 tl.tl_shard_events in
      float_of_int mx /. (float_of_int total /. float_of_int n)

let telemetry_json tl =
  let open Diva_obs.Json in
  Obj
    [
      ("domains", Int tl.tl_domains);
      ("windows", Int tl.tl_windows);
      ("wall_s", Float tl.tl_wall_s);
      ("stall_frac", Float (tl_stall_frac tl));
      ("shard_imbalance", Float (tl_shard_imbalance tl));
      ( "domains_detail",
        List
          (Array.to_list
             (Array.map
                (fun d ->
                  Obj
                    [
                      ("busy_s", Float d.d_busy_s);
                      ("barrier_s", Float d.d_barrier_s);
                      ("events", Int d.d_events);
                    ])
                tl.tl_doms)) );
      ( "shard_events",
        List
          (Array.to_list
             (Array.map (fun e -> Int e) tl.tl_shard_events)) );
    ]

let min_pending t =
  Array.fold_left
    (fun acc s ->
      if Heap.is_empty s.s_queue then acc
      else Float.min acc (Heap.min_priority_exn s.s_queue))
    Float.infinity t.shards

let run ?(domains = 1) ?telemetry t ~handler =
  let s = Array.length t.shards in
  let domains = max 1 (min domains s) in
  let run0 = match telemetry with Some _ -> Unix.gettimeofday () | None -> 0.0 in
  let doms =
    match telemetry with
    | None -> [||]
    | Some tl ->
        let d =
          Array.init domains (fun _ ->
              { d_busy_s = 0.0; d_barrier_s = 0.0; d_events = 0 })
        in
        tl.tl_domains <- domains;
        tl.tl_windows <- 0;
        tl.tl_doms <- d;
        d
  in
  (* Contiguous shard blocks per domain, first blocks one larger. *)
  let base = s / domains and extra = s mod domains in
  let lo d = (d * base) + min d extra in
  let hi d = lo (d + 1) in
  let barrier = barrier_create domains in
  let window_end = ref Float.infinity in
  let finished = ref false in
  (* First handler exception wins; the failing domain keeps crossing
     barriers (processing nothing) so nobody deadlocks, and the exception
     is re-raised on the calling domain after all joins. *)
  let error : exn option ref = ref None in
  let record e =
    Mutex.lock barrier.b_mutex;
    if !error = None then error := Some e;
    Mutex.unlock barrier.b_mutex
  in
  (let w0 = min_pending t in
   if w0 = Float.infinity then finished := true
   else window_end := w0 +. t.lookahead);
  let drain shard =
    let posted = shard.s_posted in
    for src = 0 to s - 1 do
      if Bytes.unsafe_get posted src <> '\000' then begin
        Bytes.unsafe_set posted src '\000';
        let ob = t.shards.(src).s_outboxes.(shard.s_id) in
        while not (Queue.is_empty ob) do
          let at, msg = Queue.pop ob in
          Heap.insert shard.s_queue at msg
        done
      end
    done
  in
  let exec_window d w_end =
    try
      for i = lo d to hi d - 1 do
        let shard = t.shards.(i) in
        let ctx = { c_eng = t; c_shard = shard } in
        let continue = ref true in
        while !continue do
          if Heap.is_empty shard.s_queue then continue := false
          else
            let at = Heap.min_priority_exn shard.s_queue in
            if at >= w_end then continue := false
            else begin
              let msg = Heap.pop_exn shard.s_queue in
              shard.s_clock <- at;
              shard.s_executed <- shard.s_executed + 1;
              handler ctx msg
            end
        done
      done
    with e -> record e
  in
  (* All drains are complete; the last domain picks the next window (and,
     under telemetry, counts it — every other domain is waiting here). *)
  let pick_next () =
    (match telemetry with
    | Some tl -> tl.tl_windows <- tl.tl_windows + 1
    | None -> ());
    if !error <> None then finished := true
    else
      let m = min_pending t in
      if m = Float.infinity then finished := true
      else window_end := Float.max (m +. t.lookahead) !window_end
  in
  (* Under telemetry each window reads the clock five times: busy time is
     event execution plus outbox drains, barrier time the two crossings.
     Without it the worker reads no clock. *)
  let timed = telemetry <> None in
  let clock () = if timed then Unix.gettimeofday () else 0.0 in
  let worker d () =
    let w = waiter () in
    while not !finished do
      let w_end = !window_end in
      let t0 = clock () in
      exec_window d w_end;
      let t1 = clock () in
      (* All outboxes for this window are complete. *)
      cross barrier w (fun () -> ());
      let t2 = clock () in
      for i = lo d to hi d - 1 do
        drain t.shards.(i)
      done;
      let t3 = clock () in
      cross barrier w pick_next;
      let t4 = clock () in
      if timed then begin
        let st = doms.(d) in
        st.d_busy_s <- st.d_busy_s +. (t1 -. t0) +. (t3 -. t2);
        st.d_barrier_s <- st.d_barrier_s +. (t2 -. t1) +. (t4 -. t3)
      end
    done
  in
  if domains = 1 then worker 0 ()
  else begin
    let spawned =
      List.init (domains - 1) (fun i -> Domain.spawn (worker (i + 1)))
    in
    worker 0 ();
    List.iter Domain.join spawned
  end;
  (match telemetry with
  | Some tl ->
      tl.tl_wall_s <- Unix.gettimeofday () -. run0;
      tl.tl_shard_events <- Array.map (fun sh -> sh.s_executed) t.shards;
      Array.iteri
        (fun d st ->
          let ev = ref 0 in
          for i = lo d to hi d - 1 do
            ev := !ev + t.shards.(i).s_executed
          done;
          st.d_events <- !ev)
        doms
  | None -> ());
  match !error with Some e -> raise e | None -> ()
