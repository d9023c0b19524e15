module Heap = Diva_util.Event_queue
module Prof = Diva_obs.Prof

(* An event is a function and its argument, kept in the queue's own two
   value columns, so scheduling allocates nothing beyond the boxed time:
   hot schedule sites (message delivery in [Network]) pass one
   statically-allocated function plus the value it acts on, and a thunk
   is the function applied to [()]. The argument's type differs from
   event to event, so the columns hold it as [Obj.t]; the two
   [schedule_call] functions are the only places that forget it, each for
   a function that takes exactly that value. *)
type event_fn = Obj.t -> unit

type t = {
  queue : (event_fn, Obj.t) Heap.t2;
  mutable clock : float;
  mutable executed : int;
  mutable advance_hook : (float -> float -> unit) option;
  mutable prof : Prof.t option;
}

let create () =
  {
    queue = Heap.create ();
    clock = 0.0;
    executed = 0;
    advance_hook = None;
    prof = None;
  }

(* Hooks only observe, so composition order is irrelevant; new hooks are
   prepended. Lets the metrics sampler, the profiler's window series and
   the flight recorder's health snapshots coexist on the one slot. *)
let add_advance_hook t f =
  match t.advance_hook with
  | None -> t.advance_hook <- Some f
  | Some g ->
      t.advance_hook <-
        Some
          (fun a b ->
            f a b;
            g a b)

let set_prof t p = t.prof <- Some p
let now t = t.clock

(* Written so that a NaN fails it: a NaN time would run at once and set
   the clock to NaN. *)
let check_future t at =
  if not (at >= t.clock -. 1e-9 && at < Float.infinity) then
    invalid_arg
      (if Float.is_finite at then
         Printf.sprintf "Sim.schedule: %.3f is in the past (now = %.3f)" at
           t.clock
       else Printf.sprintf "Sim.schedule: time %g is not finite" at)

let schedule_call_now t (f : 'a -> unit) (x : 'a) =
  Heap.insert2 t.queue t.clock (Obj.magic f : event_fn) (Obj.repr x)

let schedule_call t at f x =
  check_future t at;
  Heap.insert2 t.queue (Float.max at t.clock) (Obj.magic f : event_fn) (Obj.repr x)

let schedule t at f = schedule_call t at f ()
let schedule_now t f = schedule_call_now t f ()

(* With a profiler attached, the loop adds one word store per transition
   so the SIGPROF sampler can attribute its hits. Queue work (pop, hook,
   clock) books to [Event_loop]; the event body itself books to
   [Dispatch] until a deeper layer (network dispatch, protocol handler,
   strategy callback) refines the attribution. Without one, the only cost
   is a test of an immutable local per event. *)
let run t =
  let prof = t.prof in
  (match prof with Some p -> Prof.set_sub p Prof.Event_loop | None -> ());
  while not (Heap.is_empty t.queue) do
    let at = Heap.min_priority_exn t.queue in
    let x = Heap.min_snd_exn t.queue in
    let f = Heap.pop_exn t.queue in
    (match t.advance_hook with
    | Some h when at > t.clock -> h t.clock at
    | _ -> ());
    t.clock <- at;
    t.executed <- t.executed + 1;
    match prof with
    | None -> f x
    | Some p ->
        Prof.set_sub p Prof.Dispatch;
        f x;
        (* Deeper layers may have refined the attribution; the
           loop-trailing store doubles as the loop-top one for the next
           iteration. *)
        Prof.set_sub p Prof.Event_loop
  done;
  match prof with Some p -> Prof.set_sub p Prof.Host | None -> ()

let events_executed t = t.executed
let pending t = Heap.size t.queue
