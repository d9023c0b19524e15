module Heap = Diva_util.Event_queue
module Prof = Diva_obs.Prof

(* An event is either a plain thunk or a packed (function, argument) pair.
   The packed form lets hot schedule sites (message delivery in [Network])
   pass one statically-allocated function plus a small argument record
   instead of building a fresh closure chain per event: the closure's
   environment becomes an explicit record the caller can size exactly. *)
type event = Fn of (unit -> unit) | Call : ('a -> unit) * 'a -> event

type t = {
  queue : event Heap.t;
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

let set_advance_hook t f = t.advance_hook <- Some f

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

let schedule t at f =
  check_future t at;
  Heap.insert t.queue (Float.max at t.clock) (Fn f)

let schedule_now t f = Heap.insert t.queue t.clock (Fn f)

let schedule_call t at f x =
  check_future t at;
  Heap.insert t.queue (Float.max at t.clock) (Call (f, x))

let schedule_call_now t f x = Heap.insert t.queue t.clock (Call (f, x))

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
    let ev = Heap.pop_exn t.queue in
    (match t.advance_hook with
    | Some h when at > t.clock -> h t.clock at
    | _ -> ());
    t.clock <- at;
    t.executed <- t.executed + 1;
    match prof with
    | None -> ( match ev with Fn f -> f () | Call (f, x) -> f x)
    | Some p ->
        Prof.set_sub p Prof.Dispatch;
        (match ev with Fn f -> f () | Call (f, x) -> f x);
        (* Deeper layers may have refined the attribution; the
           loop-trailing store doubles as the loop-top one for the next
           iteration. *)
        Prof.set_sub p Prof.Event_loop
  done;
  match prof with Some p -> Prof.set_sub p Prof.Host | None -> ()

let events_executed t = t.executed
let pending t = Heap.size t.queue
