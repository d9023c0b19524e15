module Network = Diva_simnet.Network
module Dsm = Diva_core.Dsm
module Trace = Diva_obs.Trace
module Streaming = Diva_obs.Streaming
module Runner = Diva_harness.Runner

type mode = Closed_loop | Open_loop

let mode_name = function Closed_loop -> "closed-loop" | Open_loop -> "open-loop"

type t = { dims : int array; seed : int; events : Trace.event list }

let replayed = function Trace.Var_decl _ | Trace.Dsm_access _ -> true | _ -> false

let of_events ~dims ~seed events =
  { dims = Array.copy dims; seed; events = List.filter replayed events }

let num_procs t = Array.fold_left ( * ) 1 t.dims

let num_ops t =
  List.fold_left
    (fun n e -> match e with Trace.Dsm_access _ -> n + 1 | _ -> n)
    0 t.events

(* Everything [run] relies on, so a damaged trace is an [Error], not an
   exception halfway through a simulation. Variables are all created
   before the run starts, so an access may precede its declaration. *)
let check t =
  let procs = num_procs t in
  let declared = Hashtbl.create 64 in
  List.iter
    (function
      | Trace.Var_decl { var; _ } -> Hashtbl.replace declared var ()
      | _ -> ())
    t.events;
  let rec go = function
    | [] -> Ok ()
    | Trace.Var_decl { var; owner; size; _ } :: rest ->
        if owner < 0 || owner >= procs then
          Error
            (Printf.sprintf
               "variable %d has owner %d outside the %d-processor mesh" var
               owner procs)
        else if size < 0 then
          Error (Printf.sprintf "variable %d has negative size %d" var size)
        else go rest
    | Trace.Dsm_access { node; op; var; _ } :: rest ->
        if node < 0 || node >= procs then
          Error
            (Printf.sprintf "operation on processor %d outside the %d-processor mesh"
               node procs)
        else if
          (match op with
          | Trace.Read | Trace.Write | Trace.Lock | Trace.Unlock -> true
          | Trace.Barrier | Trace.Reduce -> false)
          && not (Hashtbl.mem declared var)
        then
          Error
            (Printf.sprintf "%s of undeclared variable %d"
               (Diva_obs.Analysis.op_name op) var)
        else go rest
    | _ :: rest -> go rest
  in
  if Array.exists (fun d -> d < 1) t.dims then
    Error "mesh dimensions must be positive"
  else go t.events

let read path =
  let kept = ref [] in
  Result.bind
    (Streaming.iter_file path ~f:(fun e ->
         if replayed e then kept := e :: !kept))
    (fun (h : Streaming.header) ->
      let t =
        { dims = h.Streaming.h_dims; seed = h.Streaming.h_seed;
          events = List.rev !kept }
      in
      Result.map
        (fun () -> t)
        (Result.map_error (fun e -> Printf.sprintf "%s: %s" path e) (check t)))

(* One recorded operation, with the gap before it: issue time minus the
   previous op's completion on the same processor (0 before the first op
   — closed loop from the start). *)
type op = { proc : int; op : Trace.dsm_op; var : int; size : int; gap : float }

let program_ops t =
  let prev_end = Hashtbl.create 64 in
  List.filter_map
    (function
      | Trace.Dsm_access { node; op; var; size; ts; dur; _ } ->
          let last = Option.value ~default:ts (Hashtbl.find_opt prev_end node) in
          Hashtbl.replace prev_end node (ts +. dur);
          Some { proc = node; op; var; size; gap = Float.max 0.0 (ts -. last) }
      | _ -> None)
    t.events

let run ?(obs = Runner.null_obs) ?on_net ?seed ?(mode = Closed_loop) ~strategy t =
  (match check t with Ok () -> () | Error e -> invalid_arg ("Replay.run: " ^ e));
  let procs = num_procs t in
  let seed = Option.value ~default:t.seed seed in
  let net = Network.create_nd ~seed ~dims:t.dims () in
  Runner.install_obs net obs;
  let dsm = Dsm.create net ~strategy () in
  (* Recreate every variable up front, in recorded id order. Creation is
     free in the simulated cost model, so early creation does not perturb
     replay even for traces of applications that allocated dynamically. *)
  let decls =
    List.stable_sort
      (fun (a, _, _, _) (b, _, _, _) -> compare a b)
      (List.filter_map
         (function
           | Trace.Var_decl { var; var_name; size; owner; _ } ->
               Some (var, var_name, size, owner)
           | _ -> None)
         t.events)
  in
  let vars = Hashtbl.create (List.length decls) in
  List.iter
    (fun (var, name, size, owner) ->
      Hashtbl.replace vars var (Dsm.create_var dsm ~name ~owner ~size 0))
    decls;
  let ops = program_ops t in
  (* One reducer per recorded wire size, created in deterministic order. *)
  let reducers = Hashtbl.create 4 in
  List.iter
    (fun size ->
      Hashtbl.replace reducers size
        (Dsm.reducer dsm ~combine:(fun a _ -> (a : int)) ~size))
    (List.sort_uniq compare
       (List.filter_map
          (fun o -> if o.op = Trace.Reduce then Some o.size else None)
          ops));
  (* Partition into per-processor programs, preserving order. *)
  let programs = Array.make procs [] in
  List.iter (fun o -> programs.(o.proc) <- o :: programs.(o.proc)) ops;
  Array.iteri (fun p ops -> programs.(p) <- List.rev ops) programs;
  let samples = Array.make (max 1 (List.length ops)) 0.0 in
  let n_samples = ref 0 in
  let fiber p =
    List.iter
      (fun o ->
        (match mode with
        | Open_loop when o.gap > 0.0 -> Network.compute net p o.gap
        | _ -> ());
        let t0 = Network.now net in
        (match o.op with
        | Trace.Read -> ignore (Dsm.read dsm p (Hashtbl.find vars o.var) : int)
        | Trace.Write -> Dsm.write dsm p (Hashtbl.find vars o.var) 0
        | Trace.Lock -> Dsm.lock dsm p (Hashtbl.find vars o.var)
        | Trace.Unlock -> Dsm.unlock dsm p (Hashtbl.find vars o.var)
        | Trace.Barrier -> Dsm.barrier dsm p
        | Trace.Reduce ->
            ignore (Dsm.reduce dsm p (Hashtbl.find reducers o.size) 0 : int));
        (* Latency is reported over data operations only, matching the
           synthetic generator, so replay and generation are comparable. *)
        match o.op with
        | Trace.Read | Trace.Write ->
            samples.(!n_samples) <- Network.now net -. t0;
            incr n_samples
        | _ -> ())
      programs.(p)
  in
  for p = 0 to procs - 1 do
    Network.spawn net p (fun () -> fiber p)
  done;
  Runner.finish ?on_net ~obs net;
  let m = Runner.collect net (Some dsm) in
  {
    Generator.measurements = m;
    latency =
      Latency.of_samples ~duration_us:m.Runner.time
        (Array.sub samples 0 !n_samples);
  }
