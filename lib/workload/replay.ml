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

let run ?(obs = Runner.null_obs) ?on_net ?oracle ?seed ?(mode = Closed_loop)
    ~strategy t =
  (match check t with Ok () -> () | Error e -> invalid_arg ("Replay.run: " ^ e));
  let ops = program_ops t in
  let setup ld =
    let net = Driver.net ld and dsm = Driver.dsm ld in
    (* Recreate every variable up front, in recorded id order. Creation is
       free in the simulated cost model, so early creation does not perturb
       replay even for traces of applications that allocated dynamically. *)
    let vars = Hashtbl.create 64 in
    List.iter
      (fun (var, name, size, owner) ->
        Hashtbl.replace vars var (Driver.var ld ~key:var ~name ~owner ~size))
      (List.stable_sort
         (fun (a, _, _, _) (b, _, _, _) -> compare a b)
         (List.filter_map
            (function
              | Trace.Var_decl { var; var_name; size; owner; _ } ->
                  Some (var, var_name, size, owner)
              | _ -> None)
            t.events));
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
    let programs = Array.make (num_procs t) [] in
    List.iter (fun o -> programs.(o.proc) <- o :: programs.(o.proc)) ops;
    Array.iteri (fun p ops -> programs.(p) <- List.rev ops) programs;
    fun p ->
      List.iter
        (fun o ->
          (match mode with
          | Open_loop when o.gap > 0.0 -> Network.compute net p o.gap
          | _ -> ());
          (* Only data operations are sampled, matching the synthetic
             generator, so replay and generation are comparable. *)
          match o.op with
          | Trace.Read | Trace.Write ->
              Driver.issue ld p ~key:o.var (Hashtbl.find vars o.var)
                ~t0:(Network.now net) ~read:(o.op = Trace.Read) ~value:0
          | Trace.Lock -> Dsm.lock dsm p (Hashtbl.find vars o.var)
          | Trace.Unlock -> Dsm.unlock dsm p (Hashtbl.find vars o.var)
          | Trace.Barrier -> Dsm.barrier dsm p
          | Trace.Reduce ->
              ignore (Dsm.reduce dsm p (Hashtbl.find reducers o.size) 0 : int))
        programs.(p)
  in
  let measurements, latency =
    Driver.run ~obs ~on_net ~oracle
      ~seed:(Option.value ~default:t.seed seed)
      ~dims:t.dims ~strategy ~capacity:(List.length ops) setup
  in
  { Generator.measurements; latency }
