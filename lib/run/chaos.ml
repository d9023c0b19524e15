module Schedule = Diva_faults.Schedule
module Faults = Diva_faults.Faults
module Dsm = Diva_core.Dsm
module Runner = Diva_harness.Runner
module Json = Diva_obs.Json
module Mesh = Diva_mesh.Mesh
module Flight = Diva_obs.Flight
module Oracle = Diva_workload.Oracle
module Workload_spec = Diva_workload.Spec

type config = {
  dims : int array;
  schedules : int;
  seed : int;
  ops : int;
  num_vars : int;
  lock_every : int;
  read_ratio : float;
  verify_determinism : bool;
  strategies : (string * Dsm.strategy) list;
}

type outcome = {
  index : int;
  schedule : Schedule.t;
  strategy : string;
  time : float;
  ops_checked : int;
  lost : int;
  retransmits : int;
  reissues : int;
  oracle_error : string option;
  deterministic : bool option;
}

(* Everything one run exposes that a deterministic re-run must reproduce:
   the paper's measurements, the fault counters (lost, retransmits,
   reissues) and the oracle's op count and verdict. *)
type run = {
  measurements : Runner.measurements;
  counters : int * int * int;
  ops : int;
  oracle : (unit, string) result;
}

(* Campaign recorders are created with [~dump_on_watchdog:false]: watchdog
   trips are routine under injected faults; the oracle is the failure
   signal here. *)
let evaluate ?flight cell =
  let oracle = Oracle.create () in
  match Run_spec.measure ~oracle ?flight cell with
  | Error e -> invalid_arg ("Chaos.run: " ^ e)
  | Ok m ->
      let verdict = Oracle.check oracle in
      Option.iter
        (fun fl ->
          Flight.dump_on_error fl ~label:"chaos oracle violation" verdict)
        flight;
      let counters =
        Option.fold ~none:(0, 0, 0)
          ~some:(fun f ->
            (Faults.lost_total f, Faults.retransmits f, Faults.dsm_reissues f))
          m.Run_spec.faults
      in
      { measurements = m.Run_spec.measurements; counters;
        ops = Oracle.ops oracle; oracle = verdict }

let progress_line o =
  Printf.sprintf
    "schedule %2d [%s] x %-10s  %5d ops  %3d lost  %4d retx  oracle %s%s"
    o.index (Schedule.describe o.schedule) o.strategy o.ops_checked o.lost
    o.retransmits
    (match o.oracle_error with None -> "ok" | Some _ -> "VIOLATION")
    (match o.deterministic with
    | Some true -> ", deterministic"
    | Some false -> ", NON-DETERMINISTIC"
    | None -> "")

let run ?(progress = fun _ -> ()) ?(domains = 1) ?flight cfg =
  if cfg.schedules <= 0 then
    invalid_arg "Chaos.run: schedule count must be positive";
  if cfg.strategies = [] then
    invalid_arg "Chaos.run: strategy list must be non-empty";
  let mesh = Mesh.create_nd ~dims:cfg.dims in
  let num_nodes = Mesh.num_nodes mesh and num_links = Mesh.num_links mesh in
  let workload =
    Run_spec.Workload
      (Workload_spec.make ~num_vars:cfg.num_vars ~lock_every:cfg.lock_every
         ~phases:[ Workload_spec.phase ~read_ratio:cfg.read_ratio cfg.ops ]
         ~seed:cfg.seed ())
  in
  (* (schedule index, strategy name, cell) *)
  let cases =
    List.concat_map
      (fun i ->
        let faults =
          Schedule.generate ~seed:(cfg.seed + i) ~num_nodes ~num_links ()
        in
        List.map
          (fun (name, s) ->
            ( i, name,
              { Run_spec.app = workload; dims = cfg.dims;
                strategy = Runner.Strategy s; seed = cfg.seed; faults } ))
          cfg.strategies)
      (List.init cfg.schedules Fun.id)
  in
  let extract cell =
    if cfg.verify_determinism then
      let r, same = Run_spec.repeatable (evaluate ?flight) cell in
      (r, Some same)
    else (evaluate ?flight cell, None)
  in
  (* A shared flight recorder is not domain-safe; record serially. *)
  let domains = if flight = None then domains else 1 in
  let outcomes =
    List.map2
      (fun (index, strategy, (cell : Run_spec.t)) (r, deterministic) ->
        let lost, retransmits, reissues = r.counters in
        { index; schedule = cell.Run_spec.faults; strategy;
          time = r.measurements.Runner.time;
          ops_checked = r.ops; lost; retransmits; reissues;
          oracle_error =
            (match r.oracle with Ok () -> None | Error e -> Some e);
          deterministic })
      cases
      (Run_spec.campaign ~domains extract
         (List.map (fun (_, _, cell) -> cell) cases))
  in
  List.iter (fun o -> progress (progress_line o)) outcomes;
  outcomes

let passed outcomes =
  List.for_all
    (fun o -> o.oracle_error = None && o.deterministic <> Some false)
    outcomes

let manifest cfg outcomes =
  Json.Obj
    [
      ("format", Json.String "diva-chaos");
      ("version", Json.Int 2);
      ( "dims",
        Json.List (Array.to_list (Array.map (fun d -> Json.Int d) cfg.dims)) );
      ("seed", Json.Int cfg.seed);
      ("schedules", Json.Int cfg.schedules);
      ("ops_per_proc", Json.Int cfg.ops);
      ("num_vars", Json.Int cfg.num_vars);
      ("lock_every", Json.Int cfg.lock_every);
      ("read_ratio", Json.Float cfg.read_ratio);
      ( "strategies",
        Json.List
          (List.map (fun (n, _) -> Json.String n) cfg.strategies) );
      ("passed", Json.Bool (passed outcomes));
      ( "runs",
        Json.List
          (List.map
             (fun o ->
               Json.Obj
                 [
                   ("schedule_index", Json.Int o.index);
                   ("strategy", Json.String o.strategy);
                   ("time_us", Json.Float o.time);
                   ("ops_checked", Json.Int o.ops_checked);
                   ("lost", Json.Int o.lost);
                   ("retransmits", Json.Int o.retransmits);
                   ("dsm_reissues", Json.Int o.reissues);
                   ( "oracle",
                     match o.oracle_error with
                     | None -> Json.String "ok"
                     | Some e -> Json.String e );
                   ( "deterministic",
                     match o.deterministic with
                     | None -> Json.Null
                     | Some b -> Json.Bool b );
                   ("schedule", Schedule.to_json o.schedule);
                 ])
             outcomes) );
    ]
