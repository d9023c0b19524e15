module Runner = Diva_harness.Runner
module Engine = Diva_service.Engine
module Slo = Diva_service.Slo
module Table = Diva_util.Table
module Json = Diva_obs.Json

type row = {
  sw_rate : float;
  sw_offered : float;
  sw_goodput : float;
  sw_ratio : float;
  sw_latency : Slo.t;
  sw_qmax : int;
  sw_makespan : float;
  sw_diverged : bool;
}

type t = {
  sv_strategy : string;
  sv_threshold : float;
  sv_rows : row list;
  sv_knee : float option;
}

let default_threshold = 0.95

let cells ~rates (base : Run_spec.t) =
  if rates = [] then invalid_arg "Sweep.cells: empty rate list";
  match base.Run_spec.app with
  | Run_spec.Serve s ->
      List.map
        (fun rate ->
          { base with
            Run_spec.app =
              Run_spec.Serve
                { s with spec = { s.spec with Diva_service.Spec.rate } } })
        (List.sort_uniq compare rates)
  | _ -> invalid_arg "Sweep.cells: not a serve run"

let of_runs ?(threshold = default_threshold) measured cells =
  let row (cell : Run_spec.t) =
    match (cell.Run_spec.app, (measured cell).Run_spec.result) with
    | Run_spec.Serve { spec; _ }, Run_spec.Served r ->
        let ratio =
          if r.Engine.offered_per_s <= 0.0 then 1.0
          else r.Engine.goodput_per_s /. r.Engine.offered_per_s
        in
        {
          sw_rate = spec.Diva_service.Spec.rate;
          sw_offered = r.Engine.offered_per_s;
          sw_goodput = r.Engine.goodput_per_s;
          sw_ratio = ratio;
          sw_latency = r.Engine.slo;
          sw_qmax = Engine.max_queue_hwm r;
          sw_makespan = r.Engine.makespan_us;
          sw_diverged = ratio < threshold;
        }
    | _ -> invalid_arg "Sweep.of_runs: not a serve run"
  in
  let rows = List.map row cells in
  (* The knee: the highest stepped load the strategy still sustains —
     i.e. the last ascending point whose achieved/offered ratio holds the
     threshold. Every row past it carries the divergence flag. *)
  let knee =
    List.fold_left
      (fun acc row -> if row.sw_diverged then acc else Some row.sw_rate)
      None rows
  in
  { sv_strategy = Runner.name (List.hd cells).Run_spec.strategy;
    sv_threshold = threshold; sv_rows = rows; sv_knee = knee }

let row_json r =
  let open Json in
  Obj
    [
      ("rate_per_s", Float r.sw_rate);
      ("offered_per_s", Float r.sw_offered);
      ("goodput_per_s", Float r.sw_goodput);
      ("achieved_ratio", Float r.sw_ratio);
      ("lat_p50_us", Float r.sw_latency.Slo.p50_us);
      ("lat_p99_us", Float r.sw_latency.Slo.p99_us);
      ( "lat_p999_us",
        match r.sw_latency.Slo.p999_us with Some v -> Float v | None -> Null );
      ("queue_hwm", Int r.sw_qmax);
      ("makespan_us", Float r.sw_makespan);
      ("diverged", Bool r.sw_diverged);
    ]

let sweep_json t =
  let open Json in
  Obj
    [
      ("strategy", String t.sv_strategy);
      ("threshold", Float t.sv_threshold);
      ( "knee_rate_per_s",
        match t.sv_knee with Some r -> Float r | None -> Null );
      ("rows", List (List.map row_json t.sv_rows));
    ]

let to_json ~params sweeps =
  let open Json in
  Obj
    [
      ("schema", String "diva-service-sweep/1");
      ("params", Obj params);
      ("sweeps", List (List.map sweep_json sweeps));
    ]

let render t =
  let tbl =
    Table.create
      ~header:
        [ "rate/s"; "offered/s"; "goodput/s"; "ratio"; "p50(us)"; "p99(us)";
          "p999(us)"; "qmax"; "makespan(s)"; "sat" ]
  in
  List.iter
    (fun r ->
      Table.add_row tbl
        [
          Printf.sprintf "%.0f" r.sw_rate;
          Printf.sprintf "%.0f" r.sw_offered;
          Printf.sprintf "%.0f" r.sw_goodput;
          Printf.sprintf "%.3f" r.sw_ratio;
          Table.fstr r.sw_latency.Slo.p50_us;
          Table.fstr r.sw_latency.Slo.p99_us;
          (match r.sw_latency.Slo.p999_us with
          | Some v -> Table.fstr v
          | None -> "n/a");
          string_of_int r.sw_qmax;
          Table.fstr (r.sw_makespan /. 1e6);
          (if r.sw_diverged then "*" else "");
        ])
    t.sv_rows;
  Printf.sprintf "-- %s --\n%s%s\n" t.sv_strategy (Table.render tbl)
    (match t.sv_knee with
    | Some rate ->
        Printf.sprintf "knee: %.0f req/s (last load with goodput/offered >= \
                        %.2f; * = diverged past it)"
          rate t.sv_threshold
    | None ->
        Printf.sprintf
          "knee: none — even the lowest load diverges (goodput/offered < \
           %.2f everywhere)"
          t.sv_threshold)
