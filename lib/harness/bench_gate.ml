module Json = Diva_obs.Json

(* Regression gate over BENCH_diva.json-style documents: walk baseline and
   current in lockstep, compare every numeric leaf under a per-metric
   relative tolerance with a direction (more congestion is bad, fewer cache
   hits is bad), and fail on structural drift — a metric that disappears is
   as suspicious as one that regresses, and a new one means the committed
   baseline must be regenerated in the same change. *)

type status = Pass | Regressed | Improved | Missing | Extra | Mismatch

type verdict = {
  v_path : string;
  v_status : status;
  v_detail : string;
}

let status_name = function
  | Pass -> "pass"
  | Regressed -> "REGRESSED"
  | Improved -> "improved"
  | Missing -> "MISSING"
  | Extra -> "EXTRA"
  | Mismatch -> "MISMATCH"

let is_failure = function
  | Regressed | Missing | Extra | Mismatch -> true
  | Pass | Improved -> false

(* Which way is worse, by metric name (the leaf key). *)
type direction = Higher_bad | Lower_bad | Exact

let direction metric =
  match metric with
  | "dsm_read_hits" | "ops_per_sim_sec" | "goodput_per_s"
  | "completed_in_horizon" ->
      Lower_bad
  | "dsm_reads" | "ops" | "arrivals" | "completions" | "requests"
  | "offered_per_s" | "events" ->
      Exact
  | _ -> Higher_bad

(* Deterministic simulation: identical code gives identical numbers, so
   tolerances only absorb intentional small shifts between PRs. Latency
   tails jitter more than means under scheduling changes. *)
let default_tolerance = 0.10

let default_tolerances =
  [
    ("time_us", 0.10);
    ("max_compute_us", 0.10);
    ("congestion_msgs", 0.10);
    ("congestion_bytes", 0.10);
    ("total_msgs", 0.10);
    ("total_bytes", 0.10);
    ("startups", 0.10);
    ("evictions", 0.10);
    ("dsm_reads", 0.0);
    ("dsm_read_hits", 0.05);
    ("ops", 0.0);
    ("ops_per_sim_sec", 0.10);
    ("lat_mean_us", 0.10);
    ("lat_p50_us", 0.10);
    ("lat_p95_us", 0.15);
    ("lat_p99_us", 0.20);
    ("lat_p999_us", 0.25);
    ("lat_max_us", 0.25);
    (* Service scenario: the arrival side (arrivals, offered load, request
       counts) is fixed by the seed alone, so it gates exactly; the service
       side (goodput, queue depths, makespan) moves with perf changes. *)
    ("arrivals", 0.0);
    ("completions", 0.0);
    ("requests", 0.0);
    ("offered_per_s", 0.0);
    ("goodput_per_s", 0.10);
    ("completed_in_horizon", 0.10);
    ("queue_hwm", 0.25);
    ("makespan_us", 0.10);
    (* The event count is deterministic, like dsm_reads: an accidental
       protocol change shows up as a count shift. *)
    ("events", 0.0);
  ]

let number = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float f -> Some f
  | _ -> None

let compare_docs ?(tolerances = default_tolerances) ~baseline ~current () =
  let verdicts = ref [] in
  let push v = verdicts := v :: !verdicts in
  let tol metric =
    match List.assoc_opt metric tolerances with
    | Some t -> t
    | None -> default_tolerance
  in
  let leaf path metric base cur =
    let t = tol metric in
    let rel =
      if base = 0.0 then if cur = 0.0 then 0.0 else Float.infinity
      else (cur -. base) /. Float.abs base
    in
    let status =
      match direction metric with
      | Higher_bad ->
          if rel > t then Regressed
          else if rel < -.t then Improved
          else Pass
      | Lower_bad ->
          if rel < -.t then Regressed
          else if rel > t then Improved
          else Pass
      | Exact -> if Float.abs rel > t then Regressed else Pass
    in
    push
      {
        v_path = path;
        v_status = status;
        v_detail =
          Printf.sprintf "baseline %g, current %g (%+.1f%%, tolerance %.0f%%)"
            base cur (100.0 *. rel) (100.0 *. t);
      }
  in
  let rec walk path base cur =
    match (base, cur) with
    | Json.Obj bs, Json.Obj cs ->
        List.iter
          (fun (k, bv) ->
            let p = if path = "" then k else path ^ "/" ^ k in
            match List.assoc_opt k cs with
            | Some cv -> walk p bv cv
            | None ->
                push
                  { v_path = p; v_status = Missing;
                    v_detail = "present in baseline, absent in current run" })
          bs;
        List.iter
          (fun (k, _) ->
            if not (List.mem_assoc k bs) then
              let p = if path = "" then k else path ^ "/" ^ k in
              push
                { v_path = p; v_status = Extra;
                  v_detail =
                    "absent in baseline: regenerate the committed baseline" })
          cs
    | bv, cv -> (
        match (number bv, number cv) with
        | Some b, Some c ->
            let metric =
              match String.rindex_opt path '/' with
              | Some i -> String.sub path (i + 1) (String.length path - i - 1)
              | None -> path
            in
            leaf path metric b c
        | _ ->
            if bv = cv then
              push { v_path = path; v_status = Pass; v_detail = "equal" }
            else
              push
                { v_path = path; v_status = Mismatch;
                  v_detail = "baseline and current values have different shapes" }
        )
  in
  walk "" baseline current;
  List.rev !verdicts

let failures vs = List.filter (fun v -> is_failure v.v_status) vs

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load path =
  match Json.of_string (read_file path) with
  | Ok doc -> Ok doc
  | Error e -> Error (Printf.sprintf "cannot parse %s: %s" path e)
  | exception Sys_error e -> Error e

let render vs =
  let b = Buffer.create 1024 in
  let count s = List.length (List.filter (fun v -> v.v_status = s) vs) in
  List.iter
    (fun v ->
      if v.v_status <> Pass then
        Buffer.add_string b
          (Printf.sprintf "%-10s %s: %s\n" (status_name v.v_status) v.v_path
             v.v_detail))
    vs;
  Buffer.add_string b
    (Printf.sprintf
       "checked %d metrics: %d pass, %d improved, %d regressed, %d missing, %d extra, %d mismatched\n"
       (List.length vs) (count Pass) (count Improved) (count Regressed)
       (count Missing) (count Extra) (count Mismatch));
  Buffer.contents b
