(* Metric definitions, summaries, the versioned results artifact
   ("diva-benchmark/1") and the two-artifact comparison. *)

module Json = Diva_obs.Json

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)
(* ------------------------------------------------------------------ *)

(* The units the code produces. BENCHMARK.json must name the same metrics
   with the same units (checked by [load_spec]); it adds the direction
   and, for end-to-end metrics, the bound. Host metrics are read from the
   host clock or the OS and vary run to run; simulated ones are
   deterministic for a seed. *)
type clock = Host | Simulated

let end_to_end_units =
  [
    ("wall_s", "s", Host);
    ("setup_s", "s", Host);
    ("rss_peak_mb", "MB", Host);
    ("startups", "count", Simulated);
    ("sim_latency_us", "sim_us", Simulated);
  ]

(* The Registry contenders the DSM microtrace runs, by name: a contender
   missing from the registry reports 0 instead of breaking the metric list. *)
let strategies =
  [ "access_tree"; "fixed_home"; "prefetch_tree"; "adaptive_repl"; "capacity_lru"; "capacity_freq" ]

let per_layer_units =
  [
    ("event_queue.op_ns_d64", "ns");
    ("event_queue.op_ns_d32k", "ns");
    ("event_queue.words_per_op", "words");
    ("sim.event_ns", "ns");
    ("sim.words_per_event", "words");
    ("sim.events", "count");
    ("sim.events_per_s", "1/s");
    ("sim.alloc_words_per_event", "words");
    ("sim.queue_depth_p50", "count");
    ("sim.queue_depth_max", "count");
    ("network.send_ns_64", "ns");
    ("network.send_ns_16k", "ns");
    ("network.words_per_msg", "words");
    ("network.fiber_block_ns", "ns");
    ("network.msgs_per_event", "ratio");
    ("network.hops_per_msg", "ratio");
    ("network.sim_time_s", "sim_s");
    ("network.congestion_kib", "KiB");
  ]
  @ List.concat_map
      (fun s ->
        List.map
          (fun (k, u) -> (Printf.sprintf "dsm.%s.%s" s k, u))
          [
            ("read_miss_ns", "ns");
            ("read_hit_ns", "ns");
            ("write_ns", "ns");
            ("read_miss_msgs", "msgs/op");
            ("write_msgs", "msgs/op");
          ])
      strategies
  @ [
      ("dsm.ops", "count");
      ("dsm.read_hit_ratio", "ratio");
      ("dsm.evictions", "count");
      ("service.requests", "count");
      ("service.queue_hwm", "count");
      ("service.p50_ms", "sim_ms");
      ("service.p99_ms", "sim_ms");
      ("service.p999_ms", "sim_ms");
      ("service.goodput_ratio", "ratio");
      ("par.stall_frac", "ratio");
      ("par.shard_imbalance", "ratio");
      ("par.windows", "count");
      ("par.speedup", "ratio");
      ("obs.record_ns_per_line", "ns");
      ("obs.analyze_ns_per_line", "ns");
      ("obs.bytes_per_line", "B");
      ("obs.peak_msgs", "count");
    ]
  @ List.map
      (fun s -> ("prof." ^ s, "ratio"))
      [ "event_loop"; "dispatch"; "protocol"; "strategy"; "analysis"; "host" ]
  @ [ ("trace.overhead", "ratio") ]

type metric = {
  name : string;
  unit : string;
  better : string;  (** "lower" or "higher" *)
  bound : float;  (** end-to-end only; 0 for per-layer metrics *)
  clock : clock;
}

let clock_name = function Host -> "host" | Simulated -> "simulated"

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json                                                       *)
(* ------------------------------------------------------------------ *)

type spec = {
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let ( let* ) = Result.bind

let field what key conv j =
  match Option.bind (Json.member key j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: missing or invalid %S" what key)

let list_of what conv = function
  | Json.List l ->
      List.fold_right
        (fun x acc ->
          let* acc = acc in
          let* v = conv x in
          Ok (v :: acc))
        l (Ok [])
  | _ -> Error (what ^ ": expected a list")

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> Ok (really_input_string ic (in_channel_length ic)))
  with Sys_error e -> Error e

(* Read BENCHMARK.json and check it names exactly the metrics this code
   produces, with the same units. *)
let load_spec path =
  let* text = read_file path in
  let* j = Json.of_string text in
  let* workloads =
    let* l = field path "workloads" Option.some j in
    list_of "workloads" (field "workload" "name" Json.to_str) l
  in
  let metric ~units x =
    let* name = field "metric" "name" Json.to_str x in
    let* unit = field name "unit" Json.to_str x in
    let* better = field name "better" Json.to_str x in
    let* () =
      if better = "lower" || better = "higher" then Ok ()
      else Error (name ^ ": better must be lower or higher")
    in
    let bound = Option.value ~default:0.0 (Option.bind (Json.member "bound" x) Json.to_float) in
    match List.find_opt (fun (n, _, _) -> n = name) units with
    | None -> Error (Printf.sprintf "%s: metric %S is not produced by the benchmark" path name)
    | Some (_, u, clock) when u = unit -> Ok { name; unit; better; bound; clock }
    | Some (_, u, _) ->
        Error (Printf.sprintf "%s: %s has unit %S, the benchmark produces %S" path name unit u)
  in
  let section key units =
    let* l = field path key Option.some j in
    let* ms = list_of key (metric ~units) l in
    let missing =
      List.filter (fun (n, _, _) -> not (List.exists (fun m -> m.name = n) ms)) units
    in
    match missing with
    | [] -> Ok ms
    | (n, _, _) :: _ -> Error (Printf.sprintf "%s: %s does not list %S" path key n)
  in
  let* end_to_end = section "end_to_end" end_to_end_units in
  let* per_layer =
    section "per_layer" (List.map (fun (n, u) -> (n, u, Host)) per_layer_units)
  in
  Ok { workloads; end_to_end; per_layer }

(* ------------------------------------------------------------------ *)
(* Summaries                                                            *)
(* ------------------------------------------------------------------ *)

(* Quartiles by the "exclusive" method of Python's
   statistics.quantiles(values, n=4). *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then (0.0, 0.0, 0.0)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

(* ------------------------------------------------------------------ *)
(* The artifact                                                         *)
(* ------------------------------------------------------------------ *)

let schema = "diva-benchmark/1"

type workload = {
  w_name : string;
  w_digest : string;  (** digest of the simulated outputs *)
  w_attempted : int;  (** child processes started *)
  w_failed : int;  (** children that crashed, failed a check or disagreed *)
  w_checks : (string * bool) list;
  w_samples : (string * float list) list;  (** end-to-end metric -> samples *)
  w_layer : (string * float) list;  (** per-layer metric -> value *)
}

type t = {
  seed : int;
  smoke : bool;
  reps : int;
  metrics : metric list;  (** end-to-end then per-layer *)
  micro : (string * float) list;  (** microbench metrics, shared by every workload *)
  workloads : workload list;
}

let failed_frac w =
  if w.w_attempted = 0 then 1.0 else float_of_int w.w_failed /. float_of_int w.w_attempted

let metric_json m =
  Json.Obj
    [
      ("name", Json.String m.name);
      ("unit", Json.String m.unit);
      ("better", Json.String m.better);
      ("bound", Json.Float m.bound);
      ("clock", Json.String (clock_name m.clock));
    ]

let floats l = Json.List (List.map (fun x -> Json.Float x) l)
let float_obj kv = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) kv)

let workload_json w =
  Json.Obj
    [
      ("name", Json.String w.w_name);
      ("digest", Json.String w.w_digest);
      ("attempted", Json.Int w.w_attempted);
      ("failed", Json.Int w.w_failed);
      ("failed_frac", Json.Float (failed_frac w));
      ("checks", Json.Obj (List.map (fun (k, b) -> (k, Json.Bool b)) w.w_checks));
      ("end_to_end", Json.Obj (List.map (fun (k, s) -> (k, floats s)) w.w_samples));
      ("per_layer", float_obj w.w_layer);
    ]

let body t =
  [
    ("schema", Json.String schema);
    ("seed", Json.Int t.seed);
    ("smoke", Json.Bool t.smoke);
    ("reps", Json.Int t.reps);
    ("metrics", Json.List (List.map metric_json t.metrics));
    ("micro", float_obj t.micro);
    ("workloads", Json.List (List.map workload_json t.workloads));
  ]

(* The checksum covers the compact rendering of every other field, so a
   file edited by hand or damaged on disk is rejected. *)
let checksum fields = Digest.to_hex (Digest.string (Json.to_string (Json.Obj fields)))

let to_json t =
  let b = body t in
  Json.Obj (b @ [ ("checksum", Json.String (checksum b)) ])

let write path t = Json.to_file path (to_json t)

let float_list what =
  list_of what (fun x ->
      match Json.to_float x with Some f -> Ok f | None -> Error (what ^ ": not a number"))

let float_assoc what = function
  | Json.Obj kv ->
      List.fold_right
        (fun (k, v) acc ->
          let* acc = acc in
          match Json.to_float v with
          | Some f -> Ok ((k, f) :: acc)
          | None -> Error (Printf.sprintf "%s.%s: not a number" what k))
        kv (Ok [])
  | _ -> Error (what ^ ": expected an object")

let metric_of_json x =
  let* name = field "metric" "name" Json.to_str x in
  let* unit = field name "unit" Json.to_str x in
  let* better = field name "better" Json.to_str x in
  let* bound = field name "bound" Json.to_float x in
  let* clock =
    match Option.bind (Json.member "clock" x) Json.to_str with
    | Some "host" -> Ok Host
    | Some "simulated" -> Ok Simulated
    | _ -> Error (name ^ ": invalid clock")
  in
  Ok { name; unit; better; bound; clock }

let workload_of_json x =
  let* w_name = field "workload" "name" Json.to_str x in
  let* w_digest = field w_name "digest" Json.to_str x in
  let* w_attempted = field w_name "attempted" Json.to_int x in
  let* w_failed = field w_name "failed" Json.to_int x in
  let* w_checks =
    match Json.member "checks" x with
    | Some (Json.Obj kv) ->
        List.fold_right
          (fun (k, v) acc ->
            let* acc = acc in
            match Json.to_bool v with
            | Some b -> Ok ((k, b) :: acc)
            | None -> Error (w_name ^ ": invalid check " ^ k))
          kv (Ok [])
    | _ -> Error (w_name ^ ": missing checks")
  in
  let* w_samples =
    match Json.member "end_to_end" x with
    | Some (Json.Obj kv) ->
        List.fold_right
          (fun (k, v) acc ->
            let* acc = acc in
            let* s = float_list (w_name ^ "." ^ k) v in
            Ok ((k, s) :: acc))
          kv (Ok [])
    | _ -> Error (w_name ^ ": missing end_to_end")
  in
  let* w_layer =
    float_assoc (w_name ^ ".per_layer")
      (Option.value ~default:Json.Null (Json.member "per_layer" x))
  in
  Ok { w_name; w_digest; w_attempted; w_failed; w_checks; w_samples; w_layer }

let of_json j =
  let* fields = match j with Json.Obj kv -> Ok kv | _ -> Error "not a JSON object" in
  let* () =
    match Option.bind (Json.member "schema" j) Json.to_str with
    | Some s when s = schema -> Ok ()
    | Some s -> Error (Printf.sprintf "unsupported schema %S (expected %S)" s schema)
    | None -> Error "missing schema"
  in
  let* sum = field "results" "checksum" Json.to_str j in
  let* () =
    if checksum (List.remove_assoc "checksum" fields) = sum then Ok ()
    else Error "checksum mismatch: the file was modified or damaged"
  in
  let* seed = field "results" "seed" Json.to_int j in
  let* smoke = field "results" "smoke" Json.to_bool j in
  let* reps = field "results" "reps" Json.to_int j in
  let* metrics =
    list_of "metrics" metric_of_json (Option.value ~default:Json.Null (Json.member "metrics" j))
  in
  let* micro = float_assoc "micro" (Option.value ~default:Json.Null (Json.member "micro" j)) in
  let* workloads =
    list_of "workloads" workload_of_json
      (Option.value ~default:Json.Null (Json.member "workloads" j))
  in
  Ok { seed; smoke; reps; metrics; micro; workloads }

(* Never raises: any failure to read or parse is an [Error]. *)
let of_string s =
  match Json.of_string s with
  | Error e -> Error ("not valid JSON: " ^ e)
  | Ok j -> ( try of_json j with e -> Error (Printexc.to_string e))
  | exception e -> Error (Printexc.to_string e)

let read path =
  match read_file path with
  | Error e -> Error e
  | Ok s -> Result.map_error (fun e -> path ^ ": " ^ e) (of_string s)

(* ------------------------------------------------------------------ *)
(* Comparison                                                           *)
(* ------------------------------------------------------------------ *)

type verdict = Better | Same | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

let relative ~base ~nw = if base = 0.0 then nw -. base else (nw -. base) /. Float.abs base

(* Relative change of [nw] against [base], signed so that positive is
   worse. *)
let worsening m ~base ~nw =
  let d = relative ~base ~nw in
  if m.better = "lower" then d else -.d

(* A simulated metric has no spread, so any change is real: its
   tolerance is zero. *)
let tolerance m = match m.clock with Simulated -> 0.0 | Host -> m.bound

(* A host metric is unresolved when either side's interquartile range,
   relative to its median, exceeds the bound, unless every new sample
   beats every base sample. *)
let verdict m ~base ~nw =
  let _, bmed, _ = quartiles base and _, nmed, _ = quartiles nw in
  let spread xs =
    let q1, med, q3 = quartiles xs in
    if med = 0.0 then 0.0 else (q3 -. q1) /. Float.abs med
  in
  let beats a b = if m.better = "lower" then a < b else a > b in
  let all_beat =
    base <> [] && nw <> [] && List.for_all (fun n -> List.for_all (fun b -> beats n b) base) nw
  in
  let w = worsening m ~base:bmed ~nw:nmed in
  if m.clock = Host && (spread base > m.bound || spread nw > m.bound) then
    if all_beat then Better else Unresolved
  else if w > tolerance m then Worse
  else if -.w > tolerance m then Better
  else Same

type row = {
  r_workload : string;
  r_metric : metric;
  r_base : float * float * float;  (** q1, median, q3 *)
  r_new : float * float * float;
  r_change : float;  (** relative, signed, positive = higher *)
  r_verdict : verdict;
}

(* One row per (workload, end-to-end metric) present on both sides, plus
   one failed_frac row per workload. *)
let rows ~base ~nw =
  let failed_metric =
    { name = "failed_frac"; unit = "ratio"; better = "lower"; bound = 0.0; clock = Simulated }
  in
  List.concat_map
    (fun bw ->
      match List.find_opt (fun w -> w.w_name = bw.w_name) nw.workloads with
      | None -> []
      | Some nww ->
          let row m b n =
            let ((_, bm, _) as qb) = quartiles b and ((_, nm, _) as qn) = quartiles n in
            {
              r_workload = bw.w_name;
              r_metric = m;
              r_base = qb;
              r_new = qn;
              r_change = relative ~base:bm ~nw:nm;
              r_verdict = verdict m ~base:b ~nw:n;
            }
          in
          List.filter_map
            (fun m ->
              match (List.assoc_opt m.name bw.w_samples, List.assoc_opt m.name nww.w_samples) with
              | Some b, Some n -> Some (row m b n)
              | _ -> None)
            base.metrics
          @ [ row failed_metric [ failed_frac bw ] [ failed_frac nww ] ])
    base.workloads

let render_rows rows =
  let b = Buffer.create 4096 in
  Printf.bprintf b "%-14s %-15s %-7s %-36s %-36s %9s %6s  %s\n" "workload" "metric" "unit"
    "base median [q1, q3]" "new median [q1, q3]" "change" "bound" "verdict";
  List.iter
    (fun r ->
      let q (q1, med, q3) = Printf.sprintf "%.6g [%.6g, %.6g]" med q1 q3 in
      Printf.bprintf b "%-14s %-15s %-7s %-36s %-36s %+8.2f%% %5.1f%%  %s\n" r.r_workload
        r.r_metric.name r.r_metric.unit (q r.r_base) (q r.r_new) (100.0 *. r.r_change)
        (100.0 *. tolerance r.r_metric)
        (verdict_name r.r_verdict))
    rows;
  Buffer.contents b
