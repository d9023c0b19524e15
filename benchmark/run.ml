(* The DIVA benchmark. One repetition per fresh child process (the child is
   this executable re-run with --child), one child at a time.

     run.exe [--seed N] [--reps 5] [--only W,...] [--out FILE] [--smoke]
       every workload, the microbenches and one traced run per workload;
       prints every metric with its unit and writes a diva-benchmark/1 file
     run.exe --compare BASE.json NEW.json
       verdict per (workload, end-to-end metric); exits 1 on "worse"
     run.exe --workload W --seed N --seconds S --trace 0|1
       one workload for S seconds; the last stdout line is one JSON object
       with the end-to-end (trace 0) or per-layer (trace 1) metrics

   See benchmark/README.md for the workloads and metric definitions. *)

module Json = Diva_obs.Json
module W = Workloads
module R = Results

let clock = Unix.gettimeofday
let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* Setup-only children launched before each untraced run. Setup takes a
   few milliseconds and the host's speed drifts on a scale of tens of
   seconds, so setup_s is the median of samples spread over the whole
   measuring window. *)
let setups_per_run = 2

(* ------------------------------------------------------------------ *)
(* Children                                                             *)
(* ------------------------------------------------------------------ *)

(* Run this executable with [args]; its last stdout line is a JSON object. *)
let spawn args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  match status with
  | Unix.WEXITED 0 -> (
      let lines = String.split_on_char '\n' (String.trim out) in
      match Json.of_string (List.nth lines (List.length lines - 1)) with
      | Ok j -> Ok j
      | Error e -> Error ("unreadable child output: " ^ e))
  | Unix.WEXITED n -> Error (Printf.sprintf "child exited with code %d" n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> Error (Printf.sprintf "child killed by signal %d" n)

let floats_of j key =
  match Json.member key j with
  | Some (Json.Obj kv) -> List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.to_float v)) kv
  | _ -> []

(* Everything the children of one workload reported. *)
type collected = {
  w : W.t;
  mutable attempted : int;
  mutable failed : int;
  mutable digest : string option;  (** of the first run; all must match *)
  mutable checks : (string * bool) list;
  mutable runs : (string * float) list list;  (** host fields per untraced run *)
  mutable sims : (string * float) list list;  (** simulated outputs per run *)
  mutable setups : float list;
  mutable traced : (string * float) list option;
  mutable serial_wall : float option;
}

let launch c ~seed ~smoke kind =
  c.attempted <- c.attempted + 1;
  let args =
    [ "--child"; W.kind_name kind; "--workload"; W.name c.w; "--seed"; string_of_int seed ]
    @ if smoke then [ "--smoke" ] else []
  in
  let fail msg =
    c.failed <- c.failed + 1;
    log "%s %s: FAILED: %s" (W.name c.w) (W.kind_name kind) msg
  in
  match spawn args with
  | Error e -> fail e
  | Ok j -> (
      let host = floats_of j "host" in
      match kind with
      | W.Setup -> (
          match List.assoc_opt "setup_s" host with
          | Some t -> c.setups <- t :: c.setups
          | None -> fail "no setup_s reported")
      | W.Run | W.Traced | W.Serial ->
          let digest = Option.value ~default:"" (Option.bind (Json.member "digest" j) Json.to_str) in
          let checks =
            match Json.member "checks" j with
            | Some (Json.Obj kv) ->
                List.map (fun (k, v) -> (k, Option.value ~default:false (Json.to_bool v))) kv
            | _ -> []
          in
          List.iter
            (fun (k, ok) ->
              let prev = Option.value ~default:true (List.assoc_opt k c.checks) in
              c.checks <- (k, prev && ok) :: List.remove_assoc k c.checks)
            checks;
          let reference = match c.digest with Some d -> d | None -> digest in
          c.digest <- Some reference;
          if digest <> reference then
            fail (Printf.sprintf "simulated outputs differ (digest %s, first run %s)" digest reference)
          else if List.exists (fun (_, ok) -> not ok) checks then
            fail
              ("check failed: "
              ^ String.concat ", " (List.map fst (List.filter (fun (_, ok) -> not ok) checks)))
          else begin
            match kind with
            | W.Run ->
                c.runs <- c.runs @ [ host ];
                c.sims <- c.sims @ [ floats_of j "sim" ]
            | W.Traced -> c.traced <- Some host
            | W.Serial -> c.serial_wall <- List.assoc_opt "wall_s" host
            | W.Setup -> ()
          end)

(* A number of untraced runs, or as many as start before a deadline. *)
type budget = Reps of int | Until of float

(* Untraced runs, each preceded by [setups_per_run] setup children when
   [setups], until the budget is spent (at least one run); then optionally
   the traced run and, for traffic, the one-domain run. *)
let measure w ~seed ~smoke ~budget ~setups ~traced =
  let c =
    {
      w; attempted = 0; failed = 0; digest = None; checks = []; runs = []; sims = [];
      setups = []; traced = None; serial_wall = None;
    }
  in
  let rec loop i =
    let more = match budget with Reps n -> i < n | Until t -> i = 0 || clock () < t in
    if more then begin
      if setups then
        for _ = 1 to setups_per_run do
          launch c ~seed ~smoke W.Setup
        done;
      launch c ~seed ~smoke W.Run;
      loop (i + 1)
    end
  in
  loop 0;
  if traced then begin
    launch c ~seed ~smoke W.Traced;
    if w = W.Traffic then launch c ~seed ~smoke W.Serial
  end;
  c

let micro ~smoke =
  match spawn ([ "--child"; "micro" ] @ if smoke then [ "--smoke" ] else []) with
  | Ok j -> Ok (floats_of j "micro")
  | Error e -> Error e

(* ------------------------------------------------------------------ *)
(* Metric values                                                        *)
(* ------------------------------------------------------------------ *)

let column key rows = List.filter_map (List.assoc_opt key) rows

(* End-to-end samples: one per untraced run (setup_s: per setup child). *)
let samples c =
  [
    ("wall_s", column "wall_s" c.runs);
    ("setup_s", c.setups);
    ("rss_peak_mb", column "rss_peak_mb" c.runs);
    ("startups", column "startups" c.sims);
    ("sim_latency_us", column "latency_us" c.sims);
  ]

(* Per-layer values: the median over untraced runs where the runs report
   the metric, else the traced run's value, else the microbench; 0 where
   the workload does not exercise the layer. *)
let layer c ~micro =
  let wall = R.median (column "wall_s" c.runs) in
  let traced = Option.value ~default:[] c.traced in
  let derived =
    (match List.assoc_opt "wall_s" traced with
     | Some t when wall > 0.0 -> [ ("trace.overhead", t /. wall) ]
     | _ -> [])
    @
    match c.serial_wall with
    | Some s when wall > 0.0 -> [ ("par.speedup", s /. wall) ]
    | _ -> []
  in
  List.map
    (fun (name, _) ->
      let v =
        match column name c.runs with
        | _ :: _ as xs -> R.median xs
        | [] -> (
            match List.assoc_opt name derived with
            | Some v -> v
            | None -> (
                match List.assoc_opt name traced with
                | Some v -> v
                | None -> Option.value ~default:0.0 (List.assoc_opt name micro)))
      in
      (name, if Float.is_finite v then v else 0.0))
    R.per_layer_units

let to_result c ~micro =
  {
    R.w_name = W.name c.w;
    w_digest = Option.value ~default:"" c.digest;
    w_attempted = c.attempted;
    w_failed = c.failed;
    w_checks = List.rev c.checks;
    w_samples = samples c;
    w_layer = layer c ~micro;
  }

(* ------------------------------------------------------------------ *)
(* Modes                                                                *)
(* ------------------------------------------------------------------ *)

let load_spec path =
  match R.load_spec path with
  | Ok s -> s
  | Error e ->
      log "benchmark: %s" e;
      exit 2

let child kind_name ~workload ~seed ~smoke =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1_048_576 };
  let j =
    if kind_name = "micro" then
      let reps, ops, rounds = if smoke then (1, 10_000, 1) else (5, 100_000, 10) in
      Json.Obj
        [
          ( "micro",
            Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) (Micro.all ~reps ~ops ~rounds)) );
        ]
    else
      match (W.kind_of_name kind_name, Option.bind workload W.of_name) with
      | Some kind, Some w ->
          W.report_json (W.run w kind ~seed (if smoke then W.smoke else W.full))
      | _ ->
          log "benchmark: bad child request";
          exit 2
  in
  print_endline (Json.to_string j)

(* BENCHMARK.json's command: one workload for [seconds]; the last stdout
   line is the result. *)
let single ~(spec : R.spec) ~workload ~seed ~seconds ~trace =
  let w =
    match W.of_name workload with
    | Some w when List.mem workload spec.R.workloads -> w
    | _ ->
        log "benchmark: unknown workload %S (known: %s)" workload
          (String.concat ", " spec.R.workloads);
        exit 2
  in
  (* With trace, the microbenches come first and the untraced runs (which
     the per-layer counters and trace.overhead need) fill what is left of
     the window; setup_s is not reported, so there are no setup children. *)
  let deadline = clock () +. seconds in
  let micro_values, micro_failed =
    if trace then
      match micro ~smoke:false with Ok m -> (m, 0) | Error e -> log "micro: %s" e; ([], 1)
    else ([], 0)
  in
  let c =
    measure w ~seed ~smoke:false ~budget:(Until deadline) ~setups:(not trace) ~traced:trace
  in
  let r = to_result c ~micro:micro_values in
  let attempted = c.attempted + if trace then 1 else 0 in
  let failed = c.failed + micro_failed in
  let metrics =
    if trace then List.map (fun m -> (m, List.assoc m.R.name r.R.w_layer)) spec.R.per_layer
    else List.map (fun m -> (m, R.median (List.assoc m.R.name r.R.w_samples))) spec.R.end_to_end
  in
  let correct = failed = 0 && c.runs <> [] in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (m, v) ->
                     (m.R.name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String m.R.unit) ]))
                   metrics) );
          ]));
  if not correct then exit 1

let print_result (spec : R.spec) (t : R.t) =
  Printf.printf "DIVA benchmark, seed %d, %s, %d rep%s per workload\n" t.R.seed
    (if t.R.smoke then "smoke sizes" else "full sizes")
    t.R.reps
    (if t.R.reps = 1 then "" else "s");
  List.iter
    (fun w ->
      Printf.printf "\n== %s  (%d children, %d failed, failed_frac %g, digest %s)\n" w.R.w_name
        w.R.w_attempted w.R.w_failed (R.failed_frac w) w.R.w_digest;
      List.iter
        (fun m ->
          let s = List.assoc m.R.name w.R.w_samples in
          let lo = List.fold_left Float.min Float.infinity s
          and hi = List.fold_left Float.max Float.neg_infinity s in
          Printf.printf "  %-30s %14.6g %-8s [min %.6g, max %.6g, n=%d] %s\n" m.R.name (R.median s)
            m.R.unit lo hi (List.length s) (R.clock_name m.R.clock))
        spec.R.end_to_end;
      List.iter
        (fun m ->
          if not (List.mem_assoc m.R.name t.R.micro) then
            Printf.printf "  %-30s %14.6g %s\n" m.R.name (List.assoc m.R.name w.R.w_layer) m.R.unit)
        spec.R.per_layer)
    t.R.workloads;
  Printf.printf "\n== microbenches\n";
  List.iter
    (fun (k, v) -> Printf.printf "  %-30s %14.6g %s\n" k v (List.assoc k R.per_layer_units))
    t.R.micro

let full ~(spec : R.spec) ~seed ~reps ~only ~out ~smoke =
  let ws =
    match only with
    | None -> W.all
    | Some names ->
        List.map
          (fun n ->
            match W.of_name n with
            | Some w -> w
            | None ->
                log "benchmark: unknown workload %S" n;
                exit 2)
          names
  in
  let collected =
    List.map
      (fun w ->
        let t0 = clock () in
        let c = measure w ~seed ~smoke ~budget:(Reps reps) ~setups:true ~traced:true in
        if not smoke then log "%-14s %d children in %.1f s" (W.name w) c.attempted (clock () -. t0);
        c)
      ws
  in
  let micro_values, micro_failed =
    match micro ~smoke with Ok m -> (m, false) | Error e -> log "micro: FAILED: %s" e; ([], true)
  in
  let t =
    {
      R.seed;
      smoke;
      reps;
      metrics = spec.R.end_to_end @ spec.R.per_layer;
      micro = micro_values;
      workloads = List.map (to_result ~micro:micro_values) collected;
    }
  in
  print_result spec t;
  R.write out t;
  Printf.printf "\nresults -> %s\n" out;
  if micro_failed || List.exists (fun w -> w.R.w_failed > 0) t.R.workloads then exit 1

let compare_files a b =
  match (R.read a, R.read b) with
  | Error e, _ | _, Error e ->
      log "benchmark: %s" e;
      exit 2
  | Ok base, Ok nw ->
      if base.R.seed <> nw.R.seed then
        log "note: seeds differ (%d vs %d); simulated metrics are not comparable" base.R.seed
          nw.R.seed;
      List.iter
        (fun bw ->
          match List.find_opt (fun w -> w.R.w_name = bw.R.w_name) nw.R.workloads with
          | Some w when w.R.w_digest <> bw.R.w_digest ->
              Printf.printf "%s: simulated digest differs (%s -> %s)\n" bw.R.w_name bw.R.w_digest
                w.R.w_digest
          | _ -> ())
        base.R.workloads;
      let rows = R.rows ~base ~nw in
      print_string (R.render_rows rows);
      if List.exists (fun r -> r.R.r_verdict = R.Worse) rows then exit 1

let () =
  let workload = ref None and seed = ref 17 and seconds = ref None and trace = ref None in
  let reps = ref 5 and only = ref None and out = ref None and smoke = ref false in
  let compare_pair = ref None and child_kind = ref None and spec_path = ref "BENCHMARK.json" in
  let cmp_a = ref "" in
  let specs =
    [
      ("--workload", Arg.String (fun s -> workload := Some s), "W  run one workload (single-workload mode)");
      ("--seed", Arg.Set_int seed, "N  seed of every generator (default 17)");
      ("--seconds", Arg.Float (fun s -> seconds := Some s), "S  measuring time (single-workload mode)");
      ( "--trace",
        Arg.Int (fun t -> trace := Some (t <> 0)),
        "0|1  report end-to-end (0) or per-layer (1) metrics (single-workload mode)" );
      ("--reps", Arg.Set_int reps, "N  untraced runs per workload (default 5)");
      ( "--only",
        Arg.String (fun s -> only := Some (String.split_on_char ',' s)),
        "W,...  run only these workloads" );
      ("--out", Arg.String (fun s -> out := Some s), "FILE  results file (default benchmark-results.json)");
      ( "--compare",
        Arg.Tuple [ Arg.Set_string cmp_a; Arg.String (fun b -> compare_pair := Some (!cmp_a, b)) ],
        "BASE NEW  compare two results files" );
      ("--smoke", Arg.Set smoke, "  tiny sizes, one run, small microbenches");
      ("--spec", Arg.Set_string spec_path, "FILE  benchmark definition (default BENCHMARK.json)");
      ("--child", Arg.String (fun k -> child_kind := Some k), "KIND  internal: run one child");
    ]
  in
  Arg.parse specs
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "run.exe [--seed N] [--reps N] [--only W,...] [--out FILE] [--smoke] | --compare A B | \
     --workload W --seed N --seconds S --trace 0|1";
  match (!compare_pair, !child_kind, !workload) with
  | Some (a, b), _, _ -> compare_files a b
  | None, Some k, _ -> child k ~workload:!workload ~seed:!seed ~smoke:!smoke
  | None, None, Some w -> (
      match (!seconds, !trace) with
      | Some s, Some t ->
          single ~spec:(load_spec !spec_path) ~workload:w ~seed:!seed ~seconds:s ~trace:t
      | _ ->
          log "benchmark: --workload needs --seconds and --trace";
          exit 2)
  | None, None, None ->
      let reps = if !smoke then 1 else max 1 !reps in
      let out =
        Option.value !out ~default:(if !smoke then "benchmark-smoke.json" else "benchmark-results.json")
      in
      full ~spec:(load_spec !spec_path) ~seed:!seed ~reps ~only:!only ~out ~smoke:!smoke
