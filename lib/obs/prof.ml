type subsystem =
  | Host
  | Event_loop
  | Dispatch
  | Protocol
  | Strategy
  | Analysis
  | App

let[@inline] sub_id = function
  | Host -> 0
  | Event_loop -> 1
  | Dispatch -> 2
  | Protocol -> 3
  | Strategy -> 4
  | Analysis -> 5
  | App -> 6

let num_subs = 7

let sub_of_id = function
  | 0 -> Host
  | 1 -> Event_loop
  | 2 -> Dispatch
  | 3 -> Protocol
  | 4 -> Strategy
  | 5 -> Analysis
  | _ -> App

let subsystem_name = function
  | Host -> "host"
  | Event_loop -> "event_loop"
  | Dispatch -> "dispatch"
  | Protocol -> "protocol"
  | Strategy -> "strategy"
  | Analysis -> "analysis"
  | App -> "app"

(* One series row: host counters at a simulated-clock boundary. [r_rate]
   is events/sec over the window ending here (wall-clock denominator). *)
type row = {
  r_sim_us : float;
  r_wall_s : float;
  r_events : int;
  r_rate : float;
  r_minor_words : float;
  r_heap_words : int;
  r_major_cols : int;
}

type t = {
  sample_period_s : float;
  t0 : float;
  gc0 : Gc.stat;
  (* hot-path attribution: the signal handler reads [cur] and bumps
     [samples]; both are plain ints so the handler never allocates. *)
  mutable cur : int;
  samples : int array;
  mutable armed : bool;
  mutable prev_sigprof : Sys.signal_behavior option;
  (* window series (newest first) *)
  mutable rev_rows : row list;
  mutable nrows : int;
  mutable last_wall : float;
  mutable last_events : int;
  mutable heap_hw_words : int;
  (* [Gc.quick_stat] costs ~1us (it visits every domain), far too much
     for every window row; heap size and major-collection counts move
     slowly, so they are refreshed every 16th row and carried forward in
     between. [Gc.minor_words] is a 3ns primitive and stays per-row. *)
  mutable last_heap_words : int;
  mutable last_major_cols : int;
  (* region timers *)
  mutable regions : (string * float ref) list;
  (* ticker *)
  mutable ticker : (string -> unit) option;
  mutable ticker_last : float;
  (* attachments / finals *)
  mutable par : Json.t option;
  mutable final_wall_s : float option;
}

let window_us = 1000.0

let create ?(sample_period_s = 0.01) () =
  if not (Float.is_finite sample_period_s) || sample_period_s <= 0.0 then
    invalid_arg "Prof.create: sample_period_s must be positive";
  let now = Unix.gettimeofday () in
  {
    sample_period_s;
    t0 = now;
    gc0 = Gc.quick_stat ();
    cur = sub_id Host;
    samples = Array.make num_subs 0;
    armed = false;
    prev_sigprof = None;
    rev_rows = [];
    nrows = 0;
    last_wall = now;
    last_events = 0;
    heap_hw_words = 0;
    last_heap_words = 0;
    last_major_cols = 0;
    regions = [];
    ticker = None;
    ticker_last = now;
    par = None;
    final_wall_s = None;
  }

(* Called with a constant constructor on the per-event path; inlining
   folds the id match away, leaving a single word store. *)
let[@inline] set_sub t s = t.cur <- sub_id s
let cur_sub t = sub_of_id t.cur

let with_sub t s f =
  let saved = t.cur in
  t.cur <- sub_id s;
  let r = f () in
  t.cur <- saved;
  r

(* ------------------------------------------------------------------ *)
(* Statistical subsystem sampler                                        *)
(* ------------------------------------------------------------------ *)

(* ITIMER_PROF is process-wide, so at most one profiler owns it. The
   handler must be async-signal-safe in the OCaml sense: no allocation, no
   I/O — one array load, one add, one store. *)
let active : t option ref = ref None

let arm t =
  if !active = None && not t.armed then begin
    active := Some t;
    t.armed <- true;
    t.prev_sigprof <-
      Some
        (Sys.signal Sys.sigprof
           (Sys.Signal_handle
              (fun _ ->
                match !active with
                | Some p -> p.samples.(p.cur) <- p.samples.(p.cur) + 1
                | None -> ())));
    ignore
      (Unix.setitimer Unix.ITIMER_PROF
         { Unix.it_interval = t.sample_period_s; it_value = t.sample_period_s }
        : Unix.interval_timer_status)
  end

let disarm t =
  if t.armed then begin
    ignore
      (Unix.setitimer Unix.ITIMER_PROF
         { Unix.it_interval = 0.0; it_value = 0.0 }
        : Unix.interval_timer_status);
    (match t.prev_sigprof with
    | Some b -> ignore (Sys.signal Sys.sigprof b : Sys.signal_behavior)
    | None -> ());
    t.prev_sigprof <- None;
    t.armed <- false;
    active := None
  end

(* ------------------------------------------------------------------ *)
(* Window series + ticker                                               *)
(* ------------------------------------------------------------------ *)

let si v =
  if Float.abs v >= 1e9 then Printf.sprintf "%.1fG" (v /. 1e9)
  else if Float.abs v >= 1e6 then Printf.sprintf "%.1fM" (v /. 1e6)
  else if Float.abs v >= 1e3 then Printf.sprintf "%.1fk" (v /. 1e3)
  else Printf.sprintf "%.0f" v

let ticker_line ~sim_us ~events ~rate ~heap_words =
  Printf.sprintf "sim %8.1f ms | %7s events | %7s ev/s | heap %5.1f MB"
    (sim_us /. 1e3)
    (si (float_of_int events))
    (si rate)
    (float_of_int heap_words *. 8.0 /. 1e6)

let sample t ~sim_us ~events =
  let now = Unix.gettimeofday () in
  if t.nrows land 15 = 0 then begin
    let g = Gc.quick_stat () in
    t.last_heap_words <- g.Gc.heap_words;
    t.last_major_cols <- g.Gc.major_collections - t.gc0.Gc.major_collections;
    if g.Gc.heap_words > t.heap_hw_words then
      t.heap_hw_words <- g.Gc.heap_words
  end;
  let dt = now -. t.last_wall in
  let rate =
    if dt > 0.0 then float_of_int (events - t.last_events) /. dt else 0.0
  in
  t.rev_rows <-
    {
      r_sim_us = sim_us;
      r_wall_s = now -. t.t0;
      r_events = events;
      r_rate = rate;
      r_minor_words = Gc.minor_words () -. t.gc0.Gc.minor_words;
      r_heap_words = t.last_heap_words;
      r_major_cols = t.last_major_cols;
    }
    :: t.rev_rows;
  t.nrows <- t.nrows + 1;
  t.last_wall <- now;
  t.last_events <- events;
  match t.ticker with
  | Some f when now -. t.ticker_last >= 0.2 ->
      t.ticker_last <- now;
      f (ticker_line ~sim_us ~events ~rate ~heap_words:t.last_heap_words)
  | _ -> ()

let set_ticker t f = t.ticker <- Some f

(* ------------------------------------------------------------------ *)
(* Region timers                                                        *)
(* ------------------------------------------------------------------ *)

let region t name f =
  let cell =
    match List.assoc_opt name t.regions with
    | Some c -> c
    | None ->
        let c = ref 0.0 in
        t.regions <- t.regions @ [ (name, c) ];
        c
  in
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () -> cell := !cell +. (Unix.gettimeofday () -. t0))
    f

let set_par t j = t.par <- Some j

let latest_row t = match t.rev_rows with r :: _ -> Some r | [] -> None

let register_gauges t m =
  Metrics.gauge m "host-events-per-sec" (fun () ->
      match latest_row t with Some r -> r.r_rate | None -> 0.0);
  Metrics.gauge m "host-heap-words" (fun () ->
      float_of_int (Gc.quick_stat ()).Gc.heap_words);
  Metrics.gauge m "host-minor-words" (fun () ->
      (Gc.quick_stat ()).Gc.minor_words -. t.gc0.Gc.minor_words)

(* ------------------------------------------------------------------ *)
(* prof.json                                                            *)
(* ------------------------------------------------------------------ *)

let schema = "diva-prof/1"

let series_columns =
  [
    "sim_us"; "wall_s"; "events"; "events_per_sec"; "minor_words";
    "heap_words"; "major_collections";
  ]

let to_json t =
  disarm t;
  let wall =
    match t.final_wall_s with
    | Some w -> w
    | None ->
        let w = Unix.gettimeofday () -. t.t0 in
        t.final_wall_s <- Some w;
        w
  in
  let g = Gc.quick_stat () in
  if g.Gc.heap_words > t.heap_hw_words then t.heap_hw_words <- g.Gc.heap_words;
  let events, rate =
    match latest_row t with
    | Some r -> (r.r_events, float_of_int r.r_events /. Float.max wall 1e-9)
    | None -> (t.last_events, 0.0)
  in
  let open Json in
  Obj
    ([
       ("schema", String schema);
       ("wall_s", Float wall);
       ("events", Int events);
       ("events_per_sec", Float rate);
       ("sample_period_s", Float t.sample_period_s);
       ("window_us", Float window_us);
       ( "subsystems",
         Obj
           (List.init num_subs (fun i ->
                (subsystem_name (sub_of_id i), Int t.samples.(i)))) );
       ( "regions",
         Obj (List.map (fun (n, c) -> (n, Float !c)) t.regions) );
       ( "gc",
         Obj
           [
             ("minor_words", Float (g.Gc.minor_words -. t.gc0.Gc.minor_words));
             ( "promoted_words",
               Float (g.Gc.promoted_words -. t.gc0.Gc.promoted_words) );
             ("major_words", Float (g.Gc.major_words -. t.gc0.Gc.major_words));
             ( "minor_collections",
               Int (g.Gc.minor_collections - t.gc0.Gc.minor_collections) );
             ( "major_collections",
               Int (g.Gc.major_collections - t.gc0.Gc.major_collections) );
             ("heap_words", Int g.Gc.heap_words);
             ("top_heap_words", Int g.Gc.top_heap_words);
           ] );
       ("heap_high_water_words", Int t.heap_hw_words);
       ( "series",
         Obj
           [
             ("columns", List (List.map (fun c -> String c) series_columns));
             ( "rows",
               List
                 (List.rev_map
                    (fun r ->
                      List
                        [
                          Float r.r_sim_us; Float r.r_wall_s; Int r.r_events;
                          Float r.r_rate; Float r.r_minor_words;
                          Int r.r_heap_words; Int r.r_major_cols;
                        ])
                    t.rev_rows) );
           ] );
     ]
    @ match t.par with Some p -> [ ("par", p) ] | None -> [])

(* Series rows for the Perfetto counter tracks; computed from the JSON so
   {!Chrome_trace} can also replot a prof.json read back from disk. *)
let series_rows j =
  match Option.bind (Json.member "series" j) (Json.member "rows") with
  | Some (Json.List rows) ->
      List.filter_map
        (fun r ->
          match r with
          | Json.List (sim :: _wall :: _events :: rate :: _minor :: heap :: _)
            -> (
              match
                (Json.to_float sim, Json.to_float rate, Json.to_float heap)
              with
              | Some s, Some ra, Some h -> Some (s, ra, h)
              | _ -> None)
          | _ -> None)
        rows
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Report rendering (divasim profile)                                   *)
(* ------------------------------------------------------------------ *)

let get_f j k = Option.bind (Json.member k j) Json.to_float
let get_i j k = Option.bind (Json.member k j) Json.to_int

let report j =
  match Option.bind (Json.member "schema" j) Json.to_str with
  | Some s when s = schema ->
      let b = Buffer.create 1024 in
      let wall = Option.value ~default:0.0 (get_f j "wall_s") in
      let events = Option.value ~default:0 (get_i j "events") in
      let rate = Option.value ~default:0.0 (get_f j "events_per_sec") in
      Printf.bprintf b "profile (%s)\n" schema;
      Printf.bprintf b "  wall time        %.3f s\n" wall;
      Printf.bprintf b "  events           %d (%s events/sec)\n" events
        (si rate);
      (match Json.member "heap_high_water_words" j with
      | Some hw -> (
          match Json.to_int hw with
          | Some w ->
              Printf.bprintf b "  heap high-water  %.1f MB\n"
                (float_of_int w *. 8.0 /. 1e6)
          | None -> ())
      | None -> ());
      (match Json.member "subsystems" j with
      | Some (Json.Obj subs) ->
          let total =
            List.fold_left
              (fun acc (_, v) ->
                acc + Option.value ~default:0 (Json.to_int v))
              0 subs
          in
          Printf.bprintf b "  cpu samples      %d (period %gs)\n" total
            (Option.value ~default:0.0 (get_f j "sample_period_s"));
          if total > 0 then
            List.iter
              (fun (n, v) ->
                let c = Option.value ~default:0 (Json.to_int v) in
                if c > 0 then
                  Printf.bprintf b "    %-12s %5.1f%%  (%d)\n" n
                    (100.0 *. float_of_int c /. float_of_int total)
                    c)
              subs
      | _ -> ());
      (match Json.member "regions" j with
      | Some (Json.Obj regions) when regions <> [] ->
          Printf.bprintf b "  regions\n";
          List.iter
            (fun (n, v) ->
              match Json.to_float v with
              | Some s -> Printf.bprintf b "    %-14s %8.3f s\n" n s
              | None -> ())
            regions
      | _ -> ());
      (match Json.member "gc" j with
      | Some gc ->
          Printf.bprintf b
            "  gc               %s minor words, %d minor / %d major \
             collections\n"
            (si (Option.value ~default:0.0 (get_f gc "minor_words")))
            (Option.value ~default:0 (get_i gc "minor_collections"))
            (Option.value ~default:0 (get_i gc "major_collections"))
      | None -> ());
      (match Json.member "par" j with
      | Some (Json.Obj _ as par) -> (
          Printf.bprintf b "  parallel engine\n";
          (match (get_i par "domains", get_i par "windows") with
          | Some d, Some w ->
              Printf.bprintf b "    %d domain(s), %d window(s)\n" d w
          | _ -> ());
          (match (get_f par "stall_frac", get_f par "shard_imbalance") with
          | Some s, Some im ->
              Printf.bprintf b
                "    stall fraction %.1f%%, shard imbalance %.2fx\n"
                (100.0 *. s) im
          | _ -> ());
          match Json.member "domains_detail" par with
          | Some (Json.List ds) ->
              List.iteri
                (fun i d ->
                  match
                    (get_f d "busy_s", get_f d "barrier_s", get_i d "events")
                  with
                  | Some bu, Some ba, Some ev ->
                      Printf.bprintf b
                        "    domain %d: %.3fs busy, %.3fs barrier, %d events\n"
                        i bu ba ev
                  | _ -> ())
                ds
          | _ -> ())
      | _ -> ());
      Printf.bprintf b "  series           %d window sample(s)\n"
        (List.length (series_rows j));
      Ok (Buffer.contents b)
  | Some s -> Error (Printf.sprintf "not a prof document (schema %S)" s)
  | None -> Error "not a prof document (no \"schema\" field)"
