(* Observability layer: trace aggregation consistency, zero-perturbation,
   exporter well-formedness. *)

module Runner = Diva_harness.Runner
module Trace = Diva_obs.Trace
module Metrics = Diva_obs.Metrics
module Json = Diva_obs.Json

let strategy = Diva_core.Dsm.access_tree ~arity:4 ()

let run_matmul ?(obs = Runner.null_obs) () =
  Runner.run_matmul ~dims:[| 4; 4 |] ~block:64 ~obs (Runner.Strategy strategy)

let traced_run () =
  let tr = Trace.create () in
  let m =
    run_matmul
      ~obs:{ Runner.null_obs with Runner.obs_trace = tr }
      ()
  in
  (tr, m)

(* (a) Per-link aggregation of Link_xfer events must reproduce the
   Link_stats counters exactly: the network emits exactly one event per
   link crossing. *)
let test_link_aggregation () =
  let tr, (m : Runner.measurements) = traced_run () in
  let msgs = Hashtbl.create 64 and bytes = Hashtbl.create 64 in
  let bump tbl k v =
    Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  List.iter
    (function
      | Trace.Link_xfer { link; size; _ } ->
          bump msgs link 1;
          bump bytes link size
      | _ -> ())
    (Trace.events tr);
  let max_of tbl = Hashtbl.fold (fun _ v acc -> max v acc) tbl 0 in
  let sum_of tbl = Hashtbl.fold (fun _ v acc -> v + acc) tbl 0 in
  Alcotest.(check int) "congestion msgs" m.Runner.congestion_msgs (max_of msgs);
  Alcotest.(check int) "congestion bytes" m.Runner.congestion_bytes
    (max_of bytes);
  Alcotest.(check int) "total msgs" m.Runner.total_msgs (sum_of msgs);
  Alcotest.(check int) "total bytes" m.Runner.total_bytes (sum_of bytes)

(* DSM access events must agree with the DSM's own operation counters. *)
let test_dsm_events () =
  let tr, (m : Runner.measurements) = traced_run () in
  let reads = ref 0 and hits = ref 0 and copies = ref 0 in
  List.iter
    (function
      | Trace.Dsm_access { op = Trace.Read; hit; _ } ->
          incr reads;
          if hit then incr hits
      | Trace.Copy_add _ -> incr copies
      | _ -> ())
    (Trace.events tr);
  Alcotest.(check int) "read events" m.Runner.dsm_reads !reads;
  Alcotest.(check int) "read hits" m.Runner.dsm_read_hits !hits;
  Alcotest.(check bool) "copies migrate" true (!copies > 0)

(* (b) Tracing and metrics sampling must not perturb the simulation. *)
let test_zero_perturbation () =
  let plain = run_matmul () in
  let metrics = Metrics.create () in
  let tr = Trace.create () in
  let obs =
    { Runner.null_obs with
      Runner.obs_trace = tr;
      obs_metrics = Some metrics;
      obs_sample_interval = 100.0 }
  in
  let instrumented = run_matmul ~obs () in
  Alcotest.(check (float 0.0)) "time" plain.Runner.time
    instrumented.Runner.time;
  Alcotest.(check int) "congestion bytes" plain.Runner.congestion_bytes
    instrumented.Runner.congestion_bytes;
  Alcotest.(check int) "congestion msgs" plain.Runner.congestion_msgs
    instrumented.Runner.congestion_msgs;
  Alcotest.(check int) "total msgs" plain.Runner.total_msgs
    instrumented.Runner.total_msgs;
  Alcotest.(check int) "startups" plain.Runner.startups
    instrumented.Runner.startups;
  Alcotest.(check (float 0.0)) "max compute" plain.Runner.max_compute
    instrumented.Runner.max_compute;
  Alcotest.(check bool) "sampled" true (Metrics.num_rows metrics > 0)

(* Structural JSON scanner: balanced delimiters outside strings, complete
   escapes. Not a parser, but catches any quoting/nesting bug the writer
   could produce. *)
let structurally_valid_json s =
  let depth = ref 0 and in_str = ref false and esc = ref false in
  let ok = ref true in
  String.iter
    (fun c ->
      if !in_str then
        if !esc then esc := false
        else if c = '\\' then esc := true
        else if c = '"' then in_str := false
        else ()
      else
        match c with
        | '"' -> in_str := true
        | '{' | '[' -> incr depth
        | '}' | ']' ->
            decr depth;
            if !depth < 0 then ok := false
        | _ -> ())
    s;
  !ok && !depth = 0 && (not !in_str) && not !esc

let ts_values s =
  let key = "\"ts\":" in
  let kl = String.length key and n = String.length s in
  let res = ref [] and i = ref 0 in
  while !i + kl <= n do
    if String.sub s !i kl = key then begin
      let j = ref (!i + kl) in
      let start = !j in
      while
        !j < n
        && (match s.[!j] with
           | '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' -> true
           | _ -> false)
      do
        incr j
      done;
      res := float_of_string (String.sub s start (!j - start)) :: !res;
      i := !j
    end
    else incr i
  done;
  List.rev !res

(* (c) The Chrome trace export is well-formed and timestamps are emitted in
   monotone (non-decreasing) order. *)
let test_chrome_export () =
  let tr, _ = traced_run () in
  let s =
    Diva_obs.Chrome_trace.to_string ~num_nodes:16
      ~metadata:[ ("note", Json.String "test \"escape\" \n check") ]
      (Trace.events tr)
  in
  Alcotest.(check bool) "structurally valid" true (structurally_valid_json s);
  let ts = ts_values s in
  Alcotest.(check bool) "has events" true (List.length ts > 100);
  let monotone =
    let rec go = function
      | a :: (b :: _ as rest) -> a <= b && go rest
      | _ -> true
    in
    go ts
  in
  Alcotest.(check bool) "monotone timestamps" true monotone

let test_metrics_csv () =
  let metrics = Metrics.create () in
  let obs =
    { Runner.null_obs with Runner.obs_metrics = Some metrics;
      obs_sample_interval = 500.0 }
  in
  let m = run_matmul ~obs () in
  let csv = Metrics.to_csv metrics in
  let lines = String.split_on_char '\n' (String.trim csv) in
  (match lines with
  | header :: rows ->
      let cols = String.split_on_char ',' header in
      Alcotest.(check string) "first column" "ts_us" (List.hd cols);
      Alcotest.(check bool) "congestion column" true
        (List.mem "congestion_msgs" cols);
      Alcotest.(check bool) "cpu column" true (List.mem "cpus_busy" cols);
      Alcotest.(check int) "row count" (Metrics.num_rows metrics)
        (List.length rows);
      List.iter
        (fun row ->
          Alcotest.(check int) "row width" (List.length cols)
            (List.length (String.split_on_char ',' row)))
        rows;
      (* Covers the whole run: > time/interval rows, monotone stamps. *)
      Alcotest.(check bool) "covers the run" true
        (float_of_int (List.length rows) >= m.Runner.time /. 500.0)
  | [] -> Alcotest.fail "empty csv");
  let stamps = List.map fst (Metrics.rows metrics) in
  let rec mono = function
    | a :: (b :: _ as rest) -> a < b && mono rest
    | _ -> true
  in
  Alcotest.(check bool) "strictly increasing stamps" true (mono stamps)

(* Counter tracks and flow arrows added to the Chrome export. *)
let test_chrome_counters_and_flows () =
  let tr, _ = traced_run () in
  let s = Diva_obs.Chrome_trace.to_string ~num_nodes:16 (Trace.events tr) in
  List.iter
    (fun needle ->
      let n = String.length needle and m = String.length s in
      let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
      Alcotest.(check bool) needle true (n = 0 || go 0))
    [
      "\"in-flight messages\""; "\"busy links\""; "\"copies held\"";
      "\"ph\":\"C\""; "\"ph\":\"s\""; "\"ph\":\"f\""; "\"bp\":\"e\"";
    ]

(* The Prometheus exposition of the final sample. *)
let test_prometheus_export () =
  let m = Metrics.create () in
  Alcotest.(check string) "empty registry" "" (Metrics.to_prometheus m);
  let c = Metrics.counter m "msgs sent" in
  Metrics.gauge m "busy" (fun () -> 3.0);
  Metrics.incr c ~by:2.0 ();
  Metrics.sample m ~ts:10.0;
  Metrics.incr c ~by:5.0 ();
  Metrics.sample m ~ts:250.0;
  let s = Metrics.to_prometheus m in
  List.iter
    (fun line ->
      Alcotest.(check bool) line true
        (List.mem line (String.split_on_char '\n' s)))
    [
      "# TYPE diva_msgs_sent counter";
      "diva_msgs_sent 7";
      "# TYPE diva_busy gauge";
      "diva_busy 3";
      "# TYPE diva_sample_ts_us gauge";
      "diva_sample_ts_us 250";
    ]

(* Golden file: the Chrome export of a fixed small run must stay
   byte-for-byte stable (regenerate with test/gen_golden.exe after an
   intentional format change). *)
let test_chrome_golden () =
  let tr = Trace.create () in
  ignore
    (Runner.run_matmul ~seed:17 ~dims:[| 2; 2 |] ~block:64
       ~obs:{ Runner.null_obs with Runner.obs_trace = tr }
       (Runner.Strategy strategy));
  (* [write_file] (used by gen_golden) terminates the file with a newline. *)
  let got =
    Diva_obs.Chrome_trace.to_string ~num_nodes:4 (Trace.events tr) ^ "\n"
  in
  let path = "data/golden_chrome_2x2.json" in
  let ic = open_in_bin path in
  let want = really_input_string ic (in_channel_length ic) in
  close_in ic;
  if got <> want then
    Alcotest.failf
      "chrome export drifted from %s (%d vs %d bytes); regenerate with dune \
       exec test/gen_golden.exe if intentional"
      path (String.length got) (String.length want)

let test_json_writer () =
  let doc =
    Json.Obj
      [
        ("s", Json.String "a\"b\\c\nd\tcontrol:\x01");
        ("i", Json.Int (-3));
        ("f", Json.Float 1.5);
        ("big", Json.Float 301292.0);
        ("nan", Json.Float Float.nan);
        ("l", Json.List [ Json.Null; Json.Bool true ]);
      ]
  in
  Alcotest.(check string) "rendering"
    "{\"s\":\"a\\\"b\\\\c\\nd\\tcontrol:\\u0001\",\"i\":-3,\"f\":1.5,\"big\":301292,\"nan\":null,\"l\":[null,true]}"
    (Json.to_string doc)

(* The writer as it was before integers and integral floats went through
   a digit loop: [string_of_int] for ints, this for floats. The writer
   must still emit exactly these bytes. *)
let reference_float_repr f =
  if not (Float.is_finite f) then "null"
  else if f = 0.0 then "0"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let s15 = Printf.sprintf "%.15g" f in
    if float_of_string s15 = f then s15
    else
      let s16 = Printf.sprintf "%.16g" f in
      if float_of_string s16 = f then s16 else Printf.sprintf "%.17g" f

let edge_ints =
  [ min_int; min_int + 1; max_int; max_int - 1; 0; -1; 1; -9; 9; -10; 10;
    -99; 100; 999_999_999_999_999_999; -1_000_000_000_000_000_000 ]

let gen_int =
  QCheck.Gen.(
    frequency
      [ (2, oneofl edge_ints); (3, int); (2, map (fun i -> -abs i) int);
        (2, int_range (-100_000) 100_000) ])

let edge_floats =
  [ 1e15 -. 1.0; -.(1e15 -. 1.0); 1e15; -1e15; Float.pred 1e15; Float.succ 1e15;
    -0.0; 0.0; Float.nan; Float.infinity; Float.neg_infinity;
    Float.min_float; Float.pred Float.min_float; Float.succ 0.0;
    -.Float.succ 0.0; Float.max_float; 0.1; 1.5; 301292.0; -2.5e-7 ]

let gen_float =
  QCheck.Gen.(
    frequency
      [ (2, oneofl edge_floats);
        (* every exponent, subnormals and non-finite values included *)
        (3, map Int64.float_of_bits int64);
        (2, map (fun i -> float_of_int (i mod 1_000_000_000_000_000)) int);
        (2, float_range (-1e6) 1e6) ])

let prop_int_bytes =
  QCheck.Test.make ~name:"json ints print like string_of_int" ~count:2000
    (QCheck.make ~print:string_of_int gen_int)
    (fun i -> Json.to_string (Json.Int i) = string_of_int i)

let prop_float_bytes =
  QCheck.Test.make ~name:"json floats print like the Printf reference"
    ~count:5000
    (QCheck.make ~print:(Printf.sprintf "%h") gen_float)
    (fun f -> Json.to_string (Json.Float f) = reference_float_repr f)

(* JSON documents that read back as themselves: floats are finite and
   non-integral (integral ones read back as [Int]), strings are arbitrary
   bytes. *)
let gen_doc ~exact =
  let open QCheck.Gen in
  let scalar =
    frequency
      [ (1, return Json.Null); (1, map (fun b -> Json.Bool b) bool);
        (3, map (fun i -> Json.Int i) gen_int);
        ( 3,
          map
            (fun f ->
              if exact && not (Float.is_finite f && not (Float.is_integer f))
              then Json.Float 0.25
              else Json.Float f)
            gen_float );
        (2, map (fun s -> Json.String s) (string_size (int_bound 12))) ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 1 then scalar
         else
           frequency
             [ (2, scalar);
               (1, map (fun l -> Json.List l) (list_size (int_bound 4) (self (n / 4))));
               ( 1,
                 map
                   (fun kvs -> Json.Obj kvs)
                   (list_size (int_bound 4)
                      (pair (string_size (int_bound 6)) (self (n / 4))))) ])

let prop_roundtrip =
  QCheck.Test.make ~name:"json of_string (to_string j) = j" ~count:1000
    (QCheck.make ~print:Json.to_string (gen_doc ~exact:true))
    (fun j -> Json.of_string (Json.to_string j) = Ok j)

let prop_reprint =
  QCheck.Test.make ~name:"json reprinting a parsed document is stable"
    ~count:1000
    (QCheck.make ~print:Json.to_string (gen_doc ~exact:false))
    (fun j ->
      let s = Json.to_string j in
      match Json.of_string s with
      | Ok j' -> Json.to_string j' = s
      | Error _ -> false)

(* Integral floats outside the int range must not read back as some
   wrapped int: a damaged trace field is rejected, not silently 0. *)
let test_json_to_int_range () =
  let check what want f =
    Alcotest.(check (option int)) what want (Json.to_int (Json.Float f))
  in
  check "1e300" None 1e300;
  check "-9.3e18" None (-9.3e18);
  check "2^62" None 4611686018427387904.0;
  check "-2^62 is min_int" (Some min_int) (-4611686018427387904.0);
  check "-3.0" (Some (-3)) (-3.0);
  check "nan" None Float.nan;
  check "fractional" None 2.5;
  Alcotest.(check (option int)) "parsed 1e300" None
    (Option.bind (Result.to_option (Json.of_string "1e300")) Json.to_int)

let suite =
  [
    Alcotest.test_case "link aggregation = Link_stats" `Quick
      test_link_aggregation;
    Alcotest.test_case "dsm events = dsm counters" `Quick test_dsm_events;
    Alcotest.test_case "tracing does not perturb the run" `Quick
      test_zero_perturbation;
    Alcotest.test_case "chrome export well-formed + monotone" `Quick
      test_chrome_export;
    Alcotest.test_case "metrics csv shape" `Quick test_metrics_csv;
    Alcotest.test_case "chrome counters and flows" `Quick
      test_chrome_counters_and_flows;
    Alcotest.test_case "prometheus export" `Quick test_prometheus_export;
    Alcotest.test_case "chrome export golden file" `Quick test_chrome_golden;
    Alcotest.test_case "json writer escaping" `Quick test_json_writer;
    Alcotest.test_case "json to_int range" `Quick test_json_to_int_range;
    QCheck_alcotest.to_alcotest prop_int_bytes;
    QCheck_alcotest.to_alcotest prop_float_bytes;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_reprint;
  ]
