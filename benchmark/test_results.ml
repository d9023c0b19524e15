(* Tests of the diva-benchmark/1 artifact, of --compare's verdicts, and
   of the smoke runs.

     test_results.exe
       round trip; truncated, mutated and wrong-version files are errors;
       verdicts
     test_results.exe BENCHMARK.json A.json B.json
       additionally: two smoke results name every metric of BENCHMARK.json
       with its unit, failed nothing, and have identical simulated digests *)

module R = Results
module Json = Diva_obs.Json

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let sample =
  let m name unit better bound clock = { R.name; unit; better; bound; clock } in
  {
    R.seed = -3;
    smoke = true;
    reps = 2;
    metrics =
      [
        m "wall_s" "s" "lower" 0.1 R.Host;
        m "startups" "count" "lower" 0.02 R.Simulated;
        m "sim.events_per_s" "1/s" "higher" 0.0 R.Host;
      ];
    micro = [ ("event_queue.op_ns_d64", 131.25); ("sim.event_ns", 1e-300) ];
    workloads =
      [
        {
          R.w_name = "matmul-32";
          w_digest = "0123abcd";
          w_attempted = 9;
          w_failed = 1;
          w_checks = [ ("reads_equal_blocks_read", true); ("quoted \"check\"\n", false) ];
          w_samples = [ ("wall_s", [ 1.25; 0.1; 123456789.123 ]); ("startups", [ 2.0; 2.0 ]) ];
          w_layer = [ ("sim.events_per_s", 4.5e6); ("neg", -0.5) ];
        };
        {
          R.w_name = "traffic-64";
          w_digest = "";
          w_attempted = 0;
          w_failed = 0;
          w_checks = [];
          w_samples = [];
          w_layer = [];
        };
      ];
  }

let round_trip () =
  let s = Json.to_string (R.to_json sample) in
  (match R.of_string s with
  | Ok t -> check "round trip preserves the value" (t = sample)
  | Error e -> check ("round trip: " ^ e) false);
  (* Every proper prefix is an error. *)
  for n = 0 to String.length s - 1 do
    match R.of_string (String.sub s 0 n) with
    | Ok _ -> check (Printf.sprintf "truncated at %d accepted" n) false
    | Error _ -> ()
    | exception e -> check ("truncated file raised " ^ Printexc.to_string e) false
  done;
  (* Every single-byte change is an error, unless it left the content
     unchanged (e.g. 1e5 -> 1E5). *)
  String.iteri
    (fun i c ->
      List.iter
        (fun c' ->
          if c' <> c then begin
            let b = Bytes.of_string s in
            Bytes.set b i c';
            match R.of_string (Bytes.to_string b) with
            | Ok t -> check (Printf.sprintf "mutation at %d accepted" i) (t = sample)
            | Error _ -> ()
            | exception e -> check ("mutated file raised " ^ Printexc.to_string e) false
          end)
        [ '0'; '9'; 'x'; '"'; '}'; ' ' ])
    s;
  (* A future version is rejected even with a valid checksum. *)
  let body =
    List.map
      (fun (k, v) -> if k = "schema" then (k, Json.String "diva-benchmark/2") else (k, v))
      (R.body sample)
  in
  let v2 = Json.Obj (body @ [ ("checksum", Json.String (R.checksum body)) ]) in
  check "newer version rejected" (Result.is_error (R.of_string (Json.to_string v2)));
  check "non-object rejected" (Result.is_error (R.of_string "[1,2]"));
  check "missing file is an error" (Result.is_error (R.read "no-such-file.json"))

let verdicts () =
  let host = { R.name = "wall_s"; unit = "s"; better = "lower"; bound = 0.1; clock = R.Host } in
  let sim = { host with R.name = "startups"; clock = R.Simulated } in
  let v name m base nw expected =
    check ("verdict: " ^ name) (R.verdict m ~base ~nw = expected)
  in
  v "within the bound" host [ 1.0; 1.01; 0.99 ] [ 1.05; 1.06; 1.04 ] R.Same;
  v "past the bound" host [ 1.0; 1.01; 0.99 ] [ 1.2; 1.21; 1.19 ] R.Worse;
  v "better past the bound" host [ 1.0; 1.01; 0.99 ] [ 0.8; 0.81; 0.79 ] R.Better;
  v "spread wider than the bound" host [ 1.0; 1.5; 0.7; 1.2 ] [ 1.1; 1.6; 0.8; 1.3 ] R.Unresolved;
  v "wide spread, every new run better" host [ 1.0; 1.5; 1.3; 1.2 ] [ 0.5; 0.9; 0.6; 0.7 ] R.Better;
  v "simulated change is exact" sim [ 100.0; 100.0 ] [ 101.0; 101.0 ] R.Worse;
  v "simulated equal" sim [ 100.0 ] [ 100.0 ] R.Same

let smoke spec_path a b =
  match (R.load_spec spec_path, R.read a, R.read b) with
  | Error e, _, _ | _, Error e, _ | _, _, Error e -> check e false
  | Ok spec, Ok ra, Ok rb ->
      List.iter
        (fun (m : R.metric) ->
          check
            (Printf.sprintf "%s listed with unit %s" m.R.name m.R.unit)
            (List.exists (fun (x : R.metric) -> x.R.name = m.R.name && x.R.unit = m.R.unit) ra.R.metrics))
        (spec.R.end_to_end @ spec.R.per_layer);
      List.iter
        (fun name ->
          match
            ( List.find_opt (fun w -> w.R.w_name = name) ra.R.workloads,
              List.find_opt (fun w -> w.R.w_name = name) rb.R.workloads )
          with
          | Some wa, Some wb ->
              check (name ^ ": no failures") (wa.R.w_failed = 0 && wb.R.w_failed = 0);
              check (name ^ ": identical simulated digests")
                (wa.R.w_digest <> "" && wa.R.w_digest = wb.R.w_digest);
              List.iter
                (fun (m : R.metric) ->
                  check (name ^ ": has " ^ m.R.name)
                    (match List.assoc_opt m.R.name wa.R.w_samples with
                    | Some (_ :: _) -> true
                    | _ -> false))
                spec.R.end_to_end;
              List.iter
                (fun (m : R.metric) ->
                  check (name ^ ": has " ^ m.R.name) (List.mem_assoc m.R.name wa.R.w_layer))
                spec.R.per_layer
          | _ -> check (name ^ " present in both results") false)
        spec.R.workloads

let () =
  round_trip ();
  verdicts ();
  (match Sys.argv with
  | [| _; spec; a; b |] -> smoke spec a b
  | [| _ |] -> ()
  | _ -> check "usage: test_results.exe [BENCHMARK.json A.json B.json]" false);
  if !failures > 0 then exit 1;
  print_endline "benchmark results tests: ok"
