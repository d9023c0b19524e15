(* End-to-end pins of the divasim command line. Each case runs the built
   [bin/divasim.exe] in a fresh scratch directory and compares its stdout
   and every artifact it writes, byte for byte, with the expected files
   under [data/cli/] ([<case>.stdout], [<case>.<artifact>]). Meshes are
   4x4 or smaller so the whole suite takes a few seconds; large artifacts
   are pinned by digest (see [pinned_bytes]).

   On a mismatch the actual bytes are left in [cli-actual/] next to the
   test executable (under _build), so an intended change can be reviewed
   and copied over. *)

let cwd = Sys.getcwd ()
let exe = Filename.concat cwd "../bin/divasim.exe"
let expected_dir = Filename.concat cwd "data/cli"
let actual_dir = Filename.concat cwd "cli-actual"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

let copy_file ~src ~dst = write_file dst (read_file src)

type outcome = { code : int; stdout : string; stderr : string; dir : string }

(* Run divasim with [args] in a fresh directory holding copies of
   [inputs] ((name in the directory, path under data/)), hand the outcome
   to [f], then delete the directory. Paths passed as arguments are
   relative, so recorded paths are the same on every machine. *)
let with_run ?(inputs = []) args f =
  let dir = Filename.temp_dir "divasim-cli" "" in
  Fun.protect ~finally:(fun () ->
      Array.iter
        (fun n -> Sys.remove (Filename.concat dir n))
        (Sys.readdir dir);
      Sys.rmdir dir)
  @@ fun () ->
  List.iter
    (fun (name, src) ->
      copy_file ~src:(Filename.concat cwd ("data/" ^ src))
        ~dst:(Filename.concat dir name))
    inputs;
  let cmd =
    Printf.sprintf "cd %s && %s %s >stdout 2>stderr" (Filename.quote dir)
      (Filename.quote exe)
      (String.concat " " (List.map Filename.quote args))
  in
  let code = Sys.command cmd in
  f
    {
      code;
      stdout = read_file (Filename.concat dir "stdout");
      stderr = read_file (Filename.concat dir "stderr");
      dir;
    }

(* Compare every (name, actual bytes) pair with its expected file. All
   mismatches are saved to [cli-actual/] before the first one fails. *)
let check_all outputs =
  let expected name =
    let path = Filename.concat expected_dir name in
    if Sys.file_exists path then Some (read_file path) else None
  in
  List.iter
    (fun (name, actual) ->
      if expected name <> Some actual then begin
        if not (Sys.file_exists actual_dir) then Sys.mkdir actual_dir 0o755;
        write_file (Filename.concat actual_dir name) actual
      end)
    outputs;
  List.iter
    (fun (name, actual) ->
      match expected name with
      | None ->
          Alcotest.failf "%s: no expected file (actual in cli-actual/)" name
      | Some e -> Alcotest.(check string) name e actual)
    outputs

(* Artifacts above 32 KiB are pinned by their first line (at most 512
   bytes: an event trace's header) and the size, line count and MD5 of
   the whole file, so the expected files stay small. *)
let pinned_bytes s =
  if String.length s <= 32768 then s
  else
    let first =
      match String.index_opt s '\n' with Some i -> String.sub s 0 i | None -> s
    in
    let first =
      if String.length first > 512 then String.sub first 0 512 else first
    in
    let lines =
      String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 s
    in
    Printf.sprintf "%s\n... %d bytes, %d lines, md5 %s\n" first
      (String.length s) lines
      (Digest.to_hex (Digest.string s))

(* A pinned invocation: exit 0, stdout and [files] as expected. *)
let pin ?inputs name args files =
  Alcotest.test_case ("pin " ^ name) `Quick (fun () ->
      with_run ?inputs args @@ fun o ->
      if o.code <> 0 then
        Alcotest.failf "%s exited %d: %s" name o.code o.stderr;
      check_all
        ((name ^ ".stdout", o.stdout)
        :: List.map
             (fun f ->
               let path = Filename.concat o.dir f in
               if not (Sys.file_exists path) then
                 Alcotest.failf "%s: %s not written" name f;
               (name ^ "." ^ f, pinned_bytes (read_file path)))
             files))

let trace_in = [ ("in.jsonl", "golden_events_2x2.jsonl") ]
let faults_in = [ ("faults.json", "cli/faults.json") ]

let pins =
  [
    pin ~inputs:faults_in "matmul"
      [ "matmul"; "--mesh"; "4x4"; "--block"; "64"; "--heatmap";
        "--faults"; "faults.json"; "--events"; "ev.jsonl"; "--manifest";
        "man.json"; "--metrics"; "met.csv"; "--prom"; "met.prom"; "--trace";
        "chrome.json" ]
      [ "ev.jsonl"; "man.json"; "met.csv"; "met.prom"; "chrome.json" ];
    pin "matmul-handopt"
      [ "matmul"; "--mesh"; "2x2"; "--block"; "64"; "--strategy";
        "hand-optimized"; "--compute"; "--manifest"; "man.json" ]
      [ "man.json" ];
    pin "bitonic"
      [ "bitonic"; "--mesh"; "4x4"; "--keys"; "64"; "--strategy";
        "fixed-home"; "--metrics"; "met.json"; "--manifest"; "man.json" ]
      [ "met.json"; "man.json" ];
    pin "bitonic-handopt"
      [ "bitonic"; "--mesh"; "2x2x2"; "--keys"; "32"; "--strategy";
        "hand-optimized" ]
      [];
    pin "nbody"
      [ "nbody"; "--mesh"; "2x2"; "--bodies"; "64"; "--steps"; "3";
        "--phases"; "--events"; "ev.jsonl"; "--manifest"; "man.json" ]
      [ "ev.jsonl"; "man.json" ];
    pin "analyze-matmul"
      [ "analyze"; "--mesh"; "4x4"; "--app"; "matmul"; "--block"; "64";
        "--json"; "a.json"; "--events"; "ev.jsonl"; "--snapshots" ]
      [ "a.json"; "ev.jsonl" ];
    pin "analyze-bitonic"
      [ "analyze"; "--mesh"; "2x2"; "--app"; "bitonic"; "--keys"; "64";
        "--strategy"; "fixed-home"; "--json"; "a.json"; "--events";
        "ev.jsonl"; "--snapshots" ]
      [ "a.json"; "ev.jsonl" ];
    pin "analyze-nbody"
      [ "analyze"; "--mesh"; "2x2"; "--app"; "nbody"; "--bodies"; "48";
        "--json"; "a.json"; "--events"; "ev.jsonl"; "--snapshots" ]
      [ "a.json"; "ev.jsonl" ];
    pin ~inputs:trace_in "analyze-replay"
      [ "analyze"; "--replay"; "in.jsonl"; "--strategy"; "2-ary"; "--json";
        "a.json"; "--events"; "ev.jsonl"; "--snapshots" ]
      [ "a.json"; "ev.jsonl" ];
    pin ~inputs:trace_in "analyze-offline"
      [ "analyze"; "--offline"; "in.jsonl"; "--json"; "a.json";
        "--snapshots"; "--windows"; "4" ]
      [ "a.json" ];
    pin "workload"
      [ "workload"; "--mesh"; "4x4"; "--vars"; "32"; "--ops"; "20";
        "--zipf"; "0.9"; "--lock-every"; "5"; "--events"; "ev.jsonl";
        "--manifest"; "man.json" ]
      [ "ev.jsonl"; "man.json" ];
    pin ~inputs:trace_in "workload-replay"
      [ "workload"; "--replay"; "in.jsonl"; "--replay-mode"; "open";
        "--strategy"; "fixed-home"; "--events"; "ev.jsonl"; "--manifest";
        "man.json" ]
      [ "ev.jsonl"; "man.json" ];
    pin "workload-smoke" [ "workload"; "--smoke" ] [];
    pin "serve"
      [ "serve"; "--mesh"; "4x4"; "--rate"; "3000"; "--horizon-ms"; "50";
        "--events"; "ev.jsonl"; "--manifest"; "man.json" ]
      [ "ev.jsonl"; "man.json" ];
    pin "serve-sweep"
      [ "serve"; "--mesh"; "2x2"; "--horizon-ms"; "20"; "--sweep";
        "500,2000"; "--sweep-out"; "sw.json" ]
      [ "sw.json" ];
  ]

(* Every subcommand's [--help=plain]: no flag is added, removed or
   re-defaulted unseen. *)
let helps =
  List.map
    (fun cmd ->
      let name =
        "help-" ^ String.concat "-" (if cmd = [] then [ "divasim" ] else cmd)
      in
      pin name (cmd @ [ "--help=plain" ]) [])
    [ []; [ "matmul" ]; [ "bitonic" ]; [ "nbody" ]; [ "analyze" ];
      [ "workload" ]; [ "chaos" ]; [ "traffic" ]; [ "serve" ]; [ "profile" ];
      [ "trace" ]; [ "trace"; "merge" ] ]

(* Host-timed outputs vary run to run: check exit code and schema only. *)
let host_timed =
  Alcotest.test_case "host-timed outputs" `Quick (fun () ->
      with_run
        [ "matmul"; "--mesh"; "2x2"; "--block"; "64"; "--prof"; "p.json";
          "--ticker"; "--flight"; "fl.json" ]
      @@ fun o ->
      Alcotest.(check int) "exit" 0 o.code;
      let prof = read_file (Filename.concat o.dir "p.json") in
      (match Diva_obs.Json.of_string prof with
      | Ok j ->
          Alcotest.(check (option string))
            "schema" (Some "diva-prof/1")
            (Option.bind (Diva_obs.Json.member "schema" j) Diva_obs.Json.to_str)
      | Error e -> Alcotest.fail e);
      Alcotest.(check bool)
        "no flight dump on success" false
        (Sys.file_exists (Filename.concat o.dir "fl.json")))

(* Every registry strategy completes matmul and a short service run. *)
let strategy_matrix =
  Alcotest.test_case "every registry strategy" `Quick (fun () ->
      List.iter
        (fun s ->
          List.iter
            (fun args ->
              with_run (args @ [ "--strategy"; s ]) @@ fun o ->
              if o.code <> 0 then
                Alcotest.failf "%s %s exited %d: %s" (List.hd args) s o.code
                  o.stderr)
            [ [ "matmul"; "--mesh"; "4x4"; "--block"; "64" ];
              [ "serve"; "--mesh"; "4x4"; "--rate"; "3000"; "--horizon-ms";
                "50" ] ])
        (Diva_core.Registry.names ()))

(* A rejected run is a one-line error and a non-zero exit before anything
   is simulated, never an uncaught exception. *)
let rejects ?inputs name args =
  Alcotest.test_case ("rejects " ^ name) `Quick (fun () ->
      with_run ?inputs args @@ fun o ->
      (* 125 is the uncaught-exception exit; 126/127 the shell's. *)
      if List.mem o.code [ 0; 125; 126; 127 ] then
        Alcotest.failf "%s: exit %d, stderr %S" name o.code o.stderr;
      let contains s sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "no uncaught exception" false
        (contains o.stderr "uncaught exception");
      Alcotest.(check bool) "divasim: message" true
        (String.starts_with ~prefix:"divasim" o.stderr);
      Alcotest.(check string) "nothing simulated" "" o.stdout)

let rejections =
  [
    rejects "non-square matmul mesh" [ "matmul"; "--mesh"; "2x4" ];
    rejects "3-D matmul mesh" [ "matmul"; "--mesh"; "2x2x2" ];
    rejects "bitonic on a non-power-of-two mesh" [ "bitonic"; "--mesh"; "3x3" ];
    rejects "hand-optimized nbody" [ "nbody"; "--strategy"; "hand-optimized" ];
    rejects "hand-optimized serve"
      [ "serve"; "--mesh"; "2x2"; "--strategy"; "hand-optimized" ];
    rejects "hand-optimized workload"
      [ "workload"; "--mesh"; "2x2"; "--strategy"; "hand-optimized" ];
    rejects ~inputs:trace_in "hand-optimized workload replay"
      [ "workload"; "--replay"; "in.jsonl"; "--strategy"; "hand-optimized" ];
    rejects "hand-optimized analyze"
      [ "analyze"; "--mesh"; "2x2"; "--app"; "nbody"; "--strategy";
        "hand-optimized" ];
    rejects "zipf with hot-cold"
      [ "workload"; "--mesh"; "2x2"; "--zipf"; "0.9"; "--hot-cold"; "0.1:0.9" ];
    rejects "empty workload key space"
      [ "workload"; "--mesh"; "2x2"; "--vars"; "0" ];
    rejects "empty service key space"
      [ "serve"; "--mesh"; "2x2"; "--keys"; "0" ];
    rejects "3-D traffic mesh" [ "traffic"; "--mesh"; "2x2x2" ];
    rejects "analyze --events into a missing directory"
      [ "analyze"; "--mesh"; "2x2"; "--events"; "no/such/dir/x" ];
    rejects "analyze --json into a missing directory"
      [ "analyze"; "--mesh"; "2x2"; "--json"; "no/such/dir/x" ];
    rejects "matmul --events into a missing directory"
      [ "matmul"; "--mesh"; "2x2"; "--events"; "no/such/dir/x" ];
  ]

let suite = pins @ helps @ [ host_timed; strategy_matrix ] @ rejections
