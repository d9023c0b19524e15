(* Golden byte tests for the registry strategies.

   Every registry strategy but [access_tree] has a committed golden event
   trace of the fixed matmul run (2x2 mesh, block 64, seed 17); the tests
   re-run the simulation, record it through [Streaming.file_sink] and
   require the file to match byte for byte. [access_tree]'s golden is
   [golden_events_2x2.jsonl], replayed by the streaming tests.
   Together with the 4-ary and chrome goldens this pins the
   protocols' entire observable behaviour — any unintended change to
   message order, sizes, timing or trace encoding fails here.

   Regenerate with `dune exec test/gen_golden.exe` after an intentional
   change. *)

module Runner = Diva_harness.Runner
module Registry = Diva_core.Registry
module Trace = Diva_obs.Trace
module Streaming = Diva_obs.Streaming
module Machine = Diva_simnet.Machine
module Json = Diva_obs.Json

let golden_bytes name =
  let spec =
    match Registry.find name with
    | Some s -> s
    | None -> Alcotest.failf "unknown registry strategy %s" name
  in
  let tr = Trace.create () in
  ignore
    (Runner.run_matmul ~seed:17 ~dims:[| 2; 2 |] ~block:64
       ~obs:{ Runner.null_obs with Runner.obs_trace = tr }
       (Runner.Strategy spec));
  let m = Machine.gcel in
  let header =
    Streaming.make_header
      ~params:[ ("block", Json.Int 64) ]
      ~app:"matmul" ~dims:[| 2; 2 |] ~strategy:name ~seed:17
      ~overheads:
        { Diva_obs.Analysis.send_overhead = m.Machine.send_overhead;
          recv_overhead = m.Machine.recv_overhead;
          local_overhead = m.Machine.local_overhead }
      ()
  in
  Helpers.trace_file_bytes header (Trace.events tr)

let check_golden name () =
  let got = golden_bytes name in
  let path = Printf.sprintf "data/golden_events_2x2_%s.jsonl" name in
  let ic = open_in_bin path in
  let want = really_input_string ic (in_channel_length ic) in
  close_in ic;
  if got <> want then
    Alcotest.failf
      "%s event trace drifted from %s (%d vs %d bytes); regenerate with \
       dune exec test/gen_golden.exe if intentional"
      name path (String.length got) (String.length want)

(* The registry strategies with a named golden: all but [access_tree]. *)
let golden_names () = List.filter (( <> ) "access_tree") (Registry.names ())

(* Goldens and registry entries pair up one to one, so deleting a
   contender cannot leave its golden behind, nor adding one skip its
   golden. *)
let test_goldens_match_registry () =
  let prefix = "golden_events_2x2_" in
  let named f =
    match Filename.chop_suffix_opt ~suffix:".jsonl" f with
    | Some b when String.starts_with ~prefix b ->
        Some (String.sub b (String.length prefix) (String.length b - String.length prefix))
    | _ -> None
  in
  Alcotest.(check (list string)) "one golden per registry strategy"
    (List.sort compare (golden_names ()))
    (List.sort compare (List.filter_map named (Array.to_list (Sys.readdir "data"))))

let suite =
  List.map
    (fun name ->
      Alcotest.test_case (name ^ " matmul golden bytes") `Quick
        (check_golden name))
    (golden_names ())
  @ [
      Alcotest.test_case "goldens match the registry" `Quick
        test_goldens_match_registry;
    ]
