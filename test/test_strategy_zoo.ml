(* Unit tests for the strategy-zoo additions: the registry's name
   resolution, the decorated display names, and the observable behaviour
   that distinguishes the new contenders from the paper's pair —
   adaptive home migration actually migrating. *)

module Dsm = Diva_core.Dsm
module Strategy = Diva_core.Strategy
module Registry = Diva_core.Registry

(* The adaptive home with some thresholds off their defaults. *)
let adaptive ?(replicate_after = Strategy.adaptive_defaults.replicate_after)
    ?(migrate_after = Strategy.adaptive_defaults.migrate_after) () =
  Dsm.Adaptive { Strategy.replicate_after; migrate_after }

let test_registry_names () =
  Alcotest.(check (list string))
    "presentation order"
    [
      "access_tree";
      "fixed_home";
      "adaptive_repl";
      "capacity_lru";
      "capacity_freq";
    ]
    (Registry.names ())

let test_registry_find () =
  let canonical name = Registry.find name in
  List.iter
    (fun (alias, target) ->
      if Registry.find alias <> canonical target then
        Alcotest.failf "alias %S should resolve to %S" alias target)
    [
      ("Access-Tree", "access_tree");
      ("ACCESS_TREE", "access_tree");
      ("adaptive", "adaptive_repl");
      ("adaptive-home", "adaptive_repl");
      ("home", "fixed_home");
      ("fixedhome", "fixed_home");
      ("capacity-LRU", "capacity_lru");
    ];
  (match Registry.find "fixed_home" with
  | Some Dsm.Fixed_home -> ()
  | _ -> Alcotest.fail "fixed_home should resolve to Fixed_home");
  Alcotest.(check bool) "unknown name" true (Registry.find "bogus" = None);
  Alcotest.(check int) "contenders cover every name"
    (List.length (Registry.names ()))
    (List.length (Registry.contenders ()))

let test_display_names () =
  let name n =
    match Registry.find n with
    | Some spec -> Dsm.strategy_name spec
    | None -> Alcotest.failf "missing registry entry %s" n
  in
  List.iter
    (fun (entry, expect) ->
      Alcotest.(check string) entry expect (name entry))
    [
      ("access_tree", "4-ary");
      ("fixed_home", "fixed home");
      ("adaptive_repl", "adaptive-home");
      ("capacity_lru", "4-ary+cap64k");
      ("capacity_freq", "4-ary+cap64k+freq-evict");
    ]

(* The home policy's parameters are counts of at least one: a zero
   replication streak or migration window is rejected when the strategy
   is instantiated. *)
let test_adaptive_policy_validation () =
  List.iter
    (fun (what, strategy) ->
      let net = Helpers.make_net ~seed:3 ~rows:2 ~cols:2 () in
      match Dsm.create net ~strategy () with
      | _ -> Alcotest.failf "%s accepted" what
      | exception Invalid_argument _ -> ())
    [
      ("replicate_after = 0", adaptive ~replicate_after:0 ());
      ("migrate_after = 0", adaptive ~migrate_after:0 ());
    ]

(* A writer on proc 0 and a reader on proc 1 alternate under barriers.
   Whichever processor the variable's home hashes to, the remote side's
   transactions dominate some tally window, so the home migrates at
   least once — and correctness must survive the move. *)
let test_adaptive_migration () =
  let net, dsm =
    Helpers.make_dsm ~seed:5 ~rows:4 ~cols:4 (adaptive ~migrate_after:8 ())
  in
  let v = Dsm.create_var dsm ~owner:0 ~size:64 0 in
  Helpers.run_procs net (fun p ->
      for i = 1 to 30 do
        if p = 0 then Dsm.write dsm 0 v i;
        Dsm.barrier dsm p;
        if p = 1 then
          Alcotest.(check int) "reader sees latest" i (Dsm.read dsm 1 v);
        Dsm.barrier dsm p
      done;
      Alcotest.(check int) "final value everywhere" 30 (Dsm.read dsm p v));
  Alcotest.(check bool) "home migrated at least once" true
    (Dsm.remaps dsm >= 1);
  match Dsm.validate_var dsm v with
  | Ok () -> ()
  | Error e -> Alcotest.failf "post-run validate: %s" e

let suite =
  [
    Alcotest.test_case "registry names" `Quick test_registry_names;
    Alcotest.test_case "registry aliases resolve" `Quick test_registry_find;
    Alcotest.test_case "display names" `Quick test_display_names;
    Alcotest.test_case "adaptive policy validation" `Quick
      test_adaptive_policy_validation;
    Alcotest.test_case "adaptive home migrates" `Quick test_adaptive_migration;
  ]
