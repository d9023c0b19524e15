(* Unit tests for the strategy-zoo additions: the registry's name
   resolution, the decorated display names, and the observable behaviour
   that distinguishes the new contenders from the paper's pair —
   adaptive home migration actually migrating. *)

module Dsm = Diva_core.Dsm
module Strategy = Diva_core.Strategy
module Registry = Diva_core.Registry

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
  Alcotest.(check int) "contenders cover every entry"
    (List.length Registry.entries)
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

let test_strategy_ids () =
  List.iter
    (fun (e : Registry.entry) ->
      let net = Helpers.make_net ~seed:3 ~rows:2 ~cols:2 () in
      let dsm = Dsm.create net ~strategy:e.Registry.spec () in
      let expect =
        match e.Registry.spec with
        | Dsm.Access_tree _ -> "access-tree"
        | Dsm.Fixed_home -> "fixed-home"
        | Dsm.Adaptive _ -> "adaptive"
      in
      Alcotest.(check string)
        (e.Registry.name ^ " family id") expect (Dsm.strategy_id dsm))
    Registry.entries

(* A writer on proc 0 and a reader on proc 1 alternate under barriers.
   Whichever processor the variable's home hashes to, the remote side's
   transactions dominate some tally window, so the home migrates at
   least once — and correctness must survive the move. *)
let test_adaptive_migration () =
  let net, dsm =
    Helpers.make_dsm ~seed:5 ~rows:4 ~cols:4 (Dsm.adaptive ~migrate_after:8 ())
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
    Alcotest.test_case "family ids" `Quick test_strategy_ids;
    Alcotest.test_case "adaptive home migrates" `Quick test_adaptive_migration;
  ]
