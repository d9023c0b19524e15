(* Protocol-level tests of the two strategies' distinctive mechanics, plus
   growth-order checks corresponding to the paper's Figure 2 analysis. *)

module Network = Diva_simnet.Network
module Link_stats = Diva_simnet.Link_stats
module Dsm = Diva_core.Dsm
module Access_tree = Diva_core.Access_tree
module Fixed_home = Diva_core.Fixed_home
module Types = Diva_core.Types
open Helpers

(* --- fixed home ownership mechanics --------------------------------- *)

let test_fh_owner_write_is_local () =
  let net, dsm = make_dsm ~rows:4 ~cols:4 Dsm.Fixed_home in
  let v = Dsm.create_var dsm ~owner:3 ~size:64 0 in
  run_procs net (fun p ->
      if p = 3 then begin
        (* The creator owns the variable: repeated writes must stay local. *)
        for i = 1 to 10 do
          Dsm.write dsm p v i
        done
      end);
  Alcotest.(check int) "value" 10 (Dsm.peek v);
  Alcotest.(check int) "no messages at all" 0
    (Link_stats.total_msgs (Network.stats net))

let test_fh_write_takes_ownership () =
  let net, dsm = make_dsm ~rows:4 ~cols:4 Dsm.Fixed_home in
  let v = Dsm.create_var dsm ~owner:0 ~size:64 0 in
  let before = ref 0 and after = ref 0 in
  run_procs net (fun p ->
      if p = 5 then begin
        ignore (Dsm.read dsm p v);
        Dsm.write dsm p v 1;
        before := Link_stats.total_msgs (Network.stats net);
        (* Now p owns the variable: further writes are free. *)
        for i = 2 to 8 do
          Dsm.write dsm p v i
        done;
        after := Link_stats.total_msgs (Network.stats net)
      end);
  Alcotest.(check int) "value" 8 (Dsm.peek v);
  Alcotest.(check int) "owner writes cost nothing" !before !after

let test_fh_read_moves_ownership_home () =
  (* After a non-owner read, the ownership is back at the home, so the
     ex-owner's next write must go through the home again. *)
  let net, dsm = make_dsm ~rows:4 ~cols:4 Dsm.Fixed_home in
  let v = Dsm.create_var dsm ~owner:0 ~size:64 0 in
  run_procs net (fun p ->
      if p = 0 then Dsm.write dsm p v 7;
      Dsm.barrier dsm p;
      if p = 9 then Alcotest.(check int) "reader sees it" 7 (Dsm.read dsm p v);
      Dsm.barrier dsm p;
      if p = 0 then begin
        let m0 = Link_stats.total_msgs (Network.stats net) in
        Dsm.write dsm p v 8;
        let m1 = Link_stats.total_msgs (Network.stats net) in
        Alcotest.(check bool) "write after remote read costs messages" true
          (m1 > m0)
      end);
  Alcotest.(check int) "value" 8 (Dsm.peek v)

let test_fh_home_assignment_spreads () =
  let net, dsm = make_dsm ~rows:8 ~cols:8 Dsm.Fixed_home in
  ignore net;
  let homes = Hashtbl.create 64 in
  for _ = 1 to 200 do
    let v = Dsm.create_var dsm ~owner:0 ~size:8 0 in
    match Dsm.access_tree_handle dsm with
    | Some _ -> ()
    | None -> Hashtbl.replace homes (Dsm.copy_holder_places dsm v) ()
  done;
  (* The copies all start at the owner, but homes must be spread: check via
     the internal seed-derived placement being diverse is covered by the
     embedding tests; here we only require the API to be consistent. *)
  Alcotest.(check bool) "holders are the owner" true (Hashtbl.length homes = 1)

(* --- access tree component shapes ------------------------------------ *)

let at_of dsm =
  match Dsm.access_tree_handle dsm with
  | Some at -> at
  | None -> Alcotest.fail "expected an access-tree DSM"

let test_at_read_creates_path_component () =
  let net, dsm = make_dsm ~rows:4 ~cols:4 (Dsm.access_tree ~arity:2 ()) in
  let v = Dsm.create_var dsm ~owner:0 ~size:64 42 in
  run_procs net (fun p -> if p = 15 then ignore (Dsm.read dsm p v));
  let at = at_of dsm in
  let holders = Access_tree.copy_holders at (Dsm.typed v) in
  (* The component is the tree path leaf(0) .. leaf(15). *)
  Alcotest.(check bool) "more than one copy" true (List.length holders > 1);
  Alcotest.(check int) "ncopies consistent" (List.length holders)
    (Access_tree.ncopies at (Dsm.typed v));
  (match Access_tree.validate at (Dsm.typed v) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  ignore net

let test_at_write_shrinks_component () =
  let net, dsm = make_dsm ~rows:4 ~cols:4 (Dsm.access_tree ~arity:2 ()) in
  let v = Dsm.create_var dsm ~owner:0 ~size:64 0 in
  let after_reads = ref 0 and after_write = ref 0 in
  run_procs net (fun p ->
      ignore (Dsm.read dsm p v);
      Dsm.barrier dsm p;
      if p = 0 then after_reads := Dsm.ncopies dsm v;
      Dsm.barrier dsm p;
      if p = 10 then Dsm.write dsm p v 1;
      Dsm.barrier dsm p;
      if p = 0 then after_write := Dsm.ncopies dsm v);
  Alcotest.(check bool) "reads grow the component" true (!after_reads >= 16);
  Alcotest.(check bool) "write shrinks it sharply" true
    (!after_write < !after_reads / 2);
  ignore net

let test_at_sole_writer_no_messages () =
  let net, dsm = make_dsm ~rows:4 ~cols:4 (Dsm.access_tree ~arity:4 ()) in
  let v = Dsm.create_var dsm ~owner:6 ~size:64 0 in
  run_procs net (fun p ->
      if p = 6 then
        for i = 1 to 20 do
          Dsm.write dsm p v i;
          Alcotest.(check int) "rmw" i (Dsm.read dsm p v)
        done);
  Alcotest.(check int) "no network traffic" 0
    (Link_stats.total_msgs (Network.stats net))

let test_at_place_deterministic_per_var () =
  let _, dsm = make_dsm ~rows:8 ~cols:8 (Dsm.access_tree ~arity:2 ()) in
  let v1 = Dsm.create_var dsm ~owner:0 ~size:8 0 in
  let v2 = Dsm.create_var dsm ~owner:0 ~size:8 0 in
  let at = at_of dsm in
  (* Roots of different variables land on different nodes with high
     probability; the same variable's root is stable. *)
  let r1 = Access_tree.place at (Dsm.typed v1) 0 in
  let r1' = Access_tree.place at (Dsm.typed v1) 0 in
  Alcotest.(check int) "stable placement" r1 r1';
  let distinct = ref false in
  for i = 0 to 20 do
    let v = Dsm.create_var dsm ~owner:0 ~size:8 0 in
    ignore i;
    if Access_tree.place at (Dsm.typed v) 0 <> r1 then distinct := true
  done;
  Alcotest.(check bool) "roots vary across variables" true !distinct;
  ignore v2

(* --- Figure 2: growth orders of the single-block broadcast ----------- *)

(* All processors of the mesh read one variable. The paper's analysis:
   total communication load is Theta(m * P) for the fixed home strategy but
   Theta(m * sqrt P * log P) for the access tree — so the quotient
   FH-load / AT-load must grow roughly like sqrt P / log P. *)
let broadcast_load strat q =
  let net, dsm = make_dsm ~rows:q ~cols:q strat in
  let v = Dsm.create_var dsm ~owner:0 ~size:1024 0 in
  run_procs net (fun p -> ignore (Dsm.read dsm p v));
  Link_stats.total_bytes (Network.stats net)

let test_fig2_growth_orders () =
  let quotient q =
    float_of_int (broadcast_load Dsm.Fixed_home q)
    /. float_of_int (broadcast_load (Dsm.access_tree ~arity:4 ()) q)
  in
  let q8 = quotient 8 and q16 = quotient 16 in
  Alcotest.(check bool)
    (Printf.sprintf "FH/AT broadcast load grows with P (%.2f -> %.2f)" q8 q16)
    true
    (q16 > q8 *. 1.2);
  Alcotest.(check bool) "AT beats FH already at 8x8" true (q8 > 1.5)

let test_fig2_congestion_orders () =
  (* Same experiment, by congestion: FH Theta(m*P) vs AT Theta(m*sqrtP*logP). *)
  let congestion strat q =
    let net, dsm = make_dsm ~rows:q ~cols:q strat in
    let v = Dsm.create_var dsm ~owner:0 ~size:1024 0 in
    run_procs net (fun p -> ignore (Dsm.read dsm p v));
    ignore dsm;
    Link_stats.congestion_bytes (Network.stats net)
  in
  let fh = congestion Dsm.Fixed_home 16 in
  let at = congestion (Dsm.access_tree ~arity:4 ()) 16 in
  Alcotest.(check bool)
    (Printf.sprintf "broadcast congestion: AT %d well below FH %d" at fh)
    true
    (at * 2 < fh)

(* --- barriers / reductions under stress ------------------------------ *)

let test_many_barriers () =
  List.iter
    (fun (name, strat) ->
      let net, dsm = make_dsm ~rows:4 ~cols:4 strat in
      let counter = ref 0 in
      run_procs net (fun p ->
          for r = 1 to 50 do
            if p = r mod 16 then incr counter;
            Dsm.barrier dsm p
          done);
      Alcotest.(check int) (name ^ ": all rounds ran") 50 !counter)
    [ List.nth strategies 1; List.nth strategies 7 ]

let test_reduce_stress () =
  let net, dsm = make_dsm ~rows:4 ~cols:4 (Dsm.access_tree ~arity:4 ()) in
  let r = Dsm.reducer dsm ~combine:( + ) ~size:8 in
  let sums = Array.make 20 0 in
  run_procs net (fun p ->
      for round = 0 to 19 do
        let s = Dsm.reduce dsm p r (p * round) in
        if p = 0 then sums.(round) <- s
      done);
  Array.iteri
    (fun round s ->
      Alcotest.(check int) (Printf.sprintf "round %d" round) (120 * round) s)
    sums;
  ignore net

let test_lock_fifo_like_progress () =
  (* All processors repeatedly contend on one lock; every processor must
     get the lock the same number of times (progress, no starvation). *)
  List.iter
    (fun (name, strat) ->
      let net, dsm = make_dsm ~rows:4 ~cols:4 strat in
      let v = Dsm.create_var dsm ~owner:0 ~size:8 0 in
      let acquired = Array.make 16 0 in
      run_procs net (fun p ->
          for _ = 1 to 4 do
            Dsm.lock dsm p v;
            acquired.(p) <- acquired.(p) + 1;
            Network.compute net p 25.0;
            Dsm.unlock dsm p v
          done);
      Array.iteri
        (fun p n ->
          Alcotest.(check int) (Printf.sprintf "%s: proc %d acquisitions" name p) 4 n)
        acquired)
    [ List.nth strategies 0; List.nth strategies 7 ]

let suite =
  [
    Alcotest.test_case "FH owner write local" `Quick test_fh_owner_write_is_local;
    Alcotest.test_case "FH write takes ownership" `Quick
      test_fh_write_takes_ownership;
    Alcotest.test_case "FH read moves ownership home" `Quick
      test_fh_read_moves_ownership_home;
    Alcotest.test_case "FH initial holders" `Quick test_fh_home_assignment_spreads;
    Alcotest.test_case "AT read creates path component" `Quick
      test_at_read_creates_path_component;
    Alcotest.test_case "AT write shrinks component" `Quick
      test_at_write_shrinks_component;
    Alcotest.test_case "AT sole writer silent" `Quick test_at_sole_writer_no_messages;
    Alcotest.test_case "AT per-var placement" `Quick
      test_at_place_deterministic_per_var;
    Alcotest.test_case "Fig2 growth orders (total load)" `Quick
      test_fig2_growth_orders;
    Alcotest.test_case "Fig2 growth orders (congestion)" `Quick
      test_fig2_congestion_orders;
    Alcotest.test_case "many barriers" `Quick test_many_barriers;
    Alcotest.test_case "reduce stress" `Quick test_reduce_stress;
    Alcotest.test_case "lock progress" `Quick test_lock_fifo_like_progress;
  ]

let test_remapping_stays_correct () =
  let strategy = Dsm.access_tree ~arity:2 ~remap_threshold:8 () in
  let net, dsm = make_dsm ~rows:4 ~cols:4 strategy in
  let vars = Array.init 4 (fun i -> Dsm.create_var dsm ~owner:i ~size:64 0) in
  run_procs net (fun p ->
      for r = 1 to 6 do
        Array.iter (fun v -> ignore (Dsm.read dsm p v)) vars;
        Dsm.barrier dsm p;
        if p = r mod 16 then
          Array.iteri (fun i v -> Dsm.write dsm p v ((r * 10) + i)) vars;
        Dsm.barrier dsm p;
        Array.iteri
          (fun i v ->
            Alcotest.(check int) "coherent despite remapping" ((r * 10) + i)
              (Dsm.read dsm p v))
          vars;
        Dsm.barrier dsm p
      done);
  Alcotest.(check bool) "remaps happened" true (Dsm.remaps dsm > 0);
  Array.iter
    (fun v ->
      match Dsm.validate_var dsm v with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    vars

let suite =
  suite
  @ [
      Alcotest.test_case "remapping stays correct" `Quick
        test_remapping_stays_correct;
    ]

let test_handopt_matmul_exact_congestion () =
  (* Analytic check of the traffic accounting: in the hand-optimized
     broadcast, the directed link entering the last column of a row carries
     exactly q-1 block messages, and that is the maximum anywhere. *)
  List.iter
    (fun q ->
      let net = make_net ~rows:q ~cols:q () in
      let app =
        Diva_apps.Matmul_handopt.setup net
          { Diva_apps.Matmul_handopt.block = 64; compute = false }
      in
      run_procs net (fun p -> Diva_apps.Matmul_handopt.fiber app p);
      let st = Network.stats net in
      Alcotest.(check int)
        (Printf.sprintf "congestion messages on %dx%d" q q)
        (q - 1)
        (Link_stats.congestion_msgs st);
      Alcotest.(check int)
        (Printf.sprintf "congestion bytes on %dx%d" q q)
        ((q - 1) * ((64 * 4) + 16))
        (Link_stats.congestion_bytes st))
    [ 4; 8 ]

let test_concurrent_writers_agree () =
  (* All processors write the same variable concurrently (no barrier
     between the writes): afterwards everyone must read the same value,
     and it must be one of the written values. *)
  List.iter
    (fun (name, strat) ->
      let net, dsm = make_dsm ~rows:4 ~cols:4 strat in
      let v = Dsm.create_var dsm ~owner:0 ~size:32 (-1) in
      let seen = Array.make 16 (-2) in
      run_procs net (fun p ->
          Dsm.write dsm p v (1000 + p);
          Dsm.barrier dsm p;
          seen.(p) <- Dsm.read dsm p v);
      let final = seen.(0) in
      Alcotest.(check bool) (name ^ ": value was written") true
        (final >= 1000 && final < 1016);
      Array.iteri
        (fun p x ->
          Alcotest.(check int) (Printf.sprintf "%s: proc %d agrees" name p) final x)
        seen;
      Alcotest.(check int) (name ^ ": peek agrees") final (Dsm.peek v);
      match Dsm.validate_var dsm v with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    strategies

let test_concurrent_rmw_with_locks_many_procs () =
  (* Heavier lock stress on a bigger mesh. *)
  let net, dsm = make_dsm ~rows:8 ~cols:8 (Dsm.access_tree ~arity:4 ()) in
  let v = Dsm.create_var dsm ~owner:17 ~size:16 0 in
  run_procs net (fun p ->
      for _ = 1 to 2 do
        Dsm.lock dsm p v;
        let x = Dsm.read dsm p v in
        Network.compute net p 10.0;
        Dsm.write dsm p v (x + 1);
        Dsm.unlock dsm p v
      done);
  Alcotest.(check int) "128 atomic increments" 128 (Dsm.peek v)

let suite =
  suite
  @ [
      Alcotest.test_case "handopt matmul exact congestion" `Quick
        test_handopt_matmul_exact_congestion;
      Alcotest.test_case "concurrent writers agree" `Quick
        test_concurrent_writers_agree;
      Alcotest.test_case "lock stress 8x8" `Quick
        test_concurrent_rmw_with_locks_many_procs;
    ]

(* Placement under remapping: every remapped tree node is found where its
   last [Remap] trace event moved it, and [Dsm.copy_holder_places] is the
   set of placements of the copy-holding tree nodes. *)
let test_remap_placements_follow_events () =
  let net = make_net ~rows:4 ~cols:4 () in
  let moved = Hashtbl.create 64 in
  Network.set_trace net
    (Diva_obs.Trace.stream (function
      | Diva_obs.Trace.Remap { var; tnode; to_node; _ } ->
          Hashtbl.replace moved (var, tnode) to_node
      | _ -> ()));
  let dsm =
    Dsm.create net ~strategy:(Dsm.access_tree ~arity:2 ~remap_threshold:4 ()) ()
  in
  let vars = Array.init 4 (fun i -> Dsm.create_var dsm ~owner:(5 * i) ~size:64 0) in
  run_procs net (fun p ->
      for r = 1 to 4 do
        Array.iter (fun v -> ignore (Dsm.read dsm p v)) vars;
        Dsm.barrier dsm p;
        if p = r then Array.iteri (fun i v -> Dsm.write dsm p v (r + i)) vars;
        Dsm.barrier dsm p
      done);
  let at = at_of dsm in
  Alcotest.(check bool) "remaps happened" true (Hashtbl.length moved > 0);
  let by_id = Hashtbl.create 4 in
  Array.iter (fun v -> Hashtbl.replace by_id (Dsm.typed v).Types.id v) vars;
  Hashtbl.iter
    (fun (var, tnode) to_node ->
      Alcotest.(check int)
        (Printf.sprintf "var %d, tree node %d" var tnode)
        to_node
        (Access_tree.place at (Dsm.typed (Hashtbl.find by_id var)) tnode))
    moved;
  Array.iter
    (fun v ->
      let tv = Dsm.typed v in
      let places =
        List.sort_uniq compare
          (List.map (Access_tree.place at tv) (Access_tree.copy_holders at tv))
      in
      Alcotest.(check (list int)) (Dsm.var_name v ^ ": holder places") places
        (Dsm.copy_holder_places dsm v))
    vars

let suite =
  suite
  @ [
      Alcotest.test_case "remap placements follow events" `Quick
        test_remap_placements_follow_events;
    ]
