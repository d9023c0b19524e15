(* Strategy-generic correctness tests of the data-management layer:
   coherence, serialization, locks, barriers, reductions — run against
   every access-tree variant and the fixed home strategy. *)

module Network = Diva_simnet.Network
module Sim = Diva_simnet.Sim
module Dsm = Diva_core.Dsm
module Access_tree = Diva_core.Access_tree
module Deco = Diva_mesh.Decomposition
module Matmul = Diva_apps.Matmul
module Barnes_hut = Diva_apps.Barnes_hut
open Helpers

let for_all_strategies f =
  List.iter (fun (name, strat) -> f name strat) strategies

let test_read_initial_value () =
  for_all_strategies (fun name strat ->
      let net, dsm = make_dsm ~rows:4 ~cols:4 strat in
      let v = Dsm.create_var dsm ~owner:5 ~size:64 "hello" in
      let results = Array.make 16 "" in
      run_procs net (fun p -> results.(p) <- Dsm.read dsm p v);
      Array.iteri
        (fun p r ->
          Alcotest.(check string) (Printf.sprintf "%s: proc %d" name p) "hello" r)
        results)

let test_write_then_read () =
  for_all_strategies (fun name strat ->
      let net, dsm = make_dsm ~rows:4 ~cols:4 strat in
      let v = Dsm.create_var dsm ~owner:0 ~size:64 0 in
      run_procs net (fun p ->
          if p = 3 then Dsm.write dsm p v 42;
          Dsm.barrier dsm p;
          let x = Dsm.read dsm p v in
          Alcotest.(check int) (name ^ ": sees write") 42 x);
      Alcotest.(check int) (name ^ ": final value") 42 (Dsm.peek v))

let test_read_own_write () =
  for_all_strategies (fun name strat ->
      let net, dsm = make_dsm ~rows:4 ~cols:4 strat in
      let vars = Array.init 16 (fun p -> Dsm.create_var dsm ~owner:p ~size:32 0) in
      run_procs net (fun p ->
          for i = 1 to 10 do
            Dsm.write dsm p vars.(p) i;
            let x = Dsm.read dsm p vars.(p) in
            Alcotest.(check int) (name ^ ": read own write") i x
          done))

let test_invalidation () =
  (* After p writes, every other processor's cached copy is stale and a
     subsequent read returns the new value. *)
  for_all_strategies (fun name strat ->
      let net, dsm = make_dsm ~rows:4 ~cols:4 strat in
      let v = Dsm.create_var dsm ~owner:0 ~size:128 0 in
      run_procs net (fun p ->
          (* Round 1: everyone caches the initial value. *)
          let x0 = Dsm.read dsm p v in
          Alcotest.(check int) (name ^ ": initial") 0 x0;
          Dsm.barrier dsm p;
          (* Round 2: processor 7 writes. *)
          if p = 7 then Dsm.write dsm p v 99;
          Dsm.barrier dsm p;
          let x1 = Dsm.read dsm p v in
          Alcotest.(check int) (name ^ ": after invalidation") 99 x1))

let test_ncopies_shrinks_on_write () =
  for_all_strategies (fun name strat ->
      let net, dsm = make_dsm ~rows:4 ~cols:4 strat in
      let v = Dsm.create_var dsm ~owner:0 ~size:128 0 in
      run_procs net (fun p ->
          (* Read twice: adaptive replication grants a replica only after a
             streak of misses; for every other strategy the second read is
             a local hit. *)
          ignore (Dsm.read dsm p v);
          ignore (Dsm.read dsm p v);
          Dsm.barrier dsm p;
          if p = 0 then begin
            Alcotest.(check bool)
              (name ^ ": many copies after broadcast read") true
              (Dsm.ncopies dsm v > 1);
            Dsm.write dsm p v 1
          end;
          Dsm.barrier dsm p);
      (* After the write, only the writer-side copies remain; every
         processor's own leaf except the writer's lost its copy. *)
      let holders = Dsm.copy_holder_places dsm v in
      Alcotest.(check bool) (name ^ ": writer holds a copy") true
        (List.mem 0 holders))

let test_alternating_writers () =
  for_all_strategies (fun name strat ->
      let net, dsm = make_dsm ~rows:2 ~cols:2 strat in
      let v = Dsm.create_var dsm ~owner:0 ~size:64 0 in
      run_procs net (fun p ->
          for round = 0 to 7 do
            if round mod 4 = p then Dsm.write dsm p v ((round * 10) + p);
            Dsm.barrier dsm p;
            let x = Dsm.read dsm p v in
            Alcotest.(check int)
              (Printf.sprintf "%s: round %d at %d" name round p)
              ((round * 10) + (round mod 4))
              x;
            Dsm.barrier dsm p
          done))

let test_lock_mutual_exclusion () =
  for_all_strategies (fun name strat ->
      let net, dsm = make_dsm ~rows:4 ~cols:4 strat in
      let v = Dsm.create_var dsm ~owner:0 ~size:16 0 in
      let inside = ref 0 and max_inside = ref 0 in
      run_procs net (fun p ->
          for _ = 1 to 3 do
            Dsm.lock dsm p v;
            incr inside;
            max_inside := max !max_inside !inside;
            let x = Dsm.read dsm p v in
            Network.compute net p 50.0;
            Dsm.write dsm p v (x + 1);
            decr inside;
            Dsm.unlock dsm p v
          done);
      Alcotest.(check int) (name ^ ": critical sections exclusive") 1 !max_inside;
      Alcotest.(check int) (name ^ ": counter") 48 (Dsm.peek v))

let test_lock_many_vars () =
  for_all_strategies (fun name strat ->
      let net, dsm = make_dsm ~rows:4 ~cols:4 strat in
      let vars = Array.init 8 (fun i -> Dsm.create_var dsm ~owner:i ~size:16 0) in
      run_procs net (fun p ->
          for i = 0 to 7 do
            let v = vars.((p + i) mod 8) in
            Dsm.lock dsm p v;
            let x = Dsm.read dsm p v in
            Dsm.write dsm p v (x + 1);
            Dsm.unlock dsm p v
          done);
      Array.iteri
        (fun i v ->
          Alcotest.(check int) (Printf.sprintf "%s: var %d" name i) 16 (Dsm.peek v))
        vars)

let test_barrier_separates_rounds () =
  for_all_strategies (fun name strat ->
      let net, dsm = make_dsm ~rows:4 ~cols:2 strat in
      let nprocs = Dsm.num_procs dsm in
      let round_of = Array.make nprocs 0 in
      run_procs net (fun p ->
          for r = 1 to 5 do
            (* Everyone must still be in the same round at the barrier. *)
            Array.iter
              (fun other ->
                Alcotest.(check bool) (name ^ ": round skew <= 1") true
                  (abs (other - round_of.(p)) <= 1))
              round_of;
            round_of.(p) <- r;
            Network.compute net p (float_of_int ((p * 37 mod 11) * 100));
            Dsm.barrier dsm p
          done);
      Array.iter (fun r -> Alcotest.(check int) (name ^ ": all finished") 5 r) round_of)

let test_reduce () =
  for_all_strategies (fun name strat ->
      let net, dsm = make_dsm ~rows:4 ~cols:4 strat in
      let r = Dsm.reducer dsm ~combine:( + ) ~size:8 in
      let results = Array.make 16 0 in
      run_procs net (fun p -> results.(p) <- Dsm.reduce dsm p r (p + 1));
      Array.iteri
        (fun p x ->
          Alcotest.(check int) (Printf.sprintf "%s: proc %d" name p) 136 x)
        results)

(* Barriers and reductions run on an access tree's own decomposition, and
   on the four-ary one under the home-based strategies. One barrier and
   one reduce per processor touch no variable, so the simulated time
   and the message count depend on that tree alone. *)
let test_sync_tree () =
  let run strat =
    let net, dsm = make_dsm ~rows:4 ~cols:4 strat in
    let r = Dsm.reducer dsm ~combine:( + ) ~size:8 in
    run_procs net (fun p ->
        Dsm.barrier dsm p;
        ignore (Dsm.reduce dsm p r p));
    (Network.now net, Network.startups net)
  in
  let pinned =
    [ ("2-ary", Dsm.access_tree ~arity:2 (), 17410.0);
      ("4-ary", Dsm.access_tree ~arity:4 (), 15145.0);
      ("16-ary", Dsm.access_tree ~arity:16 (), 31660.0);
      ("fixed-home", Dsm.Fixed_home, 15145.0);
      ("adaptive-home", Dsm.Adaptive Diva_core.Strategy.adaptive_defaults, 15145.0) ]
  in
  let times =
    List.map
      (fun (name, strat, time) ->
        let t, msgs = run strat in
        Alcotest.(check (float 1e-6)) (name ^ ": simulated time") time t;
        Alcotest.(check int) (name ^ ": messages") 60 msgs;
        (name, t))
      pinned
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " differs from 4-ary") true
        (List.assoc name times <> List.assoc "4-ary" times))
    [ "2-ary"; "16-ary" ]

let test_reduce_minmax () =
  for_all_strategies (fun name strat ->
      let net, dsm = make_dsm ~rows:4 ~cols:4 strat in
      let combine (a, b) (c, d) = (min a c, max b d) in
      let r = Dsm.reducer dsm ~combine ~size:16 in
      let results = Array.make 16 (0, 0) in
      run_procs net (fun p -> results.(p) <- Dsm.reduce dsm p r (p, p));
      Array.iter
        (fun x -> Alcotest.(check (pair int int)) (name ^ ": minmax") (0, 15) x)
        results)

let test_dynamic_var_creation () =
  for_all_strategies (fun name strat ->
      let net, dsm = make_dsm ~rows:4 ~cols:4 strat in
      let cell = ref None in
      run_procs net (fun p ->
          if p = 9 then cell := Some (Dsm.create_var dsm ~owner:9 ~size:64 1234);
          Dsm.barrier dsm p;
          match !cell with
          | Some v ->
              let x = Dsm.read dsm p v in
              Alcotest.(check int) (name ^ ": dynamic var") 1234 x
          | None -> Alcotest.fail "variable not created"))

let test_mixed_types () =
  for_all_strategies (fun name strat ->
      let net, dsm = make_dsm ~rows:2 ~cols:2 strat in
      let vi = Dsm.create_var dsm ~owner:0 ~size:8 17
      and vs = Dsm.create_var dsm ~owner:1 ~size:8 "s"
      and vf = Dsm.create_var dsm ~owner:2 ~size:8 1.5 in
      run_procs net (fun p ->
          Alcotest.(check int) (name ^ ": int") 17 (Dsm.read dsm p vi);
          Alcotest.(check string) (name ^ ": string") "s" (Dsm.read dsm p vs);
          Alcotest.(check (float 0.0)) (name ^ ": float") 1.5 (Dsm.read dsm p vf)))

let test_counters () =
  let net, dsm = make_dsm ~rows:4 ~cols:4 (Dsm.access_tree ~arity:4 ()) in
  let v = Dsm.create_var dsm ~owner:0 ~size:64 0 in
  run_procs net (fun p ->
      ignore (Dsm.read dsm p v);
      ignore (Dsm.read dsm p v));
  Alcotest.(check int) "reads counted" 32 (Dsm.reads dsm);
  (* The second read of each processor must be a cache hit; so is the first
     read of the owner. *)
  Alcotest.(check int) "hits" 17 (Dsm.read_hits dsm);
  Alcotest.(check int) "no writes" 0 (Dsm.writes dsm)

let test_non_power_of_two_mesh () =
  for_all_strategies (fun name strat ->
      let net, dsm = make_dsm ~rows:3 ~cols:5 strat in
      let v = Dsm.create_var dsm ~owner:14 ~size:64 0 in
      run_procs net (fun p ->
          if p = 2 then Dsm.write dsm p v 5;
          Dsm.barrier dsm p;
          Alcotest.(check int) (name ^ ": 3x5 mesh") 5 (Dsm.read dsm p v)))

let test_single_node_mesh () =
  for_all_strategies (fun name strat ->
      let net, dsm = make_dsm ~rows:1 ~cols:1 strat in
      let v = Dsm.create_var dsm ~owner:0 ~size:64 0 in
      run_procs net (fun p ->
          Dsm.write dsm p v 7;
          Dsm.barrier dsm p;
          Alcotest.(check int) (name ^ ": 1x1 mesh") 7 (Dsm.read dsm p v)))

(* Randomized linearizability-style check: procs perform random reads and
   writes on a handful of variables with barriers between rounds; within a
   round at most one processor writes each variable, so after the barrier
   everyone must read the last-written value. *)
let test_random_schedule () =
  for_all_strategies (fun name strat ->
      let rng = Diva_util.Prng.create ~seed:99 in
      let net, dsm = make_dsm ~rows:4 ~cols:4 strat in
      let nvars = 5 in
      let vars = Array.init nvars (fun i -> Dsm.create_var dsm ~owner:i ~size:32 0) in
      let reference = Array.make nvars 0 in
      let rounds = 12 in
      (* Pre-draw the schedule: writer per var per round (or none). *)
      let schedule =
        Array.init rounds (fun _ ->
            Array.init nvars (fun _ ->
                let w = Diva_util.Prng.int rng 20 in
                if w < 16 then Some w else None))
      in
      run_procs net (fun p ->
          for r = 0 to rounds - 1 do
            Array.iteri
              (fun i writer ->
                match writer with
                | Some w when w = p -> Dsm.write dsm p vars.(i) ((r * 100) + i)
                | _ -> ())
              schedule.(r);
            Dsm.barrier dsm p;
            (* Every proc reads a couple of random-ish vars. *)
            let i = (p + r) mod nvars in
            let expect =
              match schedule.(r).(i) with
              | Some _ -> (r * 100) + i
              | None -> reference.(i)
            in
            let got = Dsm.read dsm p vars.(i) in
            Alcotest.(check int)
              (Printf.sprintf "%s: round %d proc %d var %d" name r p i)
              expect got;
            Dsm.barrier dsm p;
            if p = 0 then
              Array.iteri
                (fun i w ->
                  match w with Some _ -> reference.(i) <- (r * 100) + i | None -> ())
              schedule.(r);
            Dsm.barrier dsm p
          done))

let suite =
  [
    Alcotest.test_case "read initial value" `Quick test_read_initial_value;
    Alcotest.test_case "write then read" `Quick test_write_then_read;
    Alcotest.test_case "read own write" `Quick test_read_own_write;
    Alcotest.test_case "invalidation" `Quick test_invalidation;
    Alcotest.test_case "copies shrink on write" `Quick test_ncopies_shrinks_on_write;
    Alcotest.test_case "alternating writers" `Quick test_alternating_writers;
    Alcotest.test_case "lock mutual exclusion" `Quick test_lock_mutual_exclusion;
    Alcotest.test_case "locks on many vars" `Quick test_lock_many_vars;
    Alcotest.test_case "barrier separates rounds" `Quick test_barrier_separates_rounds;
    Alcotest.test_case "reduce sum" `Quick test_reduce;
    Alcotest.test_case "reduce minmax" `Quick test_reduce_minmax;
    Alcotest.test_case "barrier and reduce tree per strategy" `Quick
      test_sync_tree;
    Alcotest.test_case "dynamic var creation" `Quick test_dynamic_var_creation;
    Alcotest.test_case "mixed value types" `Quick test_mixed_types;
    Alcotest.test_case "counters" `Quick test_counters;
    Alcotest.test_case "non-power-of-two mesh" `Quick test_non_power_of_two_mesh;
    Alcotest.test_case "single node mesh" `Quick test_single_node_mesh;
    Alcotest.test_case "random schedule coherence" `Quick test_random_schedule;
  ]

(* An untraced read hit allocates nothing: 10 000 access-tree hits in a
   fiber move [Gc.minor_words] exactly as much as an empty measurement. *)
let test_untraced_hits_allocation_free () =
  let net, dsm = make_dsm ~rows:2 ~cols:2 (Dsm.access_tree ~arity:4 ()) in
  let v = Dsm.create_var dsm ~owner:3 ~size:8 1 in
  let words n =
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (Dsm.read dsm 0 v))
    done;
    Gc.minor_words () -. w0
  in
  let empty = ref nan and hits = ref nan in
  Network.spawn net 0 (fun () ->
      ignore (Dsm.read dsm 0 v);  (* the miss that installs the copy *)
      empty := words 0;
      hits := words 10_000);
  Network.run net;
  Alcotest.(check int) "every measured read hit" 10_000 (Dsm.read_hits dsm);
  Alcotest.(check (float 0.0)) "minor words for 10 000 hits" !empty !hits

(* Retiring a variable frees all of its protocol state. Long runs that
   create and retire variables (Barnes-Hut rebuilds its tree every step)
   must not grow: live words after 20 000 create/read/retire cycles exceed
   those after 2 000 by less than 64 KiB. *)
let live_words_after cycles =
  let net, dsm = make_dsm ~rows:4 ~cols:4 (Dsm.access_tree ~arity:4 ()) in
  Network.spawn net 0 (fun () ->
      for i = 1 to cycles do
        let v = Dsm.create_var dsm ~owner:(1 + (i mod 15)) ~size:8 i in
        ignore (Dsm.read dsm 0 v);
        Dsm.retire_var dsm v
      done);
  Network.run net;
  Gc.compact ();
  let live = (Gc.stat ()).Gc.live_words in
  ignore (Sys.opaque_identity (net, dsm));
  live

let test_retire_bounds_memory () =
  let small = live_words_after 2_000 in
  let large = live_words_after 20_000 in
  let growth_bytes = (large - small) * (Sys.word_size / 8) in
  Alcotest.(check bool)
    (Printf.sprintf "live growth %d bytes < 64 KiB" growth_bytes)
    true
    (growth_bytes < 64 * 1024)

(* 2 000 fibers on one processor ask for one lock at once. Their
   requests queue at the processor's leaf, in an O(1) FIFO (the old
   [lqueue @ [r]] was quadratic), and are granted in request order, one
   holder at a time. *)
let test_lock_queue_fifo () =
  let n = 2_000 in
  let net, dsm = make_dsm ~rows:2 ~cols:2 (Dsm.access_tree ~arity:4 ()) in
  let v = Dsm.create_var dsm ~owner:3 ~size:8 0 in
  let order = ref [] and inside = ref 0 and max_inside = ref 0 in
  for i = 0 to n - 1 do
    Network.spawn net 0 (fun () ->
        Dsm.lock dsm 0 v;
        incr inside;
        max_inside := max !max_inside !inside;
        order := i :: !order;
        Network.compute net 0 1.0;
        decr inside;
        Dsm.unlock dsm 0 v)
  done;
  Network.run net;
  Alcotest.(check int) "one holder at a time" 1 !max_inside;
  Alcotest.(check (list int)) "granted in FIFO order" (List.init n Fun.id)
    (List.rev !order)

let live_words () =
  Gc.compact ();
  (Gc.stat ()).Gc.live_words

(* Live words retained per materialised (variable, tree node) state by
   one run, setup included, with the heap compacted before the setup and
   after the run. The retained words also hold the run's other leftovers
   (variables and their control blocks, the values they hold, grown
   queues, an app's own structures). Counting from before the setup
   counts the values a run leaves behind: a window opened after it would
   let every written value cancel the initial value it replaced, so
   doubling the words of every value would not move it. *)
let state_footprint ~rows ~cols strat setup fiber =
  let net, dsm = make_dsm ~rows ~cols strat in
  let live0 = live_words () in
  let app = setup dsm in
  for p = 0 to Network.num_nodes net - 1 do
    Network.spawn net p (fun () -> fiber app p)
  done;
  Network.run net;
  let live1 = live_words () in
  let states = Access_tree.states (Option.get (Dsm.access_tree_handle dsm)) in
  ignore (Sys.opaque_identity (net, dsm, app));
  float_of_int (live1 - live0) /. float_of_int states

let footprint_gate what words gate =
  if words > gate then
    Alcotest.failf "%s: %.2f live words per tree-node state, over the gate of %g"
      what words gate

(* State footprint gate, three cases, each with the value measured
   before invalidation waves stopped keeping transaction entries, and
   before node state became one packed int per node:
   - a 16x16 matmul with 64-int blocks on the 4-ary access tree, whose
     state packs into one word: 4.65 words per state (gate 4.7), 4.88
     (gate 4.9) with a transaction entry per invalidating node, 12.93
     before the packing (and 24.02 with the one-record layout before
     that);
   - the same on the 16-ary tree, whose 17 neighbours take a second edge
     word: 7.64 (gate 7.7), 7.77 (gate 7.8), 16.10;
   - Barnes-Hut, 256 bodies for 3 steps on 4x4, whose cell locks use the
     lock side table: 6.61 (gate 6.7) both ways, 18.87 before the
     packing.
   Since compute-off matmul holds one shared zero block instead of an
   input block and a written block per variable, the three measure 4.65,
   7.64 and 6.60: unchanged, because the window started after setup, where
   each written block had replaced an input block one for one. With the
   window opened before setup, so that the values count, the three
   measure 5.60 (gate 5.65), 9.04 (gate 9.1) and 9.36 (gate 9.4), the
   same before and after access-tree messages stopped allocating a
   header block. *)
let test_state_footprint_gate () =
  let words =
    state_footprint ~rows:16 ~cols:16 (Dsm.access_tree ~arity:4 ())
      (fun dsm -> Matmul.setup dsm { Matmul.block = 64; compute = false })
      Matmul.fiber
  in
  footprint_gate "4-ary matmul" words 5.65;
  let words =
    state_footprint ~rows:16 ~cols:16 (Dsm.access_tree ~arity:16 ())
      (fun dsm -> Matmul.setup dsm { Matmul.block = 64; compute = false })
      Matmul.fiber
  in
  footprint_gate "16-ary matmul" words 9.1;
  let cfg =
    { (Barnes_hut.default_config ~nbodies:256) with
      Barnes_hut.steps = 3; warmup = 1 }
  in
  let words =
    state_footprint ~rows:4 ~cols:4 (Dsm.access_tree ~arity:4 ())
      (fun dsm -> Barnes_hut.setup dsm cfg)
      Barnes_hut.fiber
  in
  footprint_gate "4-ary Barnes-Hut" words 9.4

(* DSM allocation gate: a steady loop on a 2x2 mesh where processor 3
   (the owner) writes, invalidating processor 0's copy, and processor 0
   then reads it back, a miss. Minor words are summed per operation over
   the whole transaction (protocol, network, fiber resume).
   - The 4-ary access tree measures 162 words per read miss and 96 per
     write, the gates. It measured 178 and 112 while each delivery boxed
     its time argument and result through a non-inlined call, 194 and
     128 while every message allocated a header block beside the
     network's record, 236 and 186 while each delivery allocated a
     context record and a queue cell and each invalidating node a
     transaction entry. It measured 247 and 205 before node state was
     packed into one int per node (238 and 188 with the packing alone,
     the rest is untraced operations no longer boxing their trace
     arguments), and 302 and 193 before node state was split into a core
     and sidecars.
   - Fixed home measures 121 and 141, the gates. It measured 137 and 157
     with the boxing delivery call, and 149 and 169 while every access
     and message looked its variable up in a Hashtbl (six option boxes
     per operation). With the replication streak and the migration tally
     kept although the preset needs neither, it measured 143 and 159
     (against 137 and 157 then): the gate holds the preset to skipping
     them. *)
let alloc_per_op strategy =
  let net, dsm = make_dsm ~rows:2 ~cols:2 strategy in
  let v = Dsm.create_var dsm ~owner:3 ~size:8 0 in
  let ops = 2_000 in
  let words = Array.make 2 0.0 in  (* read misses, writes *)
  let sole_writes = ref 0 in
  Network.spawn net 0 (fun () ->
      ignore (Dsm.read dsm 0 v);
      for i = 1 to ops do
        (* Processor 0's copy is there for the write to invalidate. *)
        if Dsm.ncopies dsm v < 2 then incr sole_writes;
        let w0 = Gc.minor_words () in
        Dsm.write dsm 3 v i;
        let w1 = Gc.minor_words () in
        ignore (Dsm.read dsm 0 v);
        let w2 = Gc.minor_words () in
        words.(1) <- words.(1) +. (w1 -. w0);
        words.(0) <- words.(0) +. (w2 -. w1)
      done);
  Network.run net;
  Alcotest.(check int) "every read a miss" 0 (Dsm.read_hits dsm);
  Alcotest.(check int) "every write invalidates" 0 !sole_writes;
  (words.(0) /. float_of_int ops, words.(1) /. float_of_int ops)

let test_dsm_alloc_gate () =
  List.iter
    (fun (what, strategy, read_gate, write_gate) ->
      let read, write = alloc_per_op strategy in
      if read > read_gate then
        Alcotest.failf "%s: %.2f words per read miss, over the gate of %.0f"
          what read read_gate;
      if write > write_gate then
        Alcotest.failf "%s: %.2f words per write, over the gate of %.0f" what
          write write_gate)
    [
      ("4-ary", Dsm.access_tree ~arity:4 (), 162.0, 96.0);
      ("fixed home", Dsm.Fixed_home, 121.0, 141.0);
    ]

(* In-flight gate: the live words an access-tree message holds while it
   waits in the event queue. A 16x16 compute-off matmul (4-ary, 64-int
   blocks) runs twice, deterministically: the first run finds the instant
   after which the most events are pending, which falls in the write
   phase's invalidation waves; the second compacts the heap there and
   once more after the run, and divides the difference by the pending
   events. Subtracting the finished run leaves out what both instants
   hold: the variables, their tree-node states and the queue's columns.
   It measures 9.69 words per pending event (gate 10), and measured 15.69
   while every message allocated a 6-word header block beside the
   network's record. *)
let inflight_words () =
  let run at_instant =
    let net, dsm = make_dsm ~rows:16 ~cols:16 (Dsm.access_tree ~arity:4 ()) in
    let app = Matmul.setup dsm { Matmul.block = 64; compute = false } in
    for p = 0 to Network.num_nodes net - 1 do
      Network.spawn net p (fun () -> Matmul.fiber app p)
    done;
    let sim = Network.sim net in
    Sim.add_advance_hook sim (fun clock _ -> at_instant clock (Sim.pending sim));
    Network.run net;
    let live = live_words () in
    ignore (Sys.opaque_identity (net, dsm, app));
    live
  in
  let peak = ref 0 and peak_at = ref 0.0 in
  ignore
    (run (fun clock n ->
         if n > !peak then begin
           peak := n;
           peak_at := clock
         end)
      : int);
  let live_peak = ref 0 in
  let live_end =
    run (fun clock _ -> if clock = !peak_at then live_peak := live_words ())
  in
  float_of_int (!live_peak - live_end) /. float_of_int !peak

let test_inflight_gate () =
  let words = inflight_words () in
  if words > 10.0 then
    Alcotest.failf "%.2f live words per pending event, over the gate of 10" words

let suite =
  suite
  @ [
      Alcotest.test_case "untraced hits allocation-free" `Quick
        test_untraced_hits_allocation_free;
      Alcotest.test_case "retire bounds memory" `Quick test_retire_bounds_memory;
      Alcotest.test_case "lock queue fifo" `Quick test_lock_queue_fifo;
      Alcotest.test_case "state footprint gate" `Quick test_state_footprint_gate;
      Alcotest.test_case "dsm allocation gate" `Quick test_dsm_alloc_gate;
      Alcotest.test_case "in-flight message gate" `Quick test_inflight_gate;
    ]

(* --- Node_table against Hashtbl plus records and lists ------------------ *)

module Node_table = Diva_core.Node_table

(* The reference: one record per materialised node, edges as a list,
   newest first. *)
type nt_ref = {
  mutable r_toward : int;
  mutable r_token : int;
  mutable r_place : int;
  mutable r_pending : bool;
  mutable r_edges : int list;
  r_extra : int array;
}

type nt_op =
  | Materialise of int
  | Set_toward of int * int
  | Set_token of int * int
  | Set_place of int * int
  | Set_pending of int * bool
  | Add_edge of int * int
  | Remove_edge of int * int
  | Keep_edge of int * int
  | Clear_edges of int
  | Set_extra of int * int * int
  | Read of int
  | Hold of int
  | Retire

let nt_op_print = function
  | Materialise k -> Printf.sprintf "add %d" k
  | Set_toward (k, c) -> Printf.sprintf "toward %d %d" k c
  | Set_token (k, c) -> Printf.sprintf "token %d %d" k c
  | Set_place (k, p) -> Printf.sprintf "place %d %d" k p
  | Set_pending (k, b) -> Printf.sprintf "pending %d %b" k b
  | Add_edge (k, c) -> Printf.sprintf "edge %d %d" k c
  | Remove_edge (k, c) -> Printf.sprintf "remove %d %d" k c
  | Keep_edge (k, c) -> Printf.sprintf "keep %d %d" k c
  | Clear_edges k -> Printf.sprintf "clear %d" k
  | Set_extra (k, j, v) -> Printf.sprintf "extra %d %d %d" k j v
  | Read k -> Printf.sprintf "read %d" k
  | Hold k -> Printf.sprintf "hold %d" k
  | Retire -> "retire"

(* Two trees: a 4-ary one, whose state packs into one word, and a 16-ary
   one, whose 17 neighbours take a second edge word; the 16-ary slots
   also carry three extra words. A third of the operations materialise
   nodes, so a table grows through several doublings, with a slot held
   across them. *)
let nt_shapes = [ (341, 4, 0); (273, 16, 3) ]

let nt_op_gen ~nodes ~kids ~extra =
  let open QCheck.Gen in
  (* Materialise over every node; work mostly on a few, so their edge
     lists fill up. *)
  let any = int_bound (nodes - 1) in
  let k = frequency [ (4, int_bound 3); (1, any) ] in
  let code = int_range (-1) kids and nb = int_bound kids in
  frequency
    [
      (30, map (fun k -> Materialise k) any);
      (6, map2 (fun k c -> Set_toward (k, c)) k code);
      (3, map2 (fun k c -> Set_token (k, c)) k code);
      (3, map2 (fun k p -> Set_place (k, p)) k (int_bound ((1 lsl 24) - 1)));
      (3, map2 (fun k b -> Set_pending (k, b)) k bool);
      (30, map2 (fun k c -> Add_edge (k, c)) k nb);
      (6, map2 (fun k c -> Remove_edge (k, c)) k nb);
      (1, map2 (fun k c -> Keep_edge (k, c)) k nb);
      (1, map (fun k -> Clear_edges k) k);
      ( (if extra > 0 then 3 else 0),
        map3 (fun k j v -> Set_extra (k, j, v)) k (int_bound (max 0 (extra - 1))) nat );
      (15, map (fun k -> Read k) k);
      (4, map (fun k -> Hold k) k);
      (1, pure Retire);
    ]

let nt_agrees t m k s =
  let r = Hashtbl.find m k in
  Node_table.find t k = s
  && Node_table.toward t s = r.r_toward
  && Node_table.token t s = r.r_token
  && Node_table.place t s = r.r_place
  && Node_table.pending t s = r.r_pending
  && Node_table.edges t s = r.r_edges
  && Node_table.edge_count t s = List.length r.r_edges
  && Array.for_all Fun.id
       (Array.mapi (fun j v -> Node_table.extra t s j = v) r.r_extra)

let prop_node_table_model (nodes, kids, extra) =
  QCheck.Test.make
    ~name:(Printf.sprintf "node_table %d-ary model" kids)
    ~count:150
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map nt_op_print ops))
       QCheck.Gen.(list_size (int_range 0 800) (nt_op_gen ~nodes ~kids ~extra)))
    (fun ops ->
      let t = Node_table.create (Node_table.layout ~tree_nodes:nodes ~max_children:kids ~extra) in
      let m = Hashtbl.create 16 and held = ref None in
      let on k f = match Hashtbl.find_opt m k with Some r -> f r (Node_table.find t k) | None -> () in
      List.for_all
        (fun op ->
          (match op with
          | Materialise k ->
              if not (Hashtbl.mem m k) then begin
                let c = (k mod (kids + 2)) - 1 in
                ignore (Node_table.add t k ~toward:c ~token:c ~place:(k * 7));
                Hashtbl.replace m k
                  { r_toward = c; r_token = c; r_place = k * 7; r_pending = false;
                    r_edges = []; r_extra = Array.make extra 0 }
              end
          | Set_toward (k, c) -> on k (fun r s -> Node_table.set_toward t s c; r.r_toward <- c)
          | Set_token (k, c) -> on k (fun r s -> Node_table.set_token t s c; r.r_token <- c)
          | Set_place (k, p) -> on k (fun r s -> Node_table.set_place t s p; r.r_place <- p)
          | Set_pending (k, b) ->
              on k (fun r s -> Node_table.set_pending t s b; r.r_pending <- b)
          | Add_edge (k, c) ->
              on k (fun r s ->
                  Node_table.add_edge t s c;
                  if not (List.mem c r.r_edges) then r.r_edges <- c :: r.r_edges)
          | Remove_edge (k, c) ->
              on k (fun r s ->
                  Node_table.remove_edge t s c;
                  r.r_edges <- List.filter (fun x -> x <> c) r.r_edges)
          | Keep_edge (k, c) -> on k (fun r s -> Node_table.keep_edge t s c; r.r_edges <- [ c ])
          | Clear_edges k -> on k (fun r s -> Node_table.clear_edges t s; r.r_edges <- [])
          | Set_extra (k, j, v) ->
              on k (fun r s -> Node_table.set_extra t s j v; r.r_extra.(j) <- v)
          | Hold k -> if Hashtbl.mem m k then held := Some (k, Node_table.find t k)
          | Retire ->
              Node_table.reset t;
              Hashtbl.reset m;
              held := None
          | Read _ -> ());
          let read_ok =
            match op with
            | Read k -> (
                match Hashtbl.find_opt m k with
                | Some _ -> nt_agrees t m k (Node_table.find t k)
                | None -> Node_table.find t k = -1)
            | _ -> true
          in
          (* The held slot still names its node, however much the table
             grew since. *)
          let held_ok =
            match !held with Some (k, s) -> nt_agrees t m k s | None -> true
          in
          read_ok && held_ok && Node_table.length t = Hashtbl.length m)
        ops
      &&
      let seen = ref [] in
      Node_table.iter (fun k s -> seen := (k, s) :: !seen) t;
      List.sort compare (List.map fst !seen)
      = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) m [])
      && List.for_all (fun (k, s) -> nt_agrees t m k s) !seen)

(* The packed fields' limits, checked on the pure bound: a mesh that
   large is never built. *)
let test_node_table_limits () =
  Node_table.check_fits ~tree_nodes:((1 lsl 31) - 1) ~mesh_nodes:(1 lsl 24);
  Alcotest.check_raises "tree nodes over the node field"
    (Invalid_argument
       "Node_table: 2147483648 tree nodes exceed the 31-bit node field (at most 2147483647)")
    (fun () -> Node_table.check_fits ~tree_nodes:(1 lsl 31) ~mesh_nodes:4);
  Alcotest.check_raises "mesh nodes over the placement field"
    (Invalid_argument
       "Node_table: 16777217 mesh nodes exceed the 24-bit placement field (at most 16777216)")
    (fun () -> Node_table.check_fits ~tree_nodes:5 ~mesh_nodes:((1 lsl 24) + 1));
  let stride ~kids = Node_table.stride (Node_table.layout ~tree_nodes:341 ~max_children:kids ~extra:0) in
  Alcotest.(check int) "2-ary: one word" 1 (stride ~kids:2);
  Alcotest.(check int) "4-ary: one word" 1 (stride ~kids:4);
  Alcotest.(check int) "16-ary: two words" 2 (stride ~kids:16)

(* The message header's limit, on the pure bound: the widest tree that
   fits packs its largest fields into a non-negative int, and one more
   node is refused, for the 4-ary and the 16-ary tree. *)
let test_header_limit () =
  List.iter
    (fun (kids, limit) ->
      Node_table.check_header ~tree_nodes:limit ~max_children:kids;
      let l = Node_table.layout ~tree_nodes:limit ~max_children:kids ~extra:0 in
      let h = Node_table.header l ~kind:15 ~from:kids ~tnode:(limit - 1) ~origin:(limit - 1) in
      Alcotest.(check bool) "header non-negative" true (h >= 0);
      Alcotest.(check (list int)) "header fields"
        [ 15; kids; limit - 1; limit - 1 ]
        [ Node_table.header_kind h; Node_table.header_from l h;
          Node_table.header_tnode l h; Node_table.header_origin l h ];
      Alcotest.check_raises "one node past the header"
        (Invalid_argument
           (Printf.sprintf
              "Node_table: %d tree nodes of up to %d children exceed the 62-bit \
               message header (at most %d)"
              (limit + 1) kids limit))
        (fun () -> Node_table.check_header ~tree_nodes:(limit + 1) ~max_children:kids))
    [ (4, (1 lsl 27) - 1); (16, (1 lsl 26) - 1) ]

let suite =
  suite
  @ List.map (fun shape -> QCheck_alcotest.to_alcotest (prop_node_table_model shape)) nt_shapes
  @ [
      Alcotest.test_case "node_table packing limits" `Quick test_node_table_limits;
      Alcotest.test_case "message header limit" `Quick test_header_limit;
    ]

(* Invalidation waves keep no transaction entry: a node's component edges
   stay listed until each neighbour's [Wack] removes its own, so the edge
   count is the number of acks still owed. Three waves stress that count,
   each run checked by the linearizability oracle and, at quiescence, by
   the access tree's [validate]:
   - a 16-ary write whose coordinating node (the root of a 4x4 mesh's
     one-level tree) lists 15 component edges;
   - a capacity run in which LRU eviction leaves a stale edge behind and
     the next write's [Winv] reaches the evicted node, which acks at once;
   - the same under a fault schedule that drops a quarter of all
     transmissions, so the wave's [Winv]s and [Wack]s are retransmitted. *)
module Oracle = Diva_workload.Oracle
module Trace = Diva_obs.Trace
module Faults = Diva_faults.Faults
module Schedule = Diva_faults.Schedule

let wave_run what ~rows ~cols ?faults spec program =
  let net = Network.create ~seed:11 ~rows ~cols () in
  let tr = Trace.create () in
  Network.set_trace net tr;
  let faults =
    Option.map
      (fun s ->
        let f = Faults.create s in
        Network.set_faults net f;
        f)
      faults
  in
  let dsm = Dsm.create net ~strategy:spec () in
  let oracle = Oracle.create () in
  let vars = ref [] in
  let var ~owner =
    let v = Dsm.create_var dsm ~owner ~size:64 0 in
    Oracle.init_var oracle ~var:(Dsm.typed v).Diva_core.Types.id ~value:0;
    vars := v :: !vars;
    v
  in
  let id v = (Dsm.typed v).Diva_core.Types.id in
  let read p v =
    let t0 = Network.now net in
    let x = Dsm.read dsm p v in
    Oracle.record_read oracle ~var:(id v) ~proc:p ~value:x ~t0
      ~t1:(Network.now net)
  in
  let write p v =
    let value = Oracle.next_write_value oracle in
    let t0 = Network.now net in
    Dsm.write dsm p v value;
    Oracle.record_write oracle ~var:(id v) ~proc:p ~value ~t0
      ~t1:(Network.now net)
  in
  program net dsm ~var ~read ~write;
  Network.run net;
  (match Oracle.check oracle with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" what e);
  List.iter
    (fun v ->
      match Dsm.validate_var dsm v with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" what e)
    !vars;
  (dsm, Trace.events tr, faults)

(* Transactions of the run's missing writes, and the variable each
   writes. *)
let write_txns events =
  let h = Hashtbl.create 16 in
  List.iter
    (function
      | Trace.Dsm_access { op = Trace.Write; hit = false; txn; var; _ } ->
          Hashtbl.replace h txn var
      | _ -> ())
    events;
  h

(* Messages of a write that went to a tree node of the written variable
   whose copy was evicted and not regained: [Winv]s along stale edges.
   Copy events name a tree node by placement and depth, and so do sends. *)
let stale_winvs events =
  let writes = write_txns events in
  let evicted = Hashtbl.create 16 in
  List.fold_left
    (fun n -> function
      | Trace.Copy_drop { var; node; level; reason; _ } ->
          Hashtbl.replace evicted (var, node, level) (reason = Trace.Evicted);
          n
      | Trace.Copy_add { var; node; level; _ } ->
          Hashtbl.replace evicted (var, node, level) false;
          n
      | Trace.Msg_send { txn; dst; level; _ } -> (
          match Hashtbl.find_opt writes txn with
          | Some var when Hashtbl.find_opt evicted (var, dst, level) = Some true
            ->
              n + 1
          | _ -> n)
      | _ -> n)
    0 events

let all_procs net f =
  for p = 0 to Network.num_nodes net - 1 do
    Network.spawn net p (fun () -> f p)
  done

(* Rounds on 2x2: processor 0 reads [v], then a fresh variable, which
   overflows its 100-byte memory and evicts its copy of [v]; the root
   keeps its edge to processor 0's leaf. Processor 3, the owner, then
   writes [v]. *)
let eviction_rounds net dsm ~var ~read ~write =
  let v = var ~owner:3 in
  let ws = Array.init 6 (fun _ -> var ~owner:3) in
  all_procs net (fun p ->
      Array.iter
        (fun w ->
          if p = 0 then begin
            read p v;
            read p w
          end;
          Dsm.barrier dsm p;
          if p = 3 then write p v;
          Dsm.barrier dsm p;
          read p v)
        ws)

let test_wave_acks_on_edges () =
  (* 16-ary: processors 0..14 read, so the root lists 15 edges; processor
     15 holds no copy, so its write is coordinated at the root. *)
  let _, events, _ =
    wave_run "16-ary fan-out" ~rows:4 ~cols:4 (Dsm.access_tree ~arity:16 ())
      (fun net dsm ~var ~read ~write ->
        let v = var ~owner:0 in
        all_procs net (fun p ->
            if p < 15 then read p v;
            Dsm.barrier dsm p;
            if p = 15 then write p v;
            Dsm.barrier dsm p;
            read p v))
  in
  let writes = write_txns events in
  let wave =
    List.fold_left
      (fun n -> function
        | Trace.Msg_send { txn; _ } when Hashtbl.mem writes txn -> n + 1
        | _ -> n)
      0 events
  in
  (* Wreq, Wdata and a Winv/Wack pair per edge. *)
  if wave < 2 + (2 * 8) then
    Alcotest.failf "the 16-ary write sent %d messages, want a wave of >= 8 edges"
      wave;
  let capacity = Dsm.access_tree ~arity:4 ~capacity:100 () in
  let dsm, events, _ =
    wave_run "stale edge" ~rows:2 ~cols:2 capacity eviction_rounds
  in
  Alcotest.(check bool) "copies were evicted" true (Dsm.evictions dsm > 0);
  Alcotest.(check bool) "a Winv reached an evicted node" true
    (stale_winvs events > 0);
  let drops =
    Schedule.make ~seed:5 ~rto_us:5000.0 ~patience_us:25000.0
      [ Schedule.Msg_drop { prob = 0.25; w = { t0 = 0.0; t1 = 1e12 } } ]
  in
  let dsm, events, faults =
    wave_run "stale edge under drops" ~rows:2 ~cols:2 ~faults:drops capacity
      eviction_rounds
  in
  Alcotest.(check bool) "copies were evicted under drops" true
    (Dsm.evictions dsm > 0);
  Alcotest.(check bool) "a Winv reached an evicted node under drops" true
    (stale_winvs events > 0);
  Alcotest.(check bool) "messages were lost" true
    (Faults.lost_total (Option.get faults) > 0);
  let writes = write_txns events in
  Alcotest.(check bool) "a wave message was retransmitted" true
    (List.exists
       (function
         | Trace.Msg_retry { txn; _ } -> Hashtbl.mem writes txn
         | _ -> false)
       events)

let suite =
  suite
  @ [ Alcotest.test_case "invalidation acks counted on edges" `Quick
        test_wave_acks_on_edges ]
