(* Strategy-generic correctness tests of the data-management layer:
   coherence, serialization, locks, barriers, reductions — run against
   every access-tree variant and the fixed home strategy. *)

module Network = Diva_simnet.Network
module Dsm = Diva_core.Dsm
module Access_tree = Diva_core.Access_tree
module Deco = Diva_mesh.Decomposition
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

let suite =
  suite
  @ [
      Alcotest.test_case "untraced hits allocation-free" `Quick
        test_untraced_hits_allocation_free;
      Alcotest.test_case "retire bounds memory" `Quick test_retire_bounds_memory;
    ]
