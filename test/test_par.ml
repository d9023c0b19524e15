(* Domain-sharded engine: determinism across domain counts is the whole
   contract, so every test here compares runs at several [domains] values
   (byte-for-byte via rendered reports or structural equality) rather than
   asserting absolute numbers. The sandbox may have a single core — these
   tests verify determinism, not speedup. *)

module Par_engine = Diva_simnet.Par_engine
module Traffic = Diva_simnet.Traffic
module Parallel = Diva_util.Parallel
module Chaos = Diva_run.Chaos

(* --- Parallel.map ---------------------------------------------------- *)

let test_parallel_map_order () =
  let xs = List.init 57 Fun.id in
  List.iter
    (fun domains ->
      Alcotest.(check (list int))
        (Printf.sprintf "map x2, %d domains" domains)
        (List.map (fun x -> 2 * x) xs)
        (Parallel.map ~domains (fun x -> 2 * x) xs))
    [ 1; 2; 4; 8; 100 ];
  Alcotest.(check (list int)) "empty list" [] (Parallel.map ~domains:4 Fun.id [])

(* Items are dealt round-robin, so neighbours run on different domains
   (contiguous chunks would put both of a pair on one). *)
let test_parallel_map_deals () =
  let ids =
    Parallel.map ~domains:2
      (fun _ -> (Domain.self () :> int))
      [ 0; 1; 2; 3 ]
  in
  match ids with
  | [ a; b; c; d ] ->
      Alcotest.(check bool) "0 and 1 on different domains" true (a <> b);
      Alcotest.(check (list int)) "dealt in turn" [ a; b ] [ c; d ]
  | _ -> Alcotest.fail "wrong length"

exception Boom of int

let test_parallel_map_exception () =
  match
    Parallel.map ~domains:4
      (fun x -> if x mod 10 = 3 then raise (Boom x) else x)
      (List.init 40 Fun.id)
  with
  | _ -> Alcotest.fail "expected an exception"
  | exception Boom x ->
      (* Earliest failing element wins, regardless of which domain hit
         its failure first. *)
      Alcotest.(check int) "earliest exception" 3 x

(* Workers run with the caller's minor heap, not OCaml's default: the
   simulator is tuned for a larger one (bench and divasim set 1 M words). *)
let test_parallel_map_minor_heap () =
  let saved = Gc.get () in
  let words = 2 * saved.Gc.minor_heap_size + 4096 in
  Gc.set { saved with Gc.minor_heap_size = words };
  let sizes =
    Fun.protect
      ~finally:(fun () -> Gc.set saved)
      (fun () ->
        Parallel.map ~domains:3
          (fun _ -> (Gc.get ()).Gc.minor_heap_size)
          [ 0; 1; 2 ])
  in
  Alcotest.(check (list int))
    "every worker's minor heap" [ words; words; words ] sizes

(* --- Par_engine ------------------------------------------------------ *)

(* A ring of shards passing counters around: each event at shard s hops to
   shard (s+1) mod n after exactly the lookahead, decrementing a TTL, and
   every execution appends to a per-shard log. The merged log (shard
   order) must be identical for every domain count. *)
let ring_run ~domains ~shards =
  let logs = Array.make shards [] in
  let eng = Par_engine.create ~shards ~lookahead:1.0 in
  for i = 0 to shards - 1 do
    Par_engine.schedule_init eng ~shard:i ~at:(0.1 *. float_of_int i)
      (100 + i)
  done;
  Par_engine.run ~domains eng ~handler:(fun ctx ttl ->
      let s = Par_engine.ctx_shard ctx in
      logs.(s) <- (Par_engine.ctx_now ctx, ttl) :: logs.(s);
      if ttl > 0 then
        Par_engine.ctx_post ctx
          ~dst:((s + 1) mod shards)
          ~at:(Par_engine.ctx_now ctx +. 1.0)
          (ttl - 1));
  (Array.to_list (Array.map List.rev logs), Par_engine.events_executed eng)

let test_par_engine_ring_identical () =
  let reference = ring_run ~domains:1 ~shards:7 in
  List.iter
    (fun domains ->
      Alcotest.(check bool)
        (Printf.sprintf "%d domains = serial" domains)
        true
        (ring_run ~domains ~shards:7 = reference))
    [ 2; 3; 4; 8 ];
  let _, events = reference in
  (* 7 seeds, each with TTLs 100..106: total executions = sum (ttl + 1). *)
  Alcotest.(check int) "event count" (7 * 101 + (0 + 1 + 2 + 3 + 4 + 5 + 6))
    events

let test_par_engine_lookahead_enforced () =
  let eng = Par_engine.create ~shards:2 ~lookahead:5.0 in
  Par_engine.schedule_init eng ~shard:0 ~at:0.0 ();
  match
    Par_engine.run eng ~handler:(fun ctx () ->
        Par_engine.ctx_post ctx ~dst:1
          ~at:(Par_engine.ctx_now ctx +. 1.0)
          ())
  with
  | () -> Alcotest.fail "cross-shard post under the lookahead should raise"
  | exception Invalid_argument _ -> ()

let test_par_engine_same_shard_post_is_schedule () =
  (* Same-shard posts have no lookahead constraint. *)
  let eng = Par_engine.create ~shards:2 ~lookahead:5.0 in
  let hits = ref [] in
  Par_engine.schedule_init eng ~shard:0 ~at:0.0 3;
  Par_engine.run eng ~handler:(fun ctx n ->
      hits := Par_engine.ctx_now ctx :: !hits;
      if n > 0 then
        Par_engine.ctx_post ctx ~dst:0
          ~at:(Par_engine.ctx_now ctx +. 0.5)
          (n - 1));
  Alcotest.(check (list (float 1e-9)))
    "sub-lookahead self-posts run" [ 1.5; 1.0; 0.5; 0.0 ] !hits

let rejects name f =
  match f () with
  | () -> Alcotest.failf "%s accepted" name
  | exception Invalid_argument _ -> ()

(* A NaN or infinite time would be queued: +infinity is never executed,
   and a NaN breaks the queue's total order. *)
let test_par_engine_schedule_init_non_finite () =
  let eng = Par_engine.create ~shards:2 ~lookahead:1.0 in
  List.iter
    (fun at ->
      rejects (Printf.sprintf "schedule_init %g" at) (fun () ->
          Par_engine.schedule_init eng ~shard:1 ~at ()))
    [ Float.nan; Float.infinity; -1.0 ];
  Par_engine.run eng ~handler:(fun _ () -> Alcotest.fail "nothing queued");
  Alcotest.(check int) "no events" 0 (Par_engine.events_executed eng)

let test_par_engine_ctx_schedule_non_finite () =
  let eng = Par_engine.create ~shards:2 ~lookahead:1.0 in
  Par_engine.schedule_init eng ~shard:0 ~at:0.0 true;
  Par_engine.run eng ~handler:(fun ctx first ->
      if first then
        List.iter
          (fun at ->
            rejects (Printf.sprintf "ctx_schedule %g" at) (fun () ->
                Par_engine.ctx_schedule ctx ~at false))
          [ Float.nan; Float.infinity; -1.0 ]);
  Alcotest.(check int) "only the seed ran" 1 (Par_engine.events_executed eng)

let test_par_engine_ctx_post_non_finite () =
  let eng = Par_engine.create ~shards:2 ~lookahead:1.0 in
  Par_engine.schedule_init eng ~shard:0 ~at:0.0 true;
  Par_engine.run eng ~handler:(fun ctx first ->
      if first then
        List.iter
          (fun at ->
            rejects (Printf.sprintf "ctx_post %g" at) (fun () ->
                Par_engine.ctx_post ctx ~dst:1 ~at false))
          [ Float.nan; Float.infinity ]);
  Alcotest.(check int) "only the seed ran" 1 (Par_engine.events_executed eng)

(* Fan-in: every other shard posts three messages per seed event to
   shard 0, all for one timestamp. Shard 0 must run them in ascending
   source order, FIFO within a source, whichever domain drained first. *)
let fan_in_run ~domains ~shards =
  let log = ref [] in
  let eng = Par_engine.create ~shards ~lookahead:1.0 in
  for s = 1 to shards - 1 do
    Par_engine.schedule_init eng ~shard:s ~at:0.0 (s, 0);
    Par_engine.schedule_init eng ~shard:s ~at:0.5 (s, 3)
  done;
  Par_engine.run ~domains eng ~handler:(fun ctx (src, k) ->
      if Par_engine.ctx_shard ctx = 0 then log := (src, k) :: !log
      else
        for j = 0 to 2 do
          Par_engine.ctx_post ctx ~dst:0 ~at:10.0 (src, k + j)
        done);
  List.rev !log

let test_par_engine_fan_in_order () =
  let shards = 7 in
  let expected =
    List.concat_map
      (fun src -> List.init 6 (fun k -> (src, k)))
      (List.init (shards - 1) succ)
  in
  let show l =
    String.concat " " (List.map (fun (s, k) -> Printf.sprintf "%d.%d" s k) l)
  in
  Alcotest.(check string) "1 domain" (show expected)
    (show (fan_in_run ~domains:1 ~shards));
  List.iter
    (fun domains ->
      Alcotest.(check string)
        (Printf.sprintf "%d domains = 1 domain" domains)
        (show expected)
        (show (fan_in_run ~domains ~shards)))
    [ 2; 3; 4 ]

(* A handler raising on one shard while the others keep posting across
   shards: the run must stop, join every domain and re-raise on the
   caller, at every domain count. *)
let raising_run ~domains =
  let eng = Par_engine.create ~shards:6 ~lookahead:1.0 in
  for i = 0 to 5 do
    Par_engine.schedule_init eng ~shard:i ~at:0.0 0
  done;
  match
    Par_engine.run ~domains eng ~handler:(fun ctx hops ->
        let s = Par_engine.ctx_shard ctx in
        if s = 4 && hops >= 20 then raise (Boom hops);
        Par_engine.ctx_post ctx ~dst:((s + 1) mod 6)
          ~at:(Par_engine.ctx_now ctx +. 1.0)
          (hops + 1))
  with
  | () -> None
  | exception Boom h -> Some h

let test_par_engine_error_all_domains () =
  let reference = raising_run ~domains:1 in
  Alcotest.(check (option int)) "1 domain raises" (Some 20) reference;
  List.iter
    (fun domains ->
      Alcotest.(check (option int))
        (Printf.sprintf "%d domains raise on the caller" domains)
        reference (raising_run ~domains))
    [ 2; 3; 4 ]

(* One shard sleeps 10 ms in each of two windows, longer than any
   barrier spin, so the other domains fall back to blocking; the run must
   still complete with the serial result. *)
let slow_run ~domains =
  let shards = 4 in
  let logs = Array.make shards [] in
  let eng = Par_engine.create ~shards ~lookahead:1.0 in
  for i = 0 to shards - 1 do
    Par_engine.schedule_init eng ~shard:i ~at:0.0 3
  done;
  Par_engine.run ~domains eng ~handler:(fun ctx ttl ->
      let s = Par_engine.ctx_shard ctx in
      logs.(s) <- (Par_engine.ctx_now ctx, ttl) :: logs.(s);
      if s = 0 && ttl mod 2 = 1 then Unix.sleepf 0.01;
      if ttl > 0 then
        Par_engine.ctx_post ctx ~dst:((s + 1) mod shards)
          ~at:(Par_engine.ctx_now ctx +. 1.0)
          (ttl - 1));
  (Array.to_list logs, Par_engine.events_executed eng)

let test_par_engine_slow_window () =
  let reference = slow_run ~domains:1 in
  List.iter
    (fun domains ->
      Alcotest.(check bool)
        (Printf.sprintf "%d domains = serial" domains)
        true
        (slow_run ~domains = reference))
    [ 2; 3; 4 ]

(* --- Traffic --------------------------------------------------------- *)

let test_traffic_domains_identical () =
  let go domains =
    Traffic.render
      (Traffic.run ~domains ~seed:5 ~rows:16 ~cols:16 ~rate:0.002
         ~horizon:10_000.0 ~pattern:Traffic.Uniform ())
  in
  let serial = go 1 in
  List.iter
    (fun d ->
      Alcotest.(check string)
        (Printf.sprintf "--domains %d byte-identical" d)
        serial (go d))
    [ 2; 4 ];
  (* Repeat determinism: same config, same report. *)
  Alcotest.(check string) "repeat run identical" serial (go 4)

let test_traffic_drains_and_patterns () =
  List.iter
    (fun pattern ->
      let r =
        Traffic.run ~domains:3 ~seed:11 ~rows:8 ~cols:8 ~rate:0.001
          ~horizon:5_000.0 ~pattern ()
      in
      Alcotest.(check int)
        (Traffic.pattern_name pattern ^ " fully drained")
        r.Traffic.r_injected r.Traffic.r_delivered;
      Alcotest.(check bool)
        (Traffic.pattern_name pattern ^ " delivered some")
        true
        (r.Traffic.r_delivered > 0))
    [ Traffic.Uniform; Traffic.Transpose; Traffic.Hotspot ]

(* --- Chaos campaigns under domains ----------------------------------- *)

let test_chaos_domains_identical () =
  (* Fault-injected protocol runs fanned out across domains: the outcome
     list — oracle verdicts, fault counters, simulated times — must be
     exactly the serial one. Manifest equality covers every field. *)
  let cfg =
    {
      Chaos.dims = [| 4; 4 |];
      schedules = 2;
      seed = 42;
      ops = 20;
      num_vars = 24;
      lock_every = 4;
      read_ratio = 0.7;
      verify_determinism = true;
      strategies =
        [ ("fixed-home", Diva_core.Dsm.Fixed_home);
          ("tree-4", Diva_core.Dsm.access_tree ~arity:4 ()) ];
    }
  in
  let manifest_with domains =
    Chaos.manifest cfg (Chaos.run ~domains cfg)
  in
  let serial = manifest_with 1 in
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "chaos --domains %d manifest identical" d)
        true
        (manifest_with d = serial))
    [ 2; 4 ]

let suite =
  [
    Alcotest.test_case "parallel map preserves order" `Quick
      test_parallel_map_order;
    Alcotest.test_case "parallel map deals items round-robin" `Quick
      test_parallel_map_deals;
    Alcotest.test_case "parallel map propagates earliest exception" `Quick
      test_parallel_map_exception;
    Alcotest.test_case "parallel map workers get the caller's minor heap"
      `Quick test_parallel_map_minor_heap;
    Alcotest.test_case "par_engine ring identical across domains" `Quick
      test_par_engine_ring_identical;
    Alcotest.test_case "par_engine enforces lookahead" `Quick
      test_par_engine_lookahead_enforced;
    Alcotest.test_case "par_engine same-shard post" `Quick
      test_par_engine_same_shard_post_is_schedule;
    Alcotest.test_case "par_engine schedule_init rejects non-finite" `Quick
      test_par_engine_schedule_init_non_finite;
    Alcotest.test_case "par_engine ctx_schedule rejects non-finite" `Quick
      test_par_engine_ctx_schedule_non_finite;
    Alcotest.test_case "par_engine ctx_post rejects non-finite" `Quick
      test_par_engine_ctx_post_non_finite;
    Alcotest.test_case "par_engine fan-in drain order" `Quick
      test_par_engine_fan_in_order;
    Alcotest.test_case "par_engine error across domains" `Quick
      test_par_engine_error_all_domains;
    Alcotest.test_case "par_engine window outlasting the spin" `Quick
      test_par_engine_slow_window;
    Alcotest.test_case "traffic identical across domains" `Quick
      test_traffic_domains_identical;
    Alcotest.test_case "traffic drains under all patterns" `Quick
      test_traffic_drains_and_patterns;
    Alcotest.test_case "chaos campaign identical across domains" `Quick
      test_chaos_domains_identical;
  ]
