(* Analytical baselines for capacity-pressure caching.

   A single reader draws an IID Zipf(0.8) reference stream over 64
   variables owned by a remote processor, under a per-processor memory
   bound that holds only a fraction of them. Under the independent
   reference model the steady-state hit ratio has closed forms:

   - LRU: Che's approximation — the characteristic time T solves
     sum_i (1 - exp(-p_i T)) = m and the hit ratio is
     sum_i p_i (1 - exp(-p_i T));
   - frequency (LFU) eviction: the cache converges to the m most popular
     items, so the hit ratio is the top-m popularity mass.

   The effective cache size m is computed from the run itself: tree-root
   copies that land on the reader's processor are pinned (their removal
   would disconnect the copy component), so they permanently subtract
   from the capacity available to leaf copies. *)

module Network = Diva_simnet.Network
module Dsm = Diva_core.Dsm
module Access_tree = Diva_core.Access_tree
module Strategy = Diva_core.Strategy
module Deco = Diva_mesh.Decomposition
module Prng = Diva_util.Prng

let nvars = 64
let size = 256
let cap = 50 * size
let alpha = 0.8
let warm_draws = 3_000
let measured_draws = 12_000

let zipf_probs =
  let w =
    Array.init nvars (fun i -> 1.0 /. (float_of_int (i + 1) ** alpha))
  in
  let total = Array.fold_left ( +. ) 0.0 w in
  Array.map (fun x -> x /. total) w

let sample rng =
  let u = Prng.float rng 1.0 in
  let acc = ref 0.0 and chosen = ref (nvars - 1) in
  (try
     for i = 0 to nvars - 1 do
       acc := !acc +. zipf_probs.(i);
       if u < !acc then begin
         chosen := i;
         raise Exit
       end
     done
   with Exit -> ());
  !chosen

type capacity_run = {
  hit_ratio : float;
  m_eff : int;  (* capacity slots left after pinned root copies *)
  cached : int;  (* variables resident at the reader's leaf *)
  evictions : int;
}

let run_capacity ~eviction () =
  let net = Network.create ~seed:11 ~rows:2 ~cols:2 () in
  let dsm =
    Dsm.create net
      ~strategy:
        (Dsm.Access_tree
           { Strategy.tree_defaults with
             arity = 4; capacity = Some cap; eviction })
      ()
  in
  let vars =
    Array.init nvars (fun i ->
        Dsm.create_var dsm ~name:(Printf.sprintf "z%d" i) ~owner:3 ~size 0)
  in
  let hit_ratio = ref 0.0 in
  Network.spawn net 0 (fun () ->
      let rng = Prng.create ~seed:42 in
      (* Cold scan so every variable's tree state (and pinned root copy)
         exists before the Zipf phases. *)
      for i = 0 to nvars - 1 do
        ignore (Dsm.read dsm 0 vars.(i))
      done;
      for _ = 1 to warm_draws do
        ignore (Dsm.read dsm 0 vars.(sample rng))
      done;
      let h0 = Dsm.read_hits dsm in
      for _ = 1 to measured_draws do
        ignore (Dsm.read dsm 0 vars.(sample rng))
      done;
      hit_ratio :=
        float_of_int (Dsm.read_hits dsm - h0) /. float_of_int measured_draws);
  Network.run net;
  let at = Option.get (Dsm.access_tree_handle dsm) in
  let leaf0 = (Access_tree.deco at).Deco.leaf_of_proc.(0) in
  let pinned = ref 0 and cached = ref 0 in
  Array.iter
    (fun v ->
      let tv = Dsm.typed v in
      List.iter
        (fun tnode ->
          if Access_tree.place at tv tnode = 0 then
            if tnode = leaf0 then incr cached else incr pinned)
        (Access_tree.copy_holders at tv))
    vars;
  {
    hit_ratio = !hit_ratio;
    m_eff = (cap - (!pinned * size)) / size;
    cached = !cached;
    evictions = Dsm.evictions dsm;
  }

(* Che's approximation: bisect for the characteristic time. *)
let che_hit m =
  if m >= nvars then 1.0
  else begin
    let occupancy tc =
      Array.fold_left
        (fun acc p -> acc +. (1.0 -. exp (-.p *. tc)))
        0.0 zipf_probs
    in
    let lo = ref 0.0 and hi = ref 1.0 in
    while occupancy !hi < float_of_int m do
      hi := !hi *. 2.0
    done;
    for _ = 1 to 80 do
      let mid = 0.5 *. (!lo +. !hi) in
      if occupancy mid < float_of_int m then lo := mid else hi := mid
    done;
    let tc = 0.5 *. (!lo +. !hi) in
    Array.fold_left
      (fun acc p -> acc +. (p *. (1.0 -. exp (-.p *. tc))))
      0.0 zipf_probs
  end

let topm_hit m =
  let m = min m nvars in
  let acc = ref 0.0 in
  for i = 0 to m - 1 do
    acc := !acc +. zipf_probs.(i)
  done;
  !acc

let tolerance = 0.07

let check_run name r predicted =
  Alcotest.(check bool)
    (Printf.sprintf "%s: cache under real pressure" name)
    true (r.evictions > 0 && r.m_eff > 4 && r.m_eff < nvars);
  Alcotest.(check bool)
    (Printf.sprintf "%s: cache full at steady state (cached %d, m_eff %d)"
       name r.cached r.m_eff)
    true
    (abs (r.cached - r.m_eff) <= 1);
  Alcotest.(check bool)
    (Printf.sprintf "%s: measured %.4f within %.2f of closed-form %.4f" name
       r.hit_ratio tolerance predicted)
    true
    (Float.abs (r.hit_ratio -. predicted) <= tolerance)

let test_lru_matches_che () =
  let r = run_capacity ~eviction:Strategy.Lru () in
  check_run "lru" r (che_hit r.m_eff)

let test_freq_matches_topm () =
  let r = run_capacity ~eviction:Strategy.Freq () in
  check_run "freq" r (topm_hit r.m_eff)

(* Under IRM, keeping the provably most popular items cannot lose to
   recency: LFU's hit ratio dominates LRU's (up to sampling noise). *)
let test_freq_dominates_lru () =
  let lru = run_capacity ~eviction:Strategy.Lru () in
  let freq = run_capacity ~eviction:Strategy.Freq () in
  Alcotest.(check bool)
    (Printf.sprintf "freq %.4f >= lru %.4f" freq.hit_ratio lru.hit_ratio)
    true
    (freq.hit_ratio >= lru.hit_ratio -. 0.02)

let suite =
  [
    Alcotest.test_case "lru hit ratio matches Che's approximation" `Quick
      test_lru_matches_che;
    Alcotest.test_case "freq hit ratio matches top-m popularity mass" `Quick
      test_freq_matches_topm;
    Alcotest.test_case "freq eviction dominates lru under IRM" `Quick
      test_freq_dominates_lru;
  ]
