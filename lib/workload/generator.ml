module Network = Diva_simnet.Network
module Dsm = Diva_core.Dsm
module Runner = Diva_harness.Runner
module Prng = Diva_util.Prng

type result = {
  measurements : Runner.measurements;
  latency : Latency.t;
}

let proc_rng spec p =
  Prng.create ~seed:(Int64.to_int (Prng.hash2 (Int64.of_int Spec.(spec.seed)) (p + 1)))

let fiber ld spec sampler vars p =
  let net = Driver.net ld and dsm = Driver.dsm ld in
  let rng = proc_rng spec p in
  List.iter
    (fun (ph : Spec.phase) ->
      for i = 1 to ph.Spec.ops do
        let key = Sampler.draw sampler ~proc:p rng in
        let v = vars.(key) in
        let locked = Spec.(spec.lock_every) > 0 && i mod Spec.(spec.lock_every) = 0 in
        let read = Prng.chance rng ph.Spec.read_ratio in
        (* A write draws its value even when the oracle substitutes its
           own, so checked and unchecked runs draw the same stream. *)
        let value = if read then 0 else Prng.int rng 1_000_000 in
        let t0 = Network.now net in
        if locked then Dsm.lock dsm p v;
        Driver.issue ld p ~key v ~t0 ~read ~value;
        if locked then Dsm.unlock dsm p v;
        if Spec.(spec.barrier_every) > 0 && i mod Spec.(spec.barrier_every) = 0
        then Dsm.barrier dsm p;
        if ph.Spec.think > 0.0 then Network.compute net p ph.Spec.think;
        match ph.Spec.burst with
        | Some (n, gap) when i mod n = 0 && gap > 0.0 -> Network.compute net p gap
        | _ -> ()
      done;
      Dsm.barrier dsm p)
    Spec.(spec.phases)

let run ?(obs = Runner.null_obs) ?on_net ?oracle ~dims ~strategy spec =
  (match Spec.validate spec with
  | Ok () -> ()
  | Error e -> invalid_arg ("Diva_workload.Generator.run: " ^ e));
  let measurements, latency =
    Driver.run ~obs ~on_net ~oracle ~seed:Spec.(spec.seed) ~dims ~strategy
      ~capacity:(Array.fold_left ( * ) 1 dims * Spec.total_ops_per_proc spec)
      (fun ld ->
        let sampler = Sampler.create (Network.mesh (Driver.net ld)) spec in
        let vars =
          Driver.key_vars ld ~prefix:"w" ~size:Spec.(spec.var_size)
            Spec.(spec.num_vars)
        in
        fiber ld spec sampler vars)
  in
  { measurements; latency }
