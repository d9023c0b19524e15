(* The strategy conformance harness.

   Every entry in the strategy registry — the paper's two strategies and
   every zoo contender — is run through the same qcheck properties, so a
   newly registered strategy inherits the whole battery without writing a
   single test:

   - {e linearizable histories}: a random mixed read/write workload per
     seed, checked by the per-variable linearizability oracle;
   - {e read-your-writes under sync}: a barrier-separated writer/reader
     schedule must always observe the latest committed value;
   - {e single owner per write}: a lock-protected read-modify-write
     counter over all processors loses no increment;
   - {e copy-set sanity at quiescence}: the strategy's own [validate]
     invariants hold, and the copy set is a nonempty subset of the mesh;
   - {e deterministic replay}: the same seed reproduces the identical
     run, measured by operation counts, final values and the simulated
     clock — and enabling tracing does not perturb any of it. *)

module Network = Diva_simnet.Network
module Dsm = Diva_core.Dsm
module Registry = Diva_core.Registry
module Prng = Diva_util.Prng
module Oracle = Diva_workload.Oracle
module Trace = Diva_obs.Trace

let rows = 4
let cols = 4
let nprocs = rows * cols
let nvars = 8
let ops_per_proc = 24

type outcome = {
  finals : int array;
  reads : int;
  writes : int;
  read_hits : int;
  startups : int;
  makespan : float;
  ncopies : int array;
  holders : int list array;
}

(* One random mixed run: every processor walks its own deterministic
   stream of reads and writes over shared variables, with a couple of
   barriers thrown in; every completed operation is recorded in the
   oracle as a real-time interval. *)
let run_mixed ?(trace = false) ~spec ~seed () =
  let net = Network.create ~seed ~rows ~cols () in
  if trace then Network.set_trace net (Trace.create ());
  let dsm = Dsm.create net ~strategy:spec () in
  let oracle = Oracle.create () in
  let vars =
    Array.init nvars (fun i ->
        Oracle.init_var oracle ~var:i ~value:0;
        Dsm.create_var dsm ~name:(Printf.sprintf "c%d" i)
          ~owner:(i mod nprocs) ~size:32 0)
  in
  for p = 0 to nprocs - 1 do
    Network.spawn net p (fun () ->
        let rng =
          Prng.create
            ~seed:(Int64.to_int (Prng.hash2 (Int64.of_int seed) (p + 1)))
        in
        for i = 1 to ops_per_proc do
          let k = Prng.int rng nvars in
          let v = vars.(k) in
          if Prng.float rng 1.0 < 0.7 then begin
            let t0 = Network.now net in
            let x = Dsm.read dsm p v in
            Oracle.record_read oracle ~var:k ~proc:p ~value:x ~t0
              ~t1:(Network.now net)
          end
          else begin
            let value = Oracle.next_write_value oracle in
            let t0 = Network.now net in
            Dsm.write dsm p v value;
            Oracle.record_write oracle ~var:k ~proc:p ~value ~t0
              ~t1:(Network.now net)
          end;
          if i mod 12 = 0 then Dsm.barrier dsm p
        done;
        Dsm.barrier dsm p)
  done;
  Network.run net;
  let outcome =
    {
      finals = Array.map (fun v -> Dsm.peek v) vars;
      reads = Dsm.reads dsm;
      writes = Dsm.writes dsm;
      read_hits = Dsm.read_hits dsm;
      startups = Network.startups net;
      makespan = Network.now net;
      ncopies = Array.map (fun v -> Dsm.ncopies dsm v) vars;
      holders = Array.map (fun v -> Dsm.copy_holder_places dsm v) vars;
    }
  in
  (outcome, oracle, dsm, vars)

(* (1) Per-variable linearizability of random histories. *)
let prop_linearizable (name, spec) =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: random histories linearize" name)
    ~count:6
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let _, oracle, _, _ = run_mixed ~spec ~seed () in
      if Oracle.ops oracle = 0 then QCheck.Test.fail_report "empty history";
      match Oracle.check oracle with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_report e)

(* (2) Read-your-writes under sync: barrier-separated rounds in which a
   rotating writer publishes and everyone must observe it. *)
let prop_read_your_writes (name, spec) =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: read-your-writes under sync" name)
    ~count:4
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let net = Network.create ~seed ~rows ~cols () in
      let dsm = Dsm.create net ~strategy:spec () in
      let v = Dsm.create_var dsm ~owner:0 ~size:64 0 in
      let ok = ref true in
      for p = 0 to nprocs - 1 do
        Network.spawn net p (fun () ->
            for round = 1 to 6 do
              if round mod nprocs = p then Dsm.write dsm p v (round * 100);
              Dsm.barrier dsm p;
              if Dsm.read dsm p v <> round * 100 then ok := false;
              Dsm.barrier dsm p
            done)
      done;
      Network.run net;
      !ok)

(* (3) Single owner per write: a lock-protected counter over every
   processor loses no increment. *)
let prop_single_owner (name, spec) =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: lock-protected counter is exact" name)
    ~count:4
    QCheck.(pair (int_range 0 10_000) (int_range 1 4))
    (fun (seed, incs) ->
      let net = Network.create ~seed ~rows ~cols () in
      let dsm = Dsm.create net ~strategy:spec () in
      let v = Dsm.create_var dsm ~owner:0 ~size:64 0 in
      for p = 0 to nprocs - 1 do
        Network.spawn net p (fun () ->
            for _ = 1 to incs do
              Dsm.lock dsm p v;
              Dsm.write dsm p v (Dsm.read dsm p v + 1);
              Dsm.unlock dsm p v
            done)
      done;
      Network.run net;
      Dsm.peek v = nprocs * incs)

(* (4) Copy-set sanity at quiescence: the strategy's own structural
   invariants hold for every variable, and the copy set is a nonempty
   subset of the mesh processors. *)
let prop_quiescent_invariants (name, spec) =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: quiescent copy-set invariants" name)
    ~count:6
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let outcome, _, dsm, vars = run_mixed ~spec ~seed () in
      Array.iteri
        (fun i v ->
          (match Dsm.validate_var dsm v with
          | Ok () -> ()
          | Error e -> QCheck.Test.fail_reportf "validate %d: %s" i e);
          let holders = outcome.holders.(i) in
          if holders = [] then QCheck.Test.fail_reportf "var %d: no holders" i;
          if List.exists (fun p -> p < 0 || p >= nprocs) holders then
            QCheck.Test.fail_reportf "var %d: holder outside the mesh" i;
          if List.sort_uniq compare holders <> holders then
            QCheck.Test.fail_reportf "var %d: holders not sorted-unique" i;
          if outcome.ncopies.(i) < 1 then
            QCheck.Test.fail_reportf "var %d: ncopies < 1" i)
        vars;
      true)

(* (5) Deterministic replay: the same seed reproduces the identical run,
   and enabling tracing perturbs nothing. *)
let prop_deterministic (name, spec) =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: seeded replay is bit-identical" name)
    ~count:4
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let o1, _, _, _ = run_mixed ~spec ~seed () in
      let o2, _, _, _ = run_mixed ~spec ~seed () in
      let o3, _, _, _ = run_mixed ~trace:true ~spec ~seed () in
      if o1 <> o2 then QCheck.Test.fail_report "replay diverged";
      if o1 <> o3 then QCheck.Test.fail_report "tracing perturbed the run";
      true)

let suite =
  List.concat_map
    (fun named ->
      List.map QCheck_alcotest.to_alcotest
        [
          prop_linearizable named;
          prop_read_your_writes named;
          prop_single_owner named;
          prop_quiescent_invariants named;
          prop_deterministic named;
        ])
    (Registry.contenders ())
