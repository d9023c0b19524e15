module Deco = Diva_mesh.Decomposition
module Embedding = Diva_mesh.Embedding
module Network = Diva_simnet.Network
module Machine = Diva_simnet.Machine
module Sim = Diva_simnet.Sim
module Prng = Diva_util.Prng
module Trace = Diva_obs.Trace
module Faults = Diva_faults.Faults

type strategy = Strategy.spec =
  | Access_tree of Strategy.tree_config
  | Fixed_home
  | Adaptive of Strategy.adaptive_config

let access_tree ?(leaf_size = 1) ?(embedding = Embedding.Regular) ?capacity
    ?(combining = true) ?remap_threshold ~arity () =
  Access_tree
    { Strategy.arity; leaf_size; embedding; capacity; combining;
      remap_threshold; eviction = Strategy.Lru }

let strategy_name = Strategy.spec_name

(* The two protocols; every operation below matches on it. *)
type protocol = Tree of Access_tree.t | Home of Home.t

type t = {
  network : Network.t;
  protocol : protocol;
  sync : Sync.t;
  hit_cost : float;  (* CPU time of a locally served read or write *)
  mutable next_var_id : int;
  var_seed : int64;
  mutable n_reads : int;
  mutable n_writes : int;
  mutable n_read_hits : int;
}

type 'a var = {
  v : Types.var;
  inj : 'a -> Value.t;
  proj : Value.t -> 'a;
}

(* CPU cost of a locally served access, in integer-operation units. *)
let hit_ops = 10

let create network ~strategy () =
  (* RNG draw order is part of the bit-identity contract with the golden
     traces: (1) split off the DSM stream, (2) create the protocol (the
     access tree splits the network stream for its remap RNG), (3) split
     the sync stream, (4) draw the variable seed. Barriers and reductions
     run on the access tree's own decomposition, or on the four-ary one
     under a home-based protocol. *)
  let rng = Prng.split (Network.rng network) in
  let home c =
    ( Home (Home.create network c),
      Deco.build (Network.mesh network) ~arity:Deco.Four ~leaf_size:1 )
  in
  let protocol, sync_deco =
    match strategy with
    | Access_tree c ->
        let at = Access_tree.create network c in
        (Tree at, Access_tree.deco at)
    | Fixed_home -> home Home.fixed
    | Adaptive c -> home c
  in
  let sync = Sync.create network sync_deco ~rng:(Prng.split rng) () in
  let machine = Network.machine network in
  let t =
    {
      network;
      protocol;
      sync;
      hit_cost = float_of_int hit_ops *. machine.Machine.int_op_time;
      next_var_id = 0;
      var_seed = Prng.bits64 rng;
      n_reads = 0;
      n_writes = 0;
      n_read_hits = 0;
    }
  in
  let dispatch =
    (* The closure is installed on every node, so the protocol is matched
       once, here, not per message. The profiler is likewise looked up
       once — observability is installed before the DSM is created
       (Runner.install_obs), and attaching a profiler to a network with a
       live DSM is unsupported — so the unprofiled dispatch path stays
       exactly as it was. *)
    let handle =
      match protocol with
      | Tree at -> Access_tree.handle at
      | Home h -> Home.handle h
    in
    match Network.prof network with
    | None ->
        fun net msg ->
          if not (handle msg || Sync.handle t.sync msg) then
            Network.mailbox_deliver net msg
    | Some p ->
        let module Prof = Diva_obs.Prof in
        fun net msg ->
          (* Refine the attribution for the strategy handler. *)
          Prof.set_sub p Prof.Strategy;
          let handled = handle msg in
          Prof.set_sub p Prof.Protocol;
          if not (handled || Sync.handle t.sync msg) then
            Network.mailbox_deliver net msg
  in
  for node = 0 to Network.num_nodes network - 1 do
    Network.set_handler network node dispatch
  done;
  t

let net t = t.network
let num_procs t = Network.num_nodes t.network

let create_var t ?name ~owner ~size init =
  if owner < 0 || owner >= num_procs t then invalid_arg "Dsm.create_var: bad owner";
  if size < 0 then invalid_arg "Dsm.create_var: negative size";
  let id = t.next_var_id in
  t.next_var_id <- id + 1;
  let name = match name with Some n -> n | None -> Printf.sprintf "v%d" id in
  let inj, proj = Value.embed () in
  let v =
    {
      Types.id;
      name;
      data_size = size;
      owner;
      seed = Prng.hash2 t.var_seed id;
      value = inj init;
      slot = Types.No_slot;
    }
  in
  let tr = Network.trace t.network in
  if Trace.enabled tr then
    Trace.emit tr
      (Trace.Var_decl
         { ts = Network.now t.network; var = id; var_name = name; size; owner });
  { v; inj; proj }

(* Blocking protocol operation with graceful degradation under faults: a
   watchdog fires after [patience] microseconds (doubling on every
   further firing, capped at 2^6) while the fiber stays blocked, and
   forces early retransmission of the issuing processor's stale pending
   envelopes. Re-driving the transport instead of re-issuing the
   transaction keeps exactly-once semantics — a re-issued write could
   commit twice; losses at other protocol nodes along the transaction are
   covered by their own retry timers. Without faults this is exactly
   [Network.suspend]. *)
let blocking_op t p register =
  match Network.faults t.network with
  | None -> Network.suspend register
  | Some f ->
      let net = t.network in
      let settled = ref false in
      let rec arm k =
        Sim.schedule (Network.sim net)
          (Network.now net
          +. (Faults.patience f *. Float.of_int (1 lsl min k 6)))
          (fun () ->
            if not !settled then begin
              Faults.count_dsm_reissue f;
              Network.nudge net ~src:p;
              arm (k + 1)
            end)
      in
      arm 0;
      Network.suspend (fun resume ->
          register (fun v ->
              settled := true;
              resume v))

(* One shared-memory operation span: [ts] is the issue time, [dur] the
   fiber's blocking latency (0 for hits). Emission happens after the
   operation completes, so the event never interleaves with the protocol.
   Callers test [traced] first: the build has no flambda, so the [Some]
   and the optional arguments would otherwise allocate on every
   untraced operation. *)
let traced t = Trace.enabled (Network.trace t.network)

let trace_op ?(size = -1) ?(txn = -1) ?(completed_by = -1) t p
    (v : Types.var option) op ~t0 ~hit =
  let var, var_name, size =
    match v with
    | Some v -> (v.Types.id, v.Types.name, v.Types.data_size)
    | None -> (-1, "", max 0 size)
  in
  Trace.emit (Network.trace t.network)
    (Trace.Dsm_access
       { ts = t0; dur = Network.now t.network -. t0; node = p; var;
         var_name; op; size; hit; txn; completed_by })

(* Open a causal transaction for a blocking operation: protocol messages
   sent while it is the current context inherit its id. The counter
   advances in untraced runs too (it feeds nothing in the simulation), so
   tracing cannot perturb a run. *)
let open_txn t =
  let txn = Network.fresh_txn t.network in
  Network.set_txn t.network txn;
  txn

let read t p var =
  t.n_reads <- t.n_reads + 1;
  let hit =
    match t.protocol with
    | Tree at -> Access_tree.cached at p var.v
    | Home h -> Home.cached h p var.v
  in
  if hit then begin
    t.n_read_hits <- t.n_read_hits + 1;
    Network.charge t.network p t.hit_cost;
    if traced t then
      trace_op t p (Some var.v) Trace.Read ~t0:(Network.now t.network) ~hit:true;
    var.proj var.v.Types.value
  end
  else begin
    Network.flush_charge t.network p;
    let t0 = Network.now t.network in
    let txn = open_txn t in
    let packed =
      blocking_op t p (fun resume ->
          match t.protocol with
          | Tree at -> Access_tree.read at p var.v ~k:resume
          | Home h -> Home.read h p var.v ~k:resume)
    in
    if traced t then
      trace_op t p (Some var.v) Trace.Read ~t0 ~hit:false ~txn
        ~completed_by:(Network.cur_msg t.network);
    var.proj packed
  end

let write t p var x =
  t.n_writes <- t.n_writes + 1;
  let value = var.inj x in
  let sole =
    match t.protocol with
    | Tree at -> Access_tree.sole_copy at p var.v
    | Home h -> Home.sole_copy h p var.v
  in
  if sole then begin
    Network.charge t.network p t.hit_cost;
    if traced t then
      trace_op t p (Some var.v) Trace.Write ~t0:(Network.now t.network) ~hit:true;
    var.v.Types.value <- value
  end
  else begin
    Network.flush_charge t.network p;
    let t0 = Network.now t.network in
    let txn = open_txn t in
    blocking_op t p (fun resume ->
        match t.protocol with
        | Tree at -> Access_tree.write at p var.v value ~k:resume
        | Home h -> Home.write h p var.v value ~k:resume);
    if traced t then
      trace_op t p (Some var.v) Trace.Write ~t0 ~hit:false ~txn
        ~completed_by:(Network.cur_msg t.network)
  end

let lock t p var =
  Network.flush_charge t.network p;
  let t0 = Network.now t.network in
  let txn = open_txn t in
  blocking_op t p (fun resume ->
      match t.protocol with
      | Tree at -> Access_tree.lock at p var.v ~k:resume
      | Home h -> Home.lock h p var.v ~k:resume);
  if traced t then
    trace_op t p (Some var.v) Trace.Lock ~t0 ~hit:false ~txn
      ~completed_by:(Network.cur_msg t.network)

let unlock t p var =
  Network.charge t.network p t.hit_cost;
  (* Non-blocking, but the release messages it triggers (token hand-off,
     next-grant) deserve their own causal id. *)
  let txn = open_txn t in
  if traced t then
    trace_op t p (Some var.v) Trace.Unlock ~t0:(Network.now t.network) ~hit:true
      ~txn;
  match t.protocol with
  | Tree at -> Access_tree.unlock at p var.v
  | Home h -> Home.unlock h p var.v

let barrier t p =
  Network.flush_charge t.network p;
  let t0 = Network.now t.network in
  let txn = open_txn t in
  blocking_op t p (fun resume -> Sync.barrier t.sync p ~k:resume);
  if traced t then
    trace_op t p None Trace.Barrier ~t0 ~hit:false ~txn
      ~completed_by:(Network.cur_msg t.network)

type 'a reducer = { red : 'a Sync.reducer; red_size : int }

let reducer t ~combine ~size = { red = Sync.reducer t.sync ~combine ~size; red_size = size }

let reduce t p r x =
  Network.flush_charge t.network p;
  let t0 = Network.now t.network in
  let txn = open_txn t in
  let y = blocking_op t p (fun resume -> Sync.reduce t.sync r.red p x ~k:resume) in
  if traced t then
    trace_op ~size:r.red_size t p None Trace.Reduce ~t0 ~hit:false ~txn
      ~completed_by:(Network.cur_msg t.network);
  y

let peek var = var.proj var.v.Types.value
let reads t = t.n_reads
let writes t = t.n_writes
let read_hits t = t.n_read_hits

let ncopies t var =
  match t.protocol with
  | Tree at -> Access_tree.ncopies at var.v
  | Home h -> Home.ncopies h var.v

let evictions t =
  match t.protocol with Tree at -> Access_tree.evictions at | Home _ -> 0

let remaps t =
  match t.protocol with
  | Tree at -> Access_tree.remaps at
  | Home h -> Home.remaps h

(* A tree's copy holders are tree nodes; several may sit on one
   processor. *)
let copy_holder_places t var =
  match t.protocol with
  | Tree at ->
      List.sort_uniq compare
        (List.map (Access_tree.place at var.v)
           (Access_tree.copy_holders at var.v))
  | Home h -> Home.copy_holders h var.v

let access_tree_handle t =
  match t.protocol with Tree at -> Some at | Home _ -> None

let typed var = var.v

let retire_var t var =
  match t.protocol with
  | Tree at -> Access_tree.retire at var.v
  | Home h -> Home.retire h var.v

let validate_var t var =
  match t.protocol with
  | Tree at -> Access_tree.validate at var.v
  | Home h -> Home.validate h var.v
