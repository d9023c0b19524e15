(* Home-based strategies: the CC-NUMA ownership scheme under a policy of
   a replication streak and home migration (see home.mli and
   docs/PROTOCOL.md §2). Fixed home is the preset {!fixed}: it replicates
   on the first miss and never migrates, so it keeps no streak, tally or
   window. *)

module Network = Diva_simnet.Network
module Prng = Diva_util.Prng
module Trace = Diva_obs.Trace

type owner = Home | Owned_by of Types.proc

type body =
  | Hrreq of { origin : Types.proc }
  | Hfetch
  | Hfdata
  | Hrdata of { reader : Types.proc; epoch : int; v : Value.t }
  | Hwreq of { origin : Types.proc; value : Value.t }
  | Hinv
  | Hinvack
  | Hgrant of { origin : Types.proc }
  | Hlock of { origin : Types.proc }
  | Hlgrant of { origin : Types.proc }
  | Hunlock
  | Hmove  (* home-state transfer to the new home; no handler action *)

(* Home-side transactions carry the issuer's causal id: they can be
   dequeued from inside another transaction's completion, and the protocol
   messages they spawn must be attributed to the original one. *)
type txn =
  | Tread of { origin : Types.proc; t_txn : int }
  | Twrite of { origin : Types.proc; value : Value.t; t_txn : int }

(* Per-variable state, reached from the variable's slot and carried by
   every protocol message. *)
type hstate = {
  var : Types.var;
  mutable home : Types.proc;  (* migrates; requests to a stale home forward *)
  mutable owner : owner;
  home_copies : (Types.proc, unit) Hashtbl.t;  (* the home's registry *)
  valid : (Types.proc, unit) Hashtbl.t;  (* per-processor hit flags *)
  mutable epoch : int;
  mutable busy : bool;
  q : txn Queue.t;
  mutable cur : txn option;
  mutable acks : int;
  streak : (Types.proc, int) Hashtbl.t;
      (* consecutive home read misses since the last invalidation;
         [no_counts] when [replicate_after] is 1 *)
  tally : (Types.proc, int) Hashtbl.t;
      (* requests per proc, this window; [no_counts] if the home never
         migrates *)
  mutable window : int;  (* home transactions since the last re-examination *)
  (* Lock management: FIFO queue at the home (migrates with it). *)
  mutable lock_held : bool;
  lq : Types.proc Queue.t;
  mutable gone : bool;  (* retired: the state is dropped *)
}

type Types.slot += Home of hstate
type Network.payload += Hm of { hs : hstate; body : body }

type t = {
  net : Network.t;
  replicate_after : int;
  migrate_after : int;
  read_waiters : (int, Value.t -> unit) Hashtbl.t;  (* var_id * P + proc *)
  write_waiters : (int, unit -> unit) Hashtbl.t;
  lock_waiters : (int, unit -> unit) Hashtbl.t;
  mutable migrations : int;
}

let fixed = { Strategy.replicate_after = 1; migrate_after = max_int }

let create net (c : Strategy.adaptive_config) =
  if c.replicate_after < 1 then invalid_arg "Home.create: replicate_after";
  if c.migrate_after < 1 then invalid_arg "Home.create: migrate_after";
  {
    net;
    replicate_after = c.replicate_after;
    migrate_after = c.migrate_after;
    read_waiters = Hashtbl.create 64;
    write_waiters = Hashtbl.create 64;
    lock_waiters = Hashtbl.create 64;
    migrations = 0;
  }

(* A window of [max_int] transactions never closes. *)
let migrates t = t.migrate_after < max_int

(* The streak and tally of every variable whose policy needs none; never
   written. *)
let no_counts : (Types.proc, int) Hashtbl.t = Hashtbl.create 1

let get t (var : Types.var) =
  match var.Types.slot with
  | Home hs -> hs
  | _ ->
      let nprocs = Network.num_nodes t.net in
      let home = Prng.hash2_int var.Types.seed 1 ~bound:nprocs in
      let hs =
        { var; home; owner = Owned_by var.Types.owner;
          home_copies = Hashtbl.create 4; valid = Hashtbl.create 4; epoch = 0;
          busy = false; q = Queue.create (); cur = None; acks = 0;
          streak =
            (if t.replicate_after = 1 then no_counts else Hashtbl.create 4);
          tally = (if migrates t then Hashtbl.create 4 else no_counts);
          window = 0; lock_held = false; lq = Queue.create (); gone = false }
      in
      Hashtbl.add hs.home_copies var.Types.owner ();
      Hashtbl.add hs.valid var.Types.owner ();
      var.Types.slot <- Home hs;
      hs

let wkey t var_id p = (var_id * Network.num_nodes t.net) + p

(* The continuation of a processor's pending operation on a variable. *)
let take waiters t hs p =
  let key = wkey t hs.var.Types.id p in
  match Hashtbl.find_opt waiters key with
  | Some k ->
      Hashtbl.remove waiters key;
      k
  | None -> assert false

let send t hs ~src ~dst ~size body =
  Network.send t.net ~src ~dst ~size (Hm { hs; body })

(* There is no access tree: copy events carry tnode/level -1. *)
let trace_copy t hs node change =
  let tr = Network.trace t.net in
  if Trace.enabled tr then
    let ts = Network.now t.net in
    let var = hs.var.Types.id and var_name = hs.var.Types.name in
    Trace.emit tr
      (match change with
      | `Add -> Trace.Copy_add { ts; node; var; var_name; tnode = -1; level = -1 }
      | `Drop ->
          Trace.Copy_drop
            { ts; node; var; var_name; tnode = -1; level = -1;
              reason = Trace.Invalidated })

let send_ctl t hs ~src ~dst body = send t hs ~src ~dst ~size:Types.control_size body

let send_data t hs ~src ~dst body =
  send t hs ~src ~dst ~size:(Types.data_size hs.var) body

(* ------------------------------------------------------------------ *)
(* Home-side transaction machine                                        *)
(* ------------------------------------------------------------------ *)

(* Serialisation point of the read: the home sends the current value. A
   reader that has not earned a replica gets a one-shot value: it is not
   registered, so later writes need not invalidate it, and its reply
   carries epoch -1, which no version has. *)
let reply_read t hs origin =
  let cacheable =
    t.replicate_after = 1
    ||
    let s = 1 + Option.value ~default:0 (Hashtbl.find_opt hs.streak origin) in
    Hashtbl.replace hs.streak origin s;
    s >= t.replicate_after
  in
  if cacheable then Hashtbl.replace hs.home_copies origin ();
  send_data t hs ~src:hs.home ~dst:origin
    (Hrdata { reader = origin; epoch = (if cacheable then hs.epoch else -1);
              v = hs.var.Types.value });
  hs.cur <- None;
  hs.busy <- false

let commit_write t hs origin value =
  hs.var.Types.value <- value;
  hs.epoch <- hs.epoch + 1;
  Hashtbl.reset hs.home_copies;
  Hashtbl.add hs.home_copies origin ();
  (* An invalidation ends every replication streak. *)
  if t.replicate_after > 1 then Hashtbl.reset hs.streak;
  hs.owner <- Owned_by origin;
  send_ctl t hs ~src:hs.home ~dst:origin (Hgrant { origin });
  hs.cur <- None;
  hs.busy <- false

let rec process t hs =
  if (not hs.busy) && not (Queue.is_empty hs.q) then begin
    let txn = Queue.pop hs.q in
    hs.busy <- true;
    hs.cur <- Some txn;
    if migrates t then begin
      hs.window <- hs.window + 1;
      let origin =
        match txn with Tread { origin; _ } | Twrite { origin; _ } -> origin
      in
      Hashtbl.replace hs.tally origin
        (1 + Option.value ~default:0 (Hashtbl.find_opt hs.tally origin))
    end;
    Network.set_txn t.net
      (match txn with Tread { t_txn; _ } | Twrite { t_txn; _ } -> t_txn);
    match txn with
    | Tread { origin; _ } -> (
        match hs.owner with
        | Owned_by ow when ow <> origin ->
            (* Move the data (and ownership) back to the main memory. *)
            send_ctl t hs ~src:hs.home ~dst:ow Hfetch
        | Owned_by _ | Home ->
            hs.owner <- Home;
            reply_read t hs origin;
            process t hs)
    | Twrite { origin; value; _ } ->
        let holders =
          Hashtbl.fold (fun p () acc -> if p <> origin then p :: acc else acc)
            hs.home_copies []
        in
        if holders = [] then begin
          commit_write t hs origin value;
          process t hs
        end
        else begin
          hs.acks <- List.length holders;
          List.iter (fun p -> send_ctl t hs ~src:hs.home ~dst:p Hinv) holders
        end
  end

(* Re-examine the home placement once per window, only at quiescence (so
   a migration never races a home transaction's own messages). The tally
   argmax scans processor ids in ascending order — deterministic ties. *)
let maybe_migrate t hs =
  if (not hs.busy) && Queue.is_empty hs.q && hs.window >= t.migrate_after
  then begin
    let w = hs.window in
    let best = ref (-1) and bestn = ref 0 in
    for p = 0 to Network.num_nodes t.net - 1 do
      match Hashtbl.find_opt hs.tally p with
      | Some n when n > !bestn ->
          best := p;
          bestn := n
      | _ -> ()
    done;
    hs.window <- 0;
    Hashtbl.reset hs.tally;
    if 2 * !bestn >= w && !best >= 0 && !best <> hs.home then begin
      let old = hs.home in
      hs.home <- !best;
      t.migrations <- t.migrations + 1;
      let tr = Network.trace t.net in
      if Trace.enabled tr then
        Trace.emit tr
          (Trace.Remap
             { ts = Network.now t.net; var = hs.var.Types.id;
               var_name = hs.var.Types.name; tnode = -1; level = -1;
               from_node = old; to_node = !best });
      send_data t hs ~src:old ~dst:!best Hmove
    end
  end

let on_home_msg t hs body =
  (match body with
  | Hrreq { origin } ->
      Queue.add (Tread { origin; t_txn = Network.cur_txn t.net }) hs.q;
      process t hs
  | Hwreq { origin; value } ->
      Queue.add (Twrite { origin; value; t_txn = Network.cur_txn t.net }) hs.q;
      process t hs
  | Hfdata -> (
      match hs.cur with
      | Some (Tread { origin; t_txn }) ->
          Network.set_txn t.net t_txn;
          hs.owner <- Home;
          reply_read t hs origin;
          process t hs
      | _ -> assert false)
  | Hinvack -> (
      hs.acks <- hs.acks - 1;
      if hs.acks = 0 then
        match hs.cur with
        | Some (Twrite { origin; value; t_txn }) ->
            Network.set_txn t.net t_txn;
            commit_write t hs origin value;
            process t hs
        | _ -> assert false)
  | Hlock { origin } ->
      if hs.lock_held then Queue.add origin hs.lq
      else begin
        hs.lock_held <- true;
        send_ctl t hs ~src:hs.home ~dst:origin (Hlgrant { origin })
      end
  | Hunlock ->
      if Queue.is_empty hs.lq then hs.lock_held <- false
      else begin
        let nxt = Queue.pop hs.lq in
        send_ctl t hs ~src:hs.home ~dst:nxt (Hlgrant { origin = nxt })
      end
  | Hfetch | Hinv | Hrdata _ | Hgrant _ | Hlgrant _ | Hmove -> assert false);
  if migrates t then maybe_migrate t hs

let on_proc_msg t hs me body =
  match body with
  | Hfetch ->
      (* The home revokes ownership; this processor keeps a (reader) copy. *)
      send_data t hs ~src:me ~dst:hs.home Hfdata
  | Hinv ->
      if Hashtbl.mem hs.valid me then trace_copy t hs me `Drop;
      Hashtbl.remove hs.valid me;
      send_ctl t hs ~src:me ~dst:hs.home Hinvack
  | Hrdata { reader; epoch; v } ->
      assert (reader = me);
      if epoch = hs.epoch then begin
        if not (Hashtbl.mem hs.valid me) then trace_copy t hs me `Add;
        Hashtbl.replace hs.valid me ()
      end;
      take t.read_waiters t hs me v
  | Hgrant { origin } ->
      assert (origin = me);
      if not (Hashtbl.mem hs.valid me) then trace_copy t hs me `Add;
      Hashtbl.replace hs.valid me ();
      take t.write_waiters t hs me ()
  | Hlgrant { origin } ->
      assert (origin = me);
      take t.lock_waiters t hs me ()
  | Hrreq _ | Hwreq _ | Hfdata | Hinvack | Hlock _ | Hunlock | Hmove ->
      assert false

let handle t (msg : Network.msg) =
  match msg.Network.m_payload with
  | Hm { body = Hmove; _ } ->
      (* State already moved with the [home] field; the message only pays
         the transfer cost. Tolerated even if the variable was retired
         while the transfer travelled. *)
      true
  | Hm { hs; body } ->
      if hs.gone then failwith "Home.handle: message for a retired variable";
      let me = msg.Network.m_dst in
      (match body with
      | Hrreq _ | Hwreq _ | Hfdata | Hinvack | Hlock _ | Hunlock ->
          if me <> hs.home then
            (* The home migrated while this request travelled: forward. *)
            send_ctl t hs ~src:me ~dst:hs.home body
          else on_home_msg t hs body
      | Hfetch | Hinv | Hrdata _ | Hgrant _ | Hlgrant _ ->
          on_proc_msg t hs me body
      | Hmove -> assert false);
      true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Public operations                                                    *)
(* ------------------------------------------------------------------ *)

let cached t p var = Hashtbl.mem (get t var).valid p

let sole_copy t p var =
  let hs = get t var in
  (match hs.owner with Owned_by o -> o = p | Home -> false)
  && (not hs.busy) && Queue.is_empty hs.q

let read t p var ~k =
  let hs = get t var in
  Hashtbl.replace t.read_waiters (wkey t var.Types.id p) k;
  send_ctl t hs ~src:p ~dst:hs.home (Hrreq { origin = p })

let write t p var value ~k =
  let hs = get t var in
  Hashtbl.replace t.write_waiters (wkey t var.Types.id p) k;
  send_ctl t hs ~src:p ~dst:hs.home (Hwreq { origin = p; value })

let lock t p var ~k =
  let hs = get t var in
  Hashtbl.replace t.lock_waiters (wkey t var.Types.id p) k;
  send_ctl t hs ~src:p ~dst:hs.home (Hlock { origin = p })

let unlock t p var =
  let hs = get t var in
  send_ctl t hs ~src:p ~dst:hs.home Hunlock

let ncopies t var = Hashtbl.length (get t var).valid
let remaps t = t.migrations

(* Copy holders already are mesh processors. *)
let copy_holders t var =
  List.sort compare
    (Hashtbl.fold (fun p () acc -> p :: acc) (get t var).valid [])

(* Detach the state; the next access (if any) starts afresh at the
   owner. *)
let retire _t (var : Types.var) =
  match var.Types.slot with
  | Home hs ->
      hs.gone <- true;
      var.Types.slot <- Types.No_slot
  | _ -> ()

(* Structural invariants at quiescence: no home transaction in flight, at
   least one valid copy, every valid copy registered at the home, and the
   exclusive owner (if any) actually holding a valid copy. *)
let validate t (var : Types.var) =
  let hs = get t var in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if hs.busy || not (Queue.is_empty hs.q) then
    err "%s: home transaction still in flight" var.Types.name
  else if Hashtbl.length hs.valid = 0 then
    err "%s: no valid copy anywhere" var.Types.name
  else
    let untracked =
      Hashtbl.fold
        (fun p () acc -> if Hashtbl.mem hs.home_copies p then acc else p :: acc)
        hs.valid []
    in
    match (untracked, hs.owner) with
    | p :: _, _ ->
        err "%s: processor %d holds a copy the home does not track"
          var.Types.name p
    | [], Owned_by ow when not (Hashtbl.mem hs.valid ow) ->
        err "%s: owner %d lacks a valid copy" var.Types.name ow
    | [], _ -> Ok ()
