module Mesh = Diva_mesh.Mesh
module Deco = Diva_mesh.Decomposition
module Embedding = Diva_mesh.Embedding
module Network = Diva_simnet.Network
module Trace = Diva_obs.Trace
module Int_table = Diva_util.Int_table

type body =
  | Rreq of { origin : int }
  | Rrep of { origins : int list }
  | Wreq of { origin : int }
  | Winv
  | Wack
  | Wdata of { origin : int }
  | Lreq
  | Ltok
  | Rmove  (* state transfer of a remapped tree node; no handler action *)

(* Per-(variable, tree-node) protocol state. Created lazily: a missing
   entry means the node has never been touched, in which case its pointers
   are derivable from the variable's initial owner. Whether the node holds
   a copy is recorded in the variable's [copies] bitmap, not here. *)
type tstate = {
  mutable toward : int;  (* neighbour toward the copy component; -1 = copy *)
  mutable comp_edges : int list;  (* neighbours believed to be in the component *)
  mutable read_pending : bool;  (* forwarded a read, reply not yet back *)
  mutable parked : int list;  (* origins combined onto the in-flight reply *)
  mutable readers : (Value.t -> unit) list;  (* reads issued at this leaf, newest first *)
  mutable inv_waiting : int;  (* outstanding invalidation acks *)
  mutable inv_pred : int;  (* where to ack once [inv_waiting] drains; -1 = here *)
  (* Raymond's token-based mutual exclusion, on the same tree. *)
  mutable tok_toward : int;  (* neighbour toward the token; -1 = token here *)
  mutable lqueue : int list;  (* FIFO of requesting directions (or self) *)
  mutable lasked : bool;
  mutable locked : bool;
  mutable lock_k : (unit -> unit) option;  (* acquirer waiting at this leaf *)
  mutable place : int;  (* mesh node simulating this tree node, remaps included *)
  mutable last_use : int;  (* LRU tick *)
  mutable use_count : int;  (* lifetime touches, for frequency eviction *)
  mutable traffic : int;  (* messages served, for the remapping variant *)
}

(* Queued operations remember the causal transaction that issued them:
   they are dequeued from inside some other transaction's handler, and
   their protocol messages must be attributed to the original one. *)
type op =
  | Oread of { o_p : Types.proc; o_txn : int; o_k : Value.t -> unit }
  | Owrite of {
      o_p : Types.proc;
      o_txn : int;
      o_v : Value.t;
      o_k : unit -> unit;
    }

type wtxn = {
  w_origin : int;  (* writer's leaf tree node *)
  w_value : Value.t;
  w_done : unit -> unit;
  mutable w_u : int;  (* component node coordinating the invalidation *)
}

(* Per-variable control block, reached from the variable's slot and
   carried by every protocol message: transaction control (writes are
   serialized against each other and against in-flight reads; cache hits
   bypass this entirely) plus all of the variable's tree-node state. *)
type ctl = {
  var : Types.var;
  mutable ncopies : int;
  mutable reading : int;  (* read transactions in flight *)
  mutable writing : bool;
  pending : op Queue.t;
  mutable wtxn : wtxn option;
  states : tstate Int_table.t;  (* tree node -> state, materialised ones *)
  copies : Bytes.t;  (* one bit per tree node: does it hold a copy? *)
  mutable gone : bool;  (* retired: the state is dropped *)
}

type Types.slot += Tree of ctl

type Network.payload +=
  | At of { ctl : ctl; from : int; tnode : int; body : body }

type t = {
  net : Network.t;
  deco : Deco.t;
  embedding : Embedding.kind;
  capacity : int option;
  combining : bool;
  remap_threshold : int option;
  eviction : Strategy.eviction;
  remap_rng : Diva_util.Prng.t;
  mutable remap_count : int;
  mem_used : int array;  (* bytes per processor, only if capacity is set *)
  held : (int, ctl) Hashtbl.t array;  (* per processor: state key -> its variable *)
  mutable lru_tick : int;
  mutable eviction_count : int;
}

let create net (c : Strategy.tree_config) =
  let deco =
    Deco.build (Network.mesh net) ~arity:(Deco.arity_of_int c.arity)
      ~leaf_size:c.leaf_size
  in
  {
    net;
    deco;
    embedding = c.embedding;
    capacity = c.capacity;
    combining = c.combining;
    remap_threshold = c.remap_threshold;
    eviction = c.eviction;
    remap_rng = Diva_util.Prng.split (Network.rng net);
    remap_count = 0;
    mem_used = Array.make (Network.num_nodes net) 0;
    held =
      (match c.capacity with
      | None -> [||]
      | Some _ -> Array.init (Network.num_nodes net) (fun _ -> Hashtbl.create 8));
    lru_tick = 0;
    eviction_count = 0;
  }

(* Keys of the per-processor [held] registries. Their hash order breaks
   eviction ties, so it is part of the capacity goldens. *)
let key t (ctl : ctl) tnode = (ctl.var.Types.id * t.deco.Deco.num_tree_nodes) + tnode
let leaf t p = t.deco.Deco.leaf_of_proc.(p)

let has_copy ctl tnode =
  Char.code (Bytes.get ctl.copies (tnode lsr 3)) land (1 lsl (tnode land 7)) <> 0

let set_copy ctl tnode on =
  let i = tnode lsr 3 and bit = 1 lsl (tnode land 7) in
  let b = Char.code (Bytes.get ctl.copies i) in
  Bytes.set ctl.copies i (Char.unsafe_chr (if on then b lor bit else b land lnot bit))

(* Template for fresh states (copied, never mutated) and the filler of
   empty [Int_table] slots. *)
let no_state =
  { toward = -1; comp_edges = []; read_pending = false; parked = [];
    readers = []; inv_waiting = 0; inv_pred = -1; tok_toward = -1; lqueue = [];
    lasked = false; locked = false; lock_k = None; place = -1; last_use = 0;
    use_count = 0; traffic = 0 }

let get_ctl t (var : Types.var) =
  match var.Types.slot with
  | Tree c -> c
  | _ ->
      let c =
        { var; ncopies = 1; reading = 0; writing = false;
          pending = Queue.create (); wtxn = None;
          states = Int_table.create ~dummy:no_state 4;
          copies = Bytes.make ((t.deco.Deco.num_tree_nodes + 7) / 8) '\000';
          gone = false }
      in
      set_copy c (leaf t var.Types.owner) true;
      var.Types.slot <- Tree c;
      c

(* The placement is computed once, when the state is materialised: the
   embedding rule walks from the tree root, one level per ancestor. *)
let get_state t (ctl : ctl) tnode =
  match Int_table.find ctl.states tnode with
  | s -> s
  | exception Not_found ->
      let owner_leaf = leaf t ctl.var.Types.owner in
      let toward =
        if tnode = owner_leaf then -1
        else Deco.next_hop t.deco ~from:tnode ~target:owner_leaf
      in
      let place =
        Embedding.place_lazy t.embedding t.deco ~seed:ctl.var.Types.seed tnode
      in
      let s = { no_state with toward; tok_toward = toward; place } in
      Int_table.add ctl.states tnode s;
      s

let place t (var : Types.var) tnode =
  match var.Types.slot with
  | Tree ctl when Int_table.mem ctl.states tnode ->
      (Int_table.find ctl.states tnode).place
  | _ -> Embedding.place_lazy t.embedding t.deco ~seed:var.Types.seed tnode

(* LRU/LFU bookkeeping. Only the eviction score reads it, so it is
   skipped when memory is unbounded. *)
let touch t st =
  match t.capacity with
  | None -> ()
  | Some _ ->
      t.lru_tick <- t.lru_tick + 1;
      st.last_use <- t.lru_tick;
      st.use_count <- st.use_count + 1

let trace_copy_add t (ctl : ctl) tnode st =
  let tr = Network.trace t.net in
  if Trace.enabled tr then
    Trace.emit tr
      (Trace.Copy_add
         { ts = Network.now t.net; node = st.place;
           var = ctl.var.Types.id; var_name = ctl.var.Types.name; tnode;
           level = t.deco.Deco.depth.(tnode) })

let trace_copy_drop t (ctl : ctl) tnode st reason =
  let tr = Network.trace t.net in
  if Trace.enabled tr then
    Trace.emit tr
      (Trace.Copy_drop
         { ts = Network.now t.net; node = st.place;
           var = ctl.var.Types.id; var_name = ctl.var.Types.name; tnode;
           level = t.deco.Deco.depth.(tnode); reason })

(* Materialising the destination's state here rather than on arrival
   changes nothing: an untouched node's state is a function of the owner
   and the node alone. *)
let send_tree t (ctl : ctl) ~from ~tnode ~size body =
  let src = (get_state t ctl from).place and dst = (get_state t ctl tnode).place in
  Network.tag_level t.net t.deco.Deco.depth.(tnode);
  Network.send t.net ~src ~dst ~size (At { ctl; from; tnode; body })

let send_ctl t ctl ~from ~tnode body =
  send_tree t ctl ~from ~tnode ~size:Types.control_size body

let send_data t ctl ~from ~tnode body =
  send_tree t ctl ~from ~tnode ~size:(Types.data_size ctl.var) body

(* ------------------------------------------------------------------ *)
(* Copy bookkeeping and LRU replacement                                 *)
(* ------------------------------------------------------------------ *)

(* A copy is evictable if removing it keeps the component connected (it is
   a component leaf), it is not the last copy, and no transaction is
   touching it. Eviction is silent: the remaining neighbour keeps a stale
   component edge, which the invalidation handler tolerates. *)
let evictable (ctl : ctl) tnode st =
  has_copy ctl tnode && ctl.ncopies > 1
  && (not ctl.writing)
  && (not st.read_pending)
  && st.parked = []
  && st.inv_waiting = 0
  && List.length st.comp_edges <= 1

let unaccount_copy t (ctl : ctl) tnode st =
  match t.capacity with
  | None -> ()
  | Some _ ->
      let proc = st.place in
      t.mem_used.(proc) <- t.mem_used.(proc) - ctl.var.Types.data_size;
      Hashtbl.remove t.held.(proc) (key t ctl tnode)

(* Scan only the copies held at [proc] (the per-processor registry). The
   victim minimizes the policy's score: the LRU tick, or the lifetime
   touch count (ties broken by the LRU tick, so frequency eviction stays
   deterministic). *)
let score t st =
  match t.eviction with
  | Strategy.Lru -> (st.last_use, 0)
  | Strategy.Freq -> (st.use_count, st.last_use)

let evict t proc =
  let nt = t.deco.Deco.num_tree_nodes in
  let best = ref None in
  Hashtbl.iter
    (fun k ctl ->
      let tnode = k mod nt in
      match Int_table.find ctl.states tnode with
      | exception Not_found -> ()
      | st when evictable ctl tnode st -> (
          match !best with
          | Some (_, _, _, sc) when sc <= score t st -> ()
          | _ -> best := Some (tnode, ctl, st, score t st))
      | _ -> ())
    t.held.(proc);
  match !best with
  | None -> false
  | Some (tnode, ctl, st, _) ->
      trace_copy_drop t ctl tnode st Trace.Evicted;
      set_copy ctl tnode false;
      st.toward <- (match st.comp_edges with e :: _ -> e | [] -> assert false);
      st.comp_edges <- [];
      ctl.ncopies <- ctl.ncopies - 1;
      unaccount_copy t ctl tnode st;
      t.eviction_count <- t.eviction_count + 1;
      true

let account_copy t (ctl : ctl) tnode st =
  match t.capacity with
  | None -> ()
  | Some cap ->
      let proc = st.place in
      t.mem_used.(proc) <- t.mem_used.(proc) + ctl.var.Types.data_size;
      Hashtbl.replace t.held.(proc) (key t ctl tnode) ctl;
      let continue = ref true in
      while t.mem_used.(proc) > cap && !continue do
        continue := evict t proc
      done

let add_copy t ctl tnode st =
  if not (has_copy ctl tnode) then begin
    set_copy ctl tnode true;
    st.toward <- -1;
    ctl.ncopies <- ctl.ncopies + 1;
    touch t st;
    trace_copy_add t ctl tnode st;
    account_copy t ctl tnode st
  end

let remove_copy t ctl tnode st =
  if has_copy ctl tnode then begin
    set_copy ctl tnode false;
    ctl.ncopies <- ctl.ncopies - 1;
    trace_copy_drop t ctl tnode st Trace.Invalidated;
    unaccount_copy t ctl tnode st
  end

let add_edge st nb = if not (List.mem nb st.comp_edges) then st.comp_edges <- nb :: st.comp_edges

(* ------------------------------------------------------------------ *)
(* Transaction gating                                                   *)
(* ------------------------------------------------------------------ *)

let complete_reads ctl st =
  match st.readers with
  | [] -> ()
  | ks ->
      st.readers <- [];
      ctl.reading <- ctl.reading - List.length ks;
      let v = ctl.var.Types.value in
      List.iter (fun k -> k v) (List.rev ks)

let rec process_queue t ctl =
  if not ctl.writing then
    match Queue.peek_opt ctl.pending with
    | Some (Oread { o_p; o_txn; o_k }) ->
        ignore (Queue.pop ctl.pending);
        let saved = Network.cur_txn t.net in
        Network.set_txn t.net o_txn;
        start_read t ctl o_p o_k;
        Network.set_txn t.net saved;
        process_queue t ctl
    | Some (Owrite { o_p; o_txn; o_v; o_k }) when ctl.reading = 0 ->
        ignore (Queue.pop ctl.pending);
        let saved = Network.cur_txn t.net in
        Network.set_txn t.net o_txn;
        start_write t ctl o_p o_v o_k;
        Network.set_txn t.net saved
    | Some (Owrite _) | None -> ()

and start_read t ctl p k =
  ctl.reading <- ctl.reading + 1;
  let origin = leaf t p in
  let st = get_state t ctl origin in
  st.readers <- k :: st.readers;
  if has_copy ctl origin then begin
    touch t st;
    complete_reads ctl st;
    process_queue t ctl
  end
  else if st.read_pending then
    (* A previous read from this leaf is in flight; its reply will arrive
       here and complete every registered reader. *)
    ()
  else begin
    st.read_pending <- true;
    send_ctl t ctl ~from:origin ~tnode:st.toward (Rreq { origin })
  end

and start_write t ctl p value k =
  ctl.writing <- true;
  let origin = leaf t p in
  ctl.wtxn <- Some { w_origin = origin; w_value = value; w_done = k; w_u = origin };
  let st = get_state t ctl origin in
  if has_copy ctl origin then begin
    touch t st;
    begin_invalidation t ctl origin
  end
  else send_data t ctl ~from:origin ~tnode:st.toward (Wreq { origin })

and begin_invalidation t ctl u =
  (match ctl.wtxn with Some w -> w.w_u <- u | None -> assert false);
  let st = get_state t ctl u in
  let nbrs = st.comp_edges in
  st.comp_edges <- [];
  if nbrs = [] then finish_invalidation t ctl
  else begin
    st.inv_waiting <- List.length nbrs;
    st.inv_pred <- -1;
    List.iter (fun nb -> send_ctl t ctl ~from:u ~tnode:nb Winv) nbrs
  end

and finish_invalidation t ctl =
  let w = match ctl.wtxn with Some w -> w | None -> assert false in
  ctl.var.Types.value <- w.w_value;
  if ctl.ncopies <> 1 then
    failwith
      (Printf.sprintf "access tree: %d copies of %s survive invalidation"
         ctl.ncopies ctl.var.Types.name);
  if w.w_u = w.w_origin then complete_write t ctl
  else begin
    let st = get_state t ctl w.w_u in
    let nxt = Deco.next_hop t.deco ~from:w.w_u ~target:w.w_origin in
    add_edge st nxt;
    send_data t ctl ~from:w.w_u ~tnode:nxt (Wdata { origin = w.w_origin })
  end

and complete_write t ctl =
  let w = match ctl.wtxn with Some w -> w | None -> assert false in
  ctl.wtxn <- None;
  ctl.writing <- false;
  w.w_done ();
  process_queue t ctl

(* ------------------------------------------------------------------ *)
(* Message handlers                                                     *)
(* ------------------------------------------------------------------ *)

let on_rreq t ctl ~tnode ~origin =
  let st = get_state t ctl tnode in
  if has_copy ctl tnode then begin
    touch t st;
    let nxt = Deco.next_hop t.deco ~from:tnode ~target:origin in
    add_edge st nxt;
    send_data t ctl ~from:tnode ~tnode:nxt (Rrep { origins = [ origin ] })
  end
  else if st.read_pending && t.combining then st.parked <- origin :: st.parked
  else begin
    if t.combining then st.read_pending <- true;
    send_ctl t ctl ~from:tnode ~tnode:st.toward (Rreq { origin })
  end

let on_rrep t ctl ~from ~tnode ~origins =
  let st = get_state t ctl tnode in
  add_copy t ctl tnode st;
  touch t st;
  add_edge st from;
  st.read_pending <- false;
  let targets =
    List.filter (fun o -> o <> tnode) (origins @ st.parked)
  in
  st.parked <- [];
  (* Multicast along tree branches: one message per distinct direction. *)
  let groups = Hashtbl.create 4 in
  List.iter
    (fun o ->
      let nxt = Deco.next_hop t.deco ~from:tnode ~target:o in
      let cur = Option.value ~default:[] (Hashtbl.find_opt groups nxt) in
      Hashtbl.replace groups nxt (o :: cur))
    targets;
  Hashtbl.iter
    (fun nxt os ->
      add_edge st nxt;
      send_data t ctl ~from:tnode ~tnode:nxt (Rrep { origins = os }))
    groups;
  (* Completions last: they may resume fibers that issue new operations. *)
  complete_reads ctl st;
  process_queue t ctl

let on_wreq t ctl ~tnode ~origin =
  let st = get_state t ctl tnode in
  if has_copy ctl tnode then begin
    touch t st;
    begin_invalidation t ctl tnode
  end
  else send_data t ctl ~from:tnode ~tnode:st.toward (Wreq { origin })

let on_winv t ctl ~from ~tnode =
  let st = get_state t ctl tnode in
  if not (has_copy ctl tnode) then begin
    (* Stale component edge left behind by a silent LRU eviction. *)
    st.toward <- from;
    send_ctl t ctl ~from:tnode ~tnode:from Wack
  end
  else begin
    remove_copy t ctl tnode st;
    st.toward <- from;
    let out = List.filter (fun nb -> nb <> from) st.comp_edges in
    st.comp_edges <- [];
    if out = [] then send_ctl t ctl ~from:tnode ~tnode:from Wack
    else begin
      st.inv_waiting <- List.length out;
      st.inv_pred <- from;
      List.iter (fun nb -> send_ctl t ctl ~from:tnode ~tnode:nb Winv) out
    end
  end

let on_wack t ctl ~tnode =
  let st = get_state t ctl tnode in
  assert (st.inv_waiting > 0);
  st.inv_waiting <- st.inv_waiting - 1;
  if st.inv_waiting = 0 then
    if st.inv_pred = -1 then finish_invalidation t ctl
    else begin
      let pred = st.inv_pred in
      st.inv_pred <- -1;
      send_ctl t ctl ~from:tnode ~tnode:pred Wack
    end

let on_wdata t ctl ~from ~tnode ~origin =
  let st = get_state t ctl tnode in
  add_copy t ctl tnode st;
  touch t st;
  st.comp_edges <- [ from ];
  if tnode = origin then complete_write t ctl
  else begin
    let nxt = Deco.next_hop t.deco ~from:tnode ~target:origin in
    add_edge st nxt;
    send_data t ctl ~from:tnode ~tnode:nxt (Wdata { origin })
  end

(* ------------------------------------------------------------------ *)
(* Raymond's mutual exclusion on the access tree                        *)
(* ------------------------------------------------------------------ *)

let rec assign_privilege t ctl tnode =
  let st = get_state t ctl tnode in
  if st.tok_toward = -1 && (not st.locked) && st.lqueue <> [] then begin
    let next, rest =
      match st.lqueue with n :: r -> (n, r) | [] -> assert false
    in
    st.lqueue <- rest;
    st.lasked <- false;
    if next = tnode then begin
      st.locked <- true;
      match st.lock_k with
      | Some k ->
          st.lock_k <- None;
          k ()
      | None -> assert false
    end
    else begin
      st.tok_toward <- next;
      send_ctl t ctl ~from:tnode ~tnode:next Ltok;
      make_request t ctl tnode
    end
  end

and make_request t ctl tnode =
  let st = get_state t ctl tnode in
  if st.tok_toward <> -1 && st.lqueue <> [] && not st.lasked then begin
    st.lasked <- true;
    send_ctl t ctl ~from:tnode ~tnode:st.tok_toward Lreq
  end

let on_lreq t ctl ~from ~tnode =
  let st = get_state t ctl tnode in
  st.lqueue <- st.lqueue @ [ from ];
  assign_privilege t ctl tnode;
  make_request t ctl tnode

let on_ltok t ctl ~tnode =
  let st = get_state t ctl tnode in
  st.tok_toward <- -1;
  assign_privilege t ctl tnode;
  make_request t ctl tnode

let lock t p var ~k =
  let ctl = get_ctl t var in
  let tnode = leaf t p in
  let st = get_state t ctl tnode in
  st.lock_k <- Some k;
  st.lqueue <- st.lqueue @ [ tnode ];
  assign_privilege t ctl tnode;
  make_request t ctl tnode

let unlock t p var =
  let ctl = get_ctl t var in
  let tnode = leaf t p in
  let st = get_state t ctl tnode in
  if not st.locked then
    invalid_arg "Access_tree.unlock: processor does not hold the lock";
  st.locked <- false;
  assign_privilege t ctl tnode;
  make_request t ctl tnode

(* ------------------------------------------------------------------ *)
(* Public operations                                                    *)
(* ------------------------------------------------------------------ *)

let cached t p var =
  let ctl = get_ctl t var in
  let tnode = leaf t p in
  if has_copy ctl tnode then begin
    (match t.capacity with None -> () | Some _ -> touch t (get_state t ctl tnode));
    true
  end
  else false

let sole_copy t p var =
  let ctl = get_ctl t var in
  has_copy ctl (leaf t p) && ctl.ncopies = 1 && (not ctl.writing) && ctl.reading = 0
  && Queue.is_empty ctl.pending

let read t p var ~k =
  let ctl = get_ctl t var in
  if ctl.writing || not (Queue.is_empty ctl.pending) then
    Queue.add (Oread { o_p = p; o_txn = Network.cur_txn t.net; o_k = k })
      ctl.pending
  else start_read t ctl p k

let write t p var value ~k =
  let ctl = get_ctl t var in
  if ctl.writing || ctl.reading > 0 || not (Queue.is_empty ctl.pending) then
    Queue.add
      (Owrite { o_p = p; o_txn = Network.cur_txn t.net; o_v = value; o_k = k })
      ctl.pending
  else start_write t ctl p value k

(* The remapping variant of the original FOCS'97 strategy: once a tree node
   has served [threshold] messages it moves to a fresh random processor of
   its submesh. In-flight messages still reach its state (states are keyed
   by tree-node id, not by placement); only the link traffic changes. *)
let maybe_remap t (ctl : ctl) tnode =
  match t.remap_threshold with
  | None -> ()
  | Some threshold ->
      let st = get_state t ctl tnode in
      st.traffic <- st.traffic + 1;
      if st.traffic >= threshold && not (Deco.is_leaf t.deco tnode) then begin
        st.traffic <- 0;
        let sm = t.deco.Deco.submesh.(tnode) in
        let mesh = t.deco.Deco.mesh in
        let coords =
          Array.mapi
            (fun k o -> o + Diva_util.Prng.int t.remap_rng sm.Deco.sizes.(k))
            sm.Deco.origin
        in
        let fresh = Mesh.node_at_nd mesh coords in
        let old = st.place in
        if fresh <> old then begin
          (* Move the node's state (and copy, if any). *)
          let copy = has_copy ctl tnode in
          let size = if copy then Types.data_size ctl.var else Types.control_size in
          (match t.capacity with
          | Some _ when copy ->
              let k = key t ctl tnode in
              t.mem_used.(old) <- t.mem_used.(old) - ctl.var.Types.data_size;
              Hashtbl.remove t.held.(old) k;
              t.mem_used.(fresh) <- t.mem_used.(fresh) + ctl.var.Types.data_size;
              Hashtbl.replace t.held.(fresh) k ctl
          | _ -> ());
          st.place <- fresh;
          t.remap_count <- t.remap_count + 1;
          let tr = Network.trace t.net in
          if Trace.enabled tr then
            Trace.emit tr
              (Trace.Remap
                 { ts = Network.now t.net; var = ctl.var.Types.id;
                   var_name = ctl.var.Types.name; tnode;
                   level = t.deco.Deco.depth.(tnode); from_node = old;
                   to_node = fresh });
          Network.tag_level t.net t.deco.Deco.depth.(tnode);
          Network.send t.net ~src:old ~dst:fresh ~size
            (At { ctl; from = tnode; tnode; body = Rmove })
        end
      end

let handle t (msg : Network.msg) =
  match msg.Network.m_payload with
  | At { ctl; from; tnode; body } ->
      if ctl.gone then failwith "Access_tree.handle: message for a retired variable";
      (match body with
      | Rreq { origin } -> on_rreq t ctl ~tnode ~origin
      | Rrep { origins } -> on_rrep t ctl ~from ~tnode ~origins
      | Wreq { origin } -> on_wreq t ctl ~tnode ~origin
      | Winv -> on_winv t ctl ~from ~tnode
      | Wack -> on_wack t ctl ~tnode
      | Wdata { origin } -> on_wdata t ctl ~from ~tnode ~origin
      | Lreq -> on_lreq t ctl ~from ~tnode
      | Ltok -> on_ltok t ctl ~tnode
      | Rmove -> ());
      (match body with Rmove -> () | _ -> maybe_remap t ctl tnode);
      true
  | _ -> false

let ncopies _t (var : Types.var) =
  match var.Types.slot with Tree ctl -> ctl.ncopies | _ -> 1

(* Tree nodes whose bit is set in the variable's copy bitmap, ascending. *)
let copy_holders t (var : Types.var) =
  match var.Types.slot with
  | Tree ctl ->
      let acc = ref [] in
      for tnode = t.deco.Deco.num_tree_nodes - 1 downto 0 do
        if has_copy ctl tnode then acc := tnode :: !acc
      done;
      !acc
  | _ -> [ leaf t var.Types.owner ]

let evictions t = t.eviction_count
let remaps t = t.remap_count

(* Drop every state of the variable and detach the control block; the
   next access (if any) starts from a fresh singleton at the owner. *)
let retire t (var : Types.var) =
  match var.Types.slot with
  | Tree ctl ->
      if ctl.writing || ctl.reading > 0 || not (Queue.is_empty ctl.pending) then
        invalid_arg "Access_tree.retire: variable has transactions in flight";
      if t.capacity <> None then
        Int_table.iter
          (fun tnode st -> if has_copy ctl tnode then unaccount_copy t ctl tnode st)
          ctl.states;
      Int_table.reset ctl.states;
      ctl.gone <- true;
      var.Types.slot <- Types.No_slot
  | _ -> ()

let deco t = t.deco

let validate t (var : Types.var) =
  match var.Types.slot with
  | Tree ctl ->
      let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
      if ctl.writing || ctl.reading > 0 || not (Queue.is_empty ctl.pending) then
        err "%s: transactions in flight" var.Types.name
      else begin
        let holders = copy_holders t var in
        let nh = List.length holders in
        if nh <> ctl.ncopies then
          err "%s: ncopies %d but %d holders" var.Types.name ctl.ncopies nh
        else if nh = 0 then err "%s: no copies at all" var.Types.name
        else begin
          (* Connectivity: every holder except the shallowest reaches
             another holder via its tree parent chain within the component.
             Equivalently: for each holder other than the minimum-depth
             one, its parent-ward neighbour on the path toward the first
             holder must also be a holder (connected subtrees of a tree are
             exactly sets closed under taking the path to a fixed member).
             We check pairwise paths to the first holder. *)
          let first = List.hd holders in
          let connected =
            List.for_all
              (fun h ->
                h = first
                || List.for_all
                     (fun x -> has_copy ctl x)
                     (let rec walk cur acc =
                        if cur = first then acc
                        else
                          let nxt = Deco.next_hop t.deco ~from:cur ~target:first in
                          walk nxt (nxt :: acc)
                      in
                      walk h [ h ]))
              holders
          in
          if not connected then err "%s: copy component disconnected" var.Types.name
          else begin
            (* Every materialised pointer chain reaches the component. A
               node never touched points toward the owner's leaf. *)
            let nt = t.deco.Deco.num_tree_nodes in
            let owner_leaf = leaf t var.Types.owner in
            let toward cur =
              match Int_table.find ctl.states cur with
              | st -> st.toward
              | exception Not_found ->
                  if cur = owner_leaf then -1
                  else Deco.next_hop t.deco ~from:cur ~target:owner_leaf
            in
            let rec chase cur steps =
              if steps > nt || cur < 0 then false
              else has_copy ctl cur || chase (toward cur) (steps + 1)
            in
            let bad = ref None in
            Int_table.iter
              (fun tnode _ -> if not (chase tnode 0) then bad := Some tnode)
              ctl.states;
            match !bad with
            | Some tn -> err "%s: pointer chain from node %d is lost" var.Types.name tn
            | None -> Ok ()
          end
        end
      end
  | _ -> Ok ()  (* never accessed: implicit singleton at the owner *)

(* ------------------------------------------------------------------ *)
(* STRATEGY instance                                                    *)
(* ------------------------------------------------------------------ *)

module Impl :
  Strategy.STRATEGY with type t = t and type config = Strategy.tree_config =
struct
  type nonrec t = t
  type config = Strategy.tree_config

  let id = "access-tree"

  let create = create
  let sync_deco t = Some t.deco
  let handle = handle
  let cached = cached
  let sole_copy = sole_copy
  let read = read
  let write = write
  let lock = lock
  let unlock = unlock
  let ncopies = ncopies

  let copy_holder_places t var =
    List.sort_uniq compare (List.map (place t var) (copy_holders t var))

  let evictions = evictions
  let remaps = remaps
  let retire = retire
  let validate = validate
end
