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

(* A queued lock request at a tree node (Raymond's [lqueue]): a
   neighbour asking for the token on behalf of its side of the tree, or
   an acquirer waiting at this leaf. *)
type lwait = Remote of int | Local of (unit -> unit)

(* Transaction sidecar of a tree node: the fields a read or an
   invalidation in flight needs. Most nodes share one of two sidecars
   that are never written: [idle_txn] when no transaction touches the
   node, [forwarding] when it only waits for the reply to a read it
   forwarded. *)
type txn = {
  mutable read_pending : bool;  (* forwarded a read, reply not yet back *)
  mutable parked : int list;  (* origins combined onto the in-flight reply *)
  mutable readers : (Value.t -> unit) list;  (* reads issued at this leaf, newest first *)
  mutable inv_waiting : int;  (* outstanding invalidation acks *)
  mutable inv_pred : int;  (* where to ack once [inv_waiting] drains; -1 = here *)
}

(* Rare sidecar of a tree node: Raymond's token-based mutual exclusion on
   the same tree, and the eviction and remapping counters. Nodes that
   never took part in a lock operation share [no_rare], which is never
   written, unless [capacity] or [remap_threshold] is set: then every
   state gets its own from the start. *)
type rare = {
  mutable tok_toward : int;  (* neighbour toward the token; -1 = token here *)
  lqueue : lwait Queue.t;  (* FIFO of token requests *)
  mutable lasked : bool;
  mutable locked : bool;
  mutable last_use : int;  (* LRU tick *)
  mutable use_count : int;  (* lifetime touches, for frequency eviction *)
  mutable traffic : int;  (* messages served, for the remapping variant *)
}

(* Per-(variable, tree-node) protocol state: the core record, which is all
   most nodes ever use, with one pointer to each sidecar. Created lazily:
   a missing entry means the node has never been touched, in which case
   its pointers are derivable from the variable's initial owner. Whether
   the node holds a copy is recorded in the variable's [copies] bitmap,
   not here. *)
type tstate = {
  mutable toward : int;  (* neighbour toward the copy component; -1 = copy *)
  mutable place : int;  (* mesh node simulating this tree node, remaps included *)
  mutable comp_edges : int list;  (* neighbours believed to be in the component *)
  mutable txn : txn;
  mutable rare : rare;
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
  mutable pending : op Queue.t;  (* [no_ops] until an operation first waits *)
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
  mutable nstates : int;  (* materialised states, over all variables *)
  groups : (int, int list) Hashtbl.t;  (* [on_rrep]'s grouping: next hop -> origins *)
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
    nstates = 0;
    groups = Hashtbl.create 4;
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

(* The wait queue of every variable no operation ever waited on; never
   written. *)
let no_ops : op Queue.t = Queue.create ()

let idle_txn =
  { read_pending = false; parked = []; readers = []; inv_waiting = 0; inv_pred = -1 }

let forwarding = { idle_txn with read_pending = true }
let shared x = x == idle_txn || x == forwarding

let new_rare tok_toward =
  { tok_toward; lqueue = Queue.create (); lasked = false; locked = false;
    last_use = 0; use_count = 0; traffic = 0 }

let no_rare = new_rare (-1)

(* The filler of empty [Int_table] slots. *)
let no_state =
  { toward = -1; place = -1; comp_edges = []; txn = idle_txn; rare = no_rare }

let get_ctl t (var : Types.var) =
  match var.Types.slot with
  | Tree c -> c
  | _ ->
      let c =
        { var; ncopies = 1; reading = 0; writing = false;
          pending = no_ops; wtxn = None;
          states = Int_table.create ~dummy:no_state 4;
          copies = Bytes.make ((t.deco.Deco.num_tree_nodes + 7) / 8) '\000';
          gone = false }
      in
      set_copy c (leaf t var.Types.owner) true;
      var.Types.slot <- Tree c;
      c

(* Where an untouched node's pointers lead: toward the owner's leaf, where
   the variable's first copy and its lock token start out. *)
let initial_toward t (ctl : ctl) tnode =
  let owner_leaf = leaf t ctl.var.Types.owner in
  if tnode = owner_leaf then -1
  else Deco.next_hop t.deco ~from:tnode ~target:owner_leaf

(* The placement is computed once, when the state is materialised: the
   embedding rule walks from the tree root, one level per ancestor. *)
let get_state t (ctl : ctl) tnode =
  match Int_table.find ctl.states tnode with
  | s -> s
  | exception Not_found ->
      let toward = initial_toward t ctl tnode in
      let place =
        Embedding.place_lazy t.embedding t.deco ~seed:ctl.var.Types.seed tnode
      in
      let rare =
        match (t.capacity, t.remap_threshold) with
        | None, None -> no_rare
        | _ -> new_rare toward
      in
      let s = { toward; place; comp_edges = []; txn = idle_txn; rare } in
      Int_table.add ctl.states tnode s;
      t.nstates <- t.nstates + 1;
      s

(* The node's own transaction sidecar, allocated when a read or an
   invalidation first needs more than a shared one. *)
let txn_of st =
  if shared st.txn then st.txn <- { st.txn with parked = [] };
  st.txn

let set_read_pending st on =
  if shared st.txn then st.txn <- (if on then forwarding else idle_txn)
  else st.txn.read_pending <- on

(* Hand a drained transaction sidecar back to a shared one. Called before
   any continuation runs: a resumed fiber may start a new transaction at
   the same node. *)
let release_txn st =
  let x = st.txn in
  if (not (shared x)) && x.parked = [] && x.readers = [] && x.inv_waiting = 0 then
    st.txn <- (if x.read_pending then forwarding else idle_txn)

(* The node's rare sidecar, allocated on its first lock operation. The
   token starts at the owner's leaf, so its pointer follows the same rule
   as the initial [toward]. *)
let rare_of t ctl tnode =
  let st = get_state t ctl tnode in
  if st.rare == no_rare then st.rare <- new_rare (initial_toward t ctl tnode);
  st.rare

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
      st.rare.last_use <- t.lru_tick;
      st.rare.use_count <- st.rare.use_count + 1

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
  && (not st.txn.read_pending)
  && st.txn.parked = []
  && st.txn.inv_waiting = 0
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
  | Strategy.Lru -> (st.rare.last_use, 0)
  | Strategy.Freq -> (st.rare.use_count, st.rare.last_use)

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
  let x = st.txn in
  match x.readers with
  | [] -> ()
  | ks ->
      x.readers <- [];
      release_txn st;
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
  let x = txn_of st in
  x.readers <- k :: x.readers;
  if has_copy ctl origin then begin
    touch t st;
    complete_reads ctl st;
    process_queue t ctl
  end
  else if x.read_pending then
    (* A previous read from this leaf is in flight; its reply will arrive
       here and complete every registered reader. *)
    ()
  else begin
    x.read_pending <- true;
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
    let x = txn_of st in
    x.inv_waiting <- List.length nbrs;
    x.inv_pred <- -1;
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
  else if st.txn.read_pending && t.combining then begin
    let x = txn_of st in
    x.parked <- origin :: x.parked
  end
  else begin
    if t.combining then set_read_pending st true;
    send_ctl t ctl ~from:tnode ~tnode:st.toward (Rreq { origin })
  end

let on_rrep t ctl ~from ~tnode ~origins =
  let st = get_state t ctl tnode in
  add_copy t ctl tnode st;
  touch t st;
  add_edge st from;
  set_read_pending st false;
  let x = st.txn in
  let parked = x.parked in
  if parked <> [] then x.parked <- [];
  release_txn st;
  (* Multicast along tree branches: one message per distinct direction.
     The groups go out in the table's bucket order, newest first within a
     bucket; [reset] gives every reply the bucket count of a fresh table,
     so that order is the same as a table created per reply. *)
  let groups = t.groups in
  let group o =
    if o <> tnode then begin
      let nxt = Deco.next_hop t.deco ~from:tnode ~target:o in
      match Hashtbl.find groups nxt with
      | os -> Hashtbl.replace groups nxt (o :: os)
      | exception Not_found -> Hashtbl.add groups nxt [ o ]
    end
  in
  List.iter group origins;
  List.iter group parked;
  Hashtbl.iter
    (fun nxt os ->
      add_edge st nxt;
      send_data t ctl ~from:tnode ~tnode:nxt (Rrep { origins = os }))
    groups;
  Hashtbl.reset groups;
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
      let x = txn_of st in
      x.inv_waiting <- List.length out;
      x.inv_pred <- from;
      List.iter (fun nb -> send_ctl t ctl ~from:tnode ~tnode:nb Winv) out
    end
  end

let on_wack t ctl ~tnode =
  let st = get_state t ctl tnode in
  let x = st.txn in
  assert (x.inv_waiting > 0);
  x.inv_waiting <- x.inv_waiting - 1;
  if x.inv_waiting = 0 then begin
    release_txn st;
    if x.inv_pred = -1 then finish_invalidation t ctl
    else send_ctl t ctl ~from:tnode ~tnode:x.inv_pred Wack
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

let rec assign_privilege t ctl tnode r =
  if r.tok_toward = -1 && (not r.locked) && not (Queue.is_empty r.lqueue) then begin
    r.lasked <- false;
    match Queue.pop r.lqueue with
    | Local k ->
        r.locked <- true;
        k ()
    | Remote next ->
        r.tok_toward <- next;
        send_ctl t ctl ~from:tnode ~tnode:next Ltok;
        make_request t ctl tnode r
  end

and make_request t ctl tnode r =
  if r.tok_toward <> -1 && (not (Queue.is_empty r.lqueue)) && not r.lasked then begin
    r.lasked <- true;
    send_ctl t ctl ~from:tnode ~tnode:r.tok_toward Lreq
  end

let on_lreq t ctl ~from ~tnode =
  let r = rare_of t ctl tnode in
  Queue.add (Remote from) r.lqueue;
  assign_privilege t ctl tnode r;
  make_request t ctl tnode r

let on_ltok t ctl ~tnode =
  let r = rare_of t ctl tnode in
  r.tok_toward <- -1;
  assign_privilege t ctl tnode r;
  make_request t ctl tnode r

let lock t p var ~k =
  let ctl = get_ctl t var in
  let tnode = leaf t p in
  let r = rare_of t ctl tnode in
  Queue.add (Local k) r.lqueue;
  assign_privilege t ctl tnode r;
  make_request t ctl tnode r

let unlock t p var =
  let ctl = get_ctl t var in
  let tnode = leaf t p in
  let r = rare_of t ctl tnode in
  if not r.locked then
    invalid_arg "Access_tree.unlock: processor does not hold the lock";
  r.locked <- false;
  assign_privilege t ctl tnode r;
  make_request t ctl tnode r

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

let enqueue ctl op =
  if ctl.pending == no_ops then ctl.pending <- Queue.create ();
  Queue.add op ctl.pending

let read t p var ~k =
  let ctl = get_ctl t var in
  if ctl.writing || not (Queue.is_empty ctl.pending) then
    enqueue ctl (Oread { o_p = p; o_txn = Network.cur_txn t.net; o_k = k })
  else start_read t ctl p k

let write t p var value ~k =
  let ctl = get_ctl t var in
  if ctl.writing || ctl.reading > 0 || not (Queue.is_empty ctl.pending) then
    enqueue ctl
      (Owrite { o_p = p; o_txn = Network.cur_txn t.net; o_v = value; o_k = k })
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
      let r = st.rare in
      r.traffic <- r.traffic + 1;
      if r.traffic >= threshold && not (Deco.is_leaf t.deco tnode) then begin
        r.traffic <- 0;
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
let states t = t.nstates

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
      t.nstates <- t.nstates - Int_table.length ctl.states;
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
            let toward cur =
              match Int_table.find ctl.states cur with
              | st -> st.toward
              | exception Not_found -> initial_toward t ctl cur
            in
            let rec chase cur steps =
              if steps > nt || cur < 0 then false
              else has_copy ctl cur || chase (toward cur) (steps + 1)
            in
            let lost = ref None and leaked = ref None in
            Int_table.iter
              (fun tnode st ->
                if not (chase tnode 0) then lost := Some tnode;
                if st.txn != idle_txn then leaked := Some tnode)
              ctl.states;
            match (!lost, !leaked) with
            | Some tn, _ -> err "%s: pointer chain from node %d is lost" var.Types.name tn
            | None, Some tn ->
                err "%s: node %d keeps transaction state at quiescence" var.Types.name tn
            | None, None -> Ok ()
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
