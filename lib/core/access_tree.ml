module Mesh = Diva_mesh.Mesh
module Deco = Diva_mesh.Decomposition
module Embedding = Diva_mesh.Embedding
module Network = Diva_simnet.Network
module Trace = Diva_obs.Trace

(* What a protocol message asks of the tree node it reaches. The kind
   rides in the message's header word with the sender, the destination
   and, for requests and write data, the origin (see [send_tree]). *)
type kind =
  | Rreq  (* read request of the origin's leaf *)
  | Rrep  (* read reply: the one kind with a payload of its own *)
  | Wreq  (* write request of the origin's leaf *)
  | Winv
  | Wack
  | Wdata  (* the written value on its way to the origin's leaf *)
  | Lreq
  | Ltok
  | Rmove  (* state transfer of a remapped tree node; no handler action *)

let kinds = [| Rreq; Rrep; Wreq; Winv; Wack; Wdata; Lreq; Ltok; Rmove |]

let kind_code = function
  | Rreq -> 0 | Rrep -> 1 | Wreq -> 2 | Winv -> 3 | Wack -> 4 | Wdata -> 5
  | Lreq -> 6 | Ltok -> 7 | Rmove -> 8

(* A queued lock request at a tree node (Raymond's [lqueue]): a
   neighbour (its neighbour code) asking for the token on behalf of its
   side of the tree, or an acquirer waiting at this leaf. *)
type lwait = Remote of int | Local of (unit -> unit)

(* Transaction entry of a tree node: what a read in flight keeps there
   beyond the node's [pending] flag. It exists only while one of its
   fields is non-empty. An invalidation keeps none: its wave lives in the
   node's edge list and tracking pointer (see [on_winv]). *)
type txn = {
  mutable parked : int list;  (* origins combined onto the in-flight reply *)
  mutable readers : (Value.t -> unit) list;  (* reads issued at this leaf, newest first *)
}

(* Lock entry of a tree node: Raymond's request queue and flags. The
   token pointer itself is packed with the node's state. It exists only
   while the queue is non-empty or a flag is set. *)
type lock = {
  lqueue : lwait Queue.t;  (* FIFO of token requests *)
  mutable lasked : bool;
  mutable locked : bool;
}

(* Side tables of the entries in use, over all variables, keyed like the
   [held] registries. *)
module Side = Hashtbl.Make (struct
  type t = int
  let equal = Int.equal
  let hash x = x land max_int
end)

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

(* Per-variable control block, reached from the variable's slot, which
   every protocol message carries: transaction control (writes are
   serialized against each other and against in-flight reads; cache hits
   bypass this entirely) plus all of the variable's tree-node state. *)
type ctl = {
  var : Types.var;
  mutable ncopies : int;
  mutable reading : int;  (* read transactions in flight *)
  mutable writing : bool;
  mutable pending : op Queue.t;  (* [no_ops] until an operation first waits *)
  mutable wtxn : wtxn option;
  nodes : Node_table.t;  (* the materialised tree nodes' packed state *)
  copies : Bytes.t;  (* one bit per tree node: does it hold a copy? *)
  mutable gone : bool;  (* retired: the state is dropped *)
}

type Types.slot += Tree of ctl

(* A read reply's payload: the leaves it serves are data. *)
type Network.payload += Reply of { ctl : ctl; origins : int list }

type t = {
  net : Network.t;
  deco : Deco.t;
  layout : Node_table.layout;
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
  txns : txn Side.t;
  locks : lock Side.t;
  groups : (int, int list) Hashtbl.t;  (* [on_rrep]'s grouping: next hop -> origins *)
}

(* Extra words of a slot: the eviction counters when [capacity] is set,
   then the remapping counter when [remap_threshold] is. *)
let last_use = 0
let use_count = 1
let traffic t = match t.capacity with None -> 0 | Some _ -> 2

let create net (c : Strategy.tree_config) =
  let deco =
    Deco.build (Network.mesh net) ~arity:(Deco.arity_of_int c.arity)
      ~leaf_size:c.leaf_size
  in
  Node_table.check_fits ~tree_nodes:deco.Deco.num_tree_nodes
    ~mesh_nodes:(Network.num_nodes net);
  let max_children =
    Array.fold_left (fun m kids -> max m (Array.length kids)) 0 deco.Deco.children
  in
  Node_table.check_header ~tree_nodes:deco.Deco.num_tree_nodes ~max_children;
  let extra =
    (match c.capacity with None -> 0 | Some _ -> 2)
    + match c.remap_threshold with None -> 0 | Some _ -> 1
  in
  {
    net;
    deco;
    layout =
      Node_table.layout ~tree_nodes:deco.Deco.num_tree_nodes ~max_children ~extra;
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
    txns = Side.create 16;
    locks = Side.create 16;
    groups = Hashtbl.create 4;
  }

(* Keys of the per-processor [held] registries and of the side tables.
   The registries' hash order breaks eviction ties, so it is part of the
   capacity goldens. *)
let key t (ctl : ctl) tnode = (ctl.var.Types.id * t.deco.Deco.num_tree_nodes) + tnode
let leaf t p = t.deco.Deco.leaf_of_proc.(p)

let has_copy ctl tnode =
  Char.code (Bytes.get ctl.copies (tnode lsr 3)) land (1 lsl (tnode land 7)) <> 0

let set_copy ctl tnode on =
  let i = tnode lsr 3 and bit = 1 lsl (tnode land 7) in
  let b = Char.code (Bytes.get ctl.copies i) in
  Bytes.set ctl.copies i (Char.unsafe_chr (if on then b lor bit else b land lnot bit))

(* Neighbour codes: the packed state stores every pointer as 0 for the
   node's parent, k for its k-th child, -1 for none. *)
let code_of t tnode nb =
  if nb < 0 then -1
  else if nb < tnode then 0 (* preorder: only the parent precedes a node *)
  else begin
    let kids = t.deco.Deco.children.(tnode) in
    let k = ref 0 in
    while kids.(!k) <> nb do incr k done;
    !k + 1
  end

let node_of t tnode code =
  if code < 0 then -1
  else if code = 0 then t.deco.Deco.parent.(tnode)
  else t.deco.Deco.children.(tnode).(code - 1)

(* The wait queue of every variable no operation ever waited on; never
   written. *)
let no_ops : op Queue.t = Queue.create ()

let get_ctl t (var : Types.var) =
  match var.Types.slot with
  | Tree c -> c
  | _ ->
      let c =
        { var; ncopies = 1; reading = 0; writing = false;
          pending = no_ops; wtxn = None;
          nodes = Node_table.create t.layout;
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

(* A node's slot in its variable's table, materialised on first touch.
   The placement is computed then: the embedding rule walks from the tree
   root, one level per ancestor. *)
let get_state t (ctl : ctl) tnode =
  let s = Node_table.find ctl.nodes tnode in
  if s >= 0 then s
  else begin
    let toward = code_of t tnode (initial_toward t ctl tnode) in
    let place =
      Embedding.place_lazy t.embedding t.deco ~seed:ctl.var.Types.seed tnode
    in
    t.nstates <- t.nstates + 1;
    Node_table.add ctl.nodes tnode ~toward ~token:toward ~place
  end

let toward t ctl tnode s = node_of t tnode (Node_table.toward ctl.nodes s)
let add_edge t ctl tnode s nb = Node_table.add_edge ctl.nodes s (code_of t tnode nb)
let place_of ctl s = Node_table.place ctl.nodes s

(* The node's transaction entry; [no_txn], never written, if it has none. *)
let no_txn = { parked = []; readers = [] }

let find_txn t ctl tnode s =
  if Node_table.has_txn ctl.nodes s then Side.find t.txns (key t ctl tnode) else no_txn

let txn_of t ctl tnode s =
  let x = find_txn t ctl tnode s in
  if x != no_txn then x
  else begin
    let x = { parked = []; readers = [] } in
    Side.add t.txns (key t ctl tnode) x;
    Node_table.set_has_txn ctl.nodes s true;
    x
  end

(* Drop a drained transaction entry. Called before any continuation runs:
   a resumed fiber may start a new transaction at the same node. *)
let release_txn t ctl tnode s x =
  if x != no_txn && x.parked = [] && x.readers = [] then begin
    Side.remove t.txns (key t ctl tnode);
    Node_table.set_has_txn ctl.nodes s false
  end

let place t (var : Types.var) tnode =
  let lazily () = Embedding.place_lazy t.embedding t.deco ~seed:var.Types.seed tnode in
  match var.Types.slot with
  | Tree ctl ->
      let s = Node_table.find ctl.nodes tnode in
      if s >= 0 then place_of ctl s else lazily ()
  | _ -> lazily ()

(* LRU/LFU bookkeeping. Only the eviction score reads it, so it is
   skipped when memory is unbounded. *)
let touch t ctl s =
  match t.capacity with
  | None -> ()
  | Some _ ->
      t.lru_tick <- t.lru_tick + 1;
      Node_table.set_extra ctl.nodes s last_use t.lru_tick;
      Node_table.set_extra ctl.nodes s use_count
        (Node_table.extra ctl.nodes s use_count + 1)

let trace_copy_add t (ctl : ctl) tnode s =
  let tr = Network.trace t.net in
  if Trace.enabled tr then
    Trace.emit tr
      (Trace.Copy_add
         { ts = Network.now t.net; node = place_of ctl s;
           var = ctl.var.Types.id; var_name = ctl.var.Types.name; tnode;
           level = t.deco.Deco.depth.(tnode) })

let trace_copy_drop t (ctl : ctl) tnode s reason =
  let tr = Network.trace t.net in
  if Trace.enabled tr then
    Trace.emit tr
      (Trace.Copy_drop
         { ts = Network.now t.net; node = place_of ctl s;
           var = ctl.var.Types.id; var_name = ctl.var.Types.name; tnode;
           level = t.deco.Deco.depth.(tnode); reason })

(* [s] is the sender's slot. Materialising the destination's state here
   rather than on arrival changes nothing: an untouched node's state is a
   function of the owner and the node alone. The header (kind, the sender
   [from] as a neighbour code of [tnode], [tnode], and [origin], 0 for the
   kinds without one) is the message's tag, and the payload is the
   variable's own slot, so a message costs the network's record alone. *)
let send_tree t (ctl : ctl) ~from ~s ~tnode ~size kind ~origin payload =
  let src = place_of ctl s and dst = place_of ctl (get_state t ctl tnode) in
  let tag =
    Node_table.header t.layout ~kind:(kind_code kind) ~from:(code_of t tnode from)
      ~tnode ~origin
  in
  Network.tag_level t.net t.deco.Deco.depth.(tnode);
  Network.send t.net ~tag ~src ~dst ~size payload

let send_ctl t ctl ~from ~s ~tnode kind ~origin =
  send_tree t ctl ~from ~s ~tnode ~size:Types.control_size kind ~origin
    ctl.var.Types.slot

let send_data t ctl ~from ~s ~tnode kind ~origin =
  send_tree t ctl ~from ~s ~tnode ~size:(Types.data_size ctl.var) kind ~origin
    ctl.var.Types.slot

let send_reply t ctl ~from ~s ~tnode origins =
  send_tree t ctl ~from ~s ~tnode ~size:(Types.data_size ctl.var) Rrep ~origin:0
    (Reply { ctl; origins })

(* Send [Winv] along the node's component edges, newest first. The edges
   stay listed: each is removed by its neighbour's [Wack], so the edges
   left are the acks still owed. The sends materialise other nodes, which
   moves the table's columns but not the slot, so each edge is read
   afresh. *)
let invalidate_edges t ctl tnode s n =
  for i = 0 to n - 1 do
    send_ctl t ctl ~from:tnode ~s ~tnode:(node_of t tnode (Node_table.edge ctl.nodes s i))
      Winv ~origin:0
  done

(* ------------------------------------------------------------------ *)
(* Copy bookkeeping and LRU replacement                                 *)
(* ------------------------------------------------------------------ *)

(* A copy is evictable if removing it keeps the component connected (it is
   a component leaf), it is not the last copy, and no transaction is
   touching it. No write is in flight, so no invalidation wave is using
   the edge list. Eviction is silent: the remaining neighbour keeps a
   stale component edge, which the invalidation handler tolerates. *)
let evictable t (ctl : ctl) tnode s =
  has_copy ctl tnode && ctl.ncopies > 1
  && (not ctl.writing)
  && (not (Node_table.pending ctl.nodes s))
  && (find_txn t ctl tnode s).parked = []
  && Node_table.edge_count ctl.nodes s <= 1

let unaccount_copy t (ctl : ctl) tnode s =
  match t.capacity with
  | None -> ()
  | Some _ ->
      let proc = place_of ctl s in
      t.mem_used.(proc) <- t.mem_used.(proc) - ctl.var.Types.data_size;
      Hashtbl.remove t.held.(proc) (key t ctl tnode)

(* Scan only the copies held at [proc] (the per-processor registry). The
   victim minimizes the policy's score: the LRU tick, or the lifetime
   touch count (ties broken by the LRU tick, so frequency eviction stays
   deterministic). The first minimum in the registry's order wins. *)
let evict t proc =
  let nt = t.deco.Deco.num_tree_nodes in
  let best = ref None and best1 = ref 0 and best2 = ref 0 in
  Hashtbl.iter
    (fun k ctl ->
      let tnode = k mod nt in
      let s = Node_table.find ctl.nodes tnode in
      if s >= 0 && evictable t ctl tnode s then begin
        let lu = Node_table.extra ctl.nodes s last_use in
        let s1, s2 =
          match t.eviction with
          | Strategy.Lru -> (lu, 0)
          | Strategy.Freq -> (Node_table.extra ctl.nodes s use_count, lu)
        in
        match !best with
        | Some _ when !best1 < s1 || (!best1 = s1 && !best2 <= s2) -> ()
        | _ ->
            best := Some (tnode, ctl, s);
            best1 := s1;
            best2 := s2
      end)
    t.held.(proc);
  match !best with
  | None -> false
  | Some (tnode, ctl, s) ->
      trace_copy_drop t ctl tnode s Trace.Evicted;
      set_copy ctl tnode false;
      let e = Node_table.edge ctl.nodes s 0 in
      assert (e >= 0);
      Node_table.set_toward ctl.nodes s e;
      Node_table.clear_edges ctl.nodes s;
      ctl.ncopies <- ctl.ncopies - 1;
      unaccount_copy t ctl tnode s;
      t.eviction_count <- t.eviction_count + 1;
      true

let account_copy t (ctl : ctl) tnode s =
  match t.capacity with
  | None -> ()
  | Some cap ->
      let proc = place_of ctl s in
      t.mem_used.(proc) <- t.mem_used.(proc) + ctl.var.Types.data_size;
      Hashtbl.replace t.held.(proc) (key t ctl tnode) ctl;
      let continue = ref true in
      while t.mem_used.(proc) > cap && !continue do
        continue := evict t proc
      done

let add_copy t ctl tnode s =
  if not (has_copy ctl tnode) then begin
    set_copy ctl tnode true;
    Node_table.set_toward ctl.nodes s (-1);
    ctl.ncopies <- ctl.ncopies + 1;
    touch t ctl s;
    trace_copy_add t ctl tnode s;
    account_copy t ctl tnode s
  end

let remove_copy t ctl tnode s =
  if has_copy ctl tnode then begin
    set_copy ctl tnode false;
    ctl.ncopies <- ctl.ncopies - 1;
    trace_copy_drop t ctl tnode s Trace.Invalidated;
    unaccount_copy t ctl tnode s
  end

(* ------------------------------------------------------------------ *)
(* Transaction gating                                                   *)
(* ------------------------------------------------------------------ *)

(* [x] is the node's transaction entry, or [no_txn]. *)
let complete_reads t ctl tnode s x =
  match x.readers with
  | [] -> ()
  | ks ->
      x.readers <- [];
      release_txn t ctl tnode s x;
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
  let s = get_state t ctl origin in
  let x = txn_of t ctl origin s in
  x.readers <- k :: x.readers;
  if has_copy ctl origin then begin
    touch t ctl s;
    complete_reads t ctl origin s x;
    process_queue t ctl
  end
  else if Node_table.pending ctl.nodes s then
    (* A previous read from this leaf is in flight; its reply will arrive
       here and complete every registered reader. *)
    ()
  else begin
    Node_table.set_pending ctl.nodes s true;
    send_ctl t ctl ~from:origin ~s ~tnode:(toward t ctl origin s) Rreq ~origin
  end

and start_write t ctl p value k =
  ctl.writing <- true;
  let origin = leaf t p in
  ctl.wtxn <- Some { w_origin = origin; w_value = value; w_done = k; w_u = origin };
  let s = get_state t ctl origin in
  if has_copy ctl origin then begin
    touch t ctl s;
    begin_invalidation t ctl origin
  end
  else send_data t ctl ~from:origin ~s ~tnode:(toward t ctl origin s) Wreq ~origin

and begin_invalidation t ctl u =
  (match ctl.wtxn with Some w -> w.w_u <- u | None -> assert false);
  let s = get_state t ctl u in
  let n = Node_table.edge_count ctl.nodes s in
  if n = 0 then finish_invalidation t ctl else invalidate_edges t ctl u s n

and finish_invalidation t ctl =
  let w = match ctl.wtxn with Some w -> w | None -> assert false in
  ctl.var.Types.value <- w.w_value;
  if ctl.ncopies <> 1 then
    failwith
      (Printf.sprintf "access tree: %d copies of %s survive invalidation"
         ctl.ncopies ctl.var.Types.name);
  if w.w_u = w.w_origin then complete_write t ctl
  else begin
    let s = get_state t ctl w.w_u in
    let nxt = Deco.next_hop t.deco ~from:w.w_u ~target:w.w_origin in
    add_edge t ctl w.w_u s nxt;
    send_data t ctl ~from:w.w_u ~s ~tnode:nxt Wdata ~origin:w.w_origin
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
  let s = get_state t ctl tnode in
  if has_copy ctl tnode then begin
    touch t ctl s;
    let nxt = Deco.next_hop t.deco ~from:tnode ~target:origin in
    add_edge t ctl tnode s nxt;
    send_reply t ctl ~from:tnode ~s ~tnode:nxt [ origin ]
  end
  else if Node_table.pending ctl.nodes s && t.combining then begin
    let x = txn_of t ctl tnode s in
    x.parked <- origin :: x.parked
  end
  else begin
    if t.combining then Node_table.set_pending ctl.nodes s true;
    send_ctl t ctl ~from:tnode ~s ~tnode:(toward t ctl tnode s) Rreq ~origin
  end

(* In the handlers, [from] is the sender's neighbour code at [tnode]. *)
let on_rrep t ctl ~from ~tnode ~origins =
  let s = get_state t ctl tnode in
  add_copy t ctl tnode s;
  touch t ctl s;
  Node_table.add_edge ctl.nodes s from;
  Node_table.set_pending ctl.nodes s false;
  let x = find_txn t ctl tnode s in
  let parked = x.parked in
  if parked <> [] then x.parked <- [];
  release_txn t ctl tnode s x;
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
      add_edge t ctl tnode s nxt;
      send_reply t ctl ~from:tnode ~s ~tnode:nxt os)
    groups;
  Hashtbl.reset groups;
  (* Completions last: they may resume fibers that issue new operations. *)
  complete_reads t ctl tnode s x;
  process_queue t ctl

let on_wreq t ctl ~tnode ~origin =
  let s = get_state t ctl tnode in
  if has_copy ctl tnode then begin
    touch t ctl s;
    begin_invalidation t ctl tnode
  end
  else send_data t ctl ~from:tnode ~s ~tnode:(toward t ctl tnode s) Wreq ~origin

(* An invalidation wave keeps its state in the component itself. A node
   the wave reaches drops its copy, points [toward] its predecessor (the
   sender) and forwards [Winv] along its other edges, which stay listed
   until each neighbour's [Wack] removes its own: the edge count is the
   number of acks still owed. When it reaches 0 the node acks its
   predecessor; the coordinating node keeps its copy, so its [toward] is
   -1, and it finishes the write instead. Only the write's own wave sees
   a node with edges listed while [ctl.writing] is set: reads, and hence
   replies that add edges, wait for the write, and [evictable] refuses
   while it is in flight. *)
let on_winv t ctl ~from ~tnode =
  let s = get_state t ctl tnode in
  if not (has_copy ctl tnode) then begin
    (* Stale component edge left behind by a silent LRU eviction: ack at
       once; the sender removes the edge like any other. A node the wave
       already reached has no copy either, but the wave reaches no node
       twice, so this one owes no acks. *)
    assert (Node_table.edge_count ctl.nodes s = 0);
    Node_table.set_toward ctl.nodes s from;
    send_ctl t ctl ~from:tnode ~s ~tnode:(node_of t tnode from) Wack ~origin:0
  end
  else begin
    remove_copy t ctl tnode s;
    Node_table.set_toward ctl.nodes s from;
    Node_table.remove_edge ctl.nodes s from;
    let n = Node_table.edge_count ctl.nodes s in
    if n = 0 then send_ctl t ctl ~from:tnode ~s ~tnode:(node_of t tnode from) Wack ~origin:0
    else invalidate_edges t ctl tnode s n
  end

let on_wack t ctl ~from ~tnode =
  let s = get_state t ctl tnode in
  let owed = Node_table.edge_count ctl.nodes s in
  Node_table.remove_edge ctl.nodes s from;
  let owed' = Node_table.edge_count ctl.nodes s in
  assert (owed' = owed - 1);
  if owed' = 0 then begin
    let pred = Node_table.toward ctl.nodes s in
    if pred = -1 then finish_invalidation t ctl
    else send_ctl t ctl ~from:tnode ~s ~tnode:(node_of t tnode pred) Wack ~origin:0
  end

let on_wdata t ctl ~from ~tnode ~origin =
  let s = get_state t ctl tnode in
  add_copy t ctl tnode s;
  touch t ctl s;
  Node_table.keep_edge ctl.nodes s from;
  if tnode = origin then complete_write t ctl
  else begin
    let nxt = Deco.next_hop t.deco ~from:tnode ~target:origin in
    add_edge t ctl tnode s nxt;
    send_data t ctl ~from:tnode ~s ~tnode:nxt Wdata ~origin
  end

(* ------------------------------------------------------------------ *)
(* Raymond's mutual exclusion on the access tree                        *)
(* ------------------------------------------------------------------ *)

(* The node's lock entry; [no_lock], never written, if it has none. Each
   step looks it up afresh: a continuation run by [assign_privilege] may
   lock or unlock the same node. *)
let no_lock = { lqueue = Queue.create (); lasked = false; locked = false }

let find_lock t ctl tnode s =
  if Node_table.has_lock ctl.nodes s then Side.find t.locks (key t ctl tnode)
  else no_lock

let lock_of t ctl tnode s =
  let r = find_lock t ctl tnode s in
  if r != no_lock then r
  else begin
    let r = { lqueue = Queue.create (); lasked = false; locked = false } in
    Side.add t.locks (key t ctl tnode) r;
    Node_table.set_has_lock ctl.nodes s true;
    r
  end

(* Drop the node's lock entry once it is idle. *)
let release_lock t ctl tnode s =
  let r = find_lock t ctl tnode s in
  if r != no_lock && Queue.is_empty r.lqueue && (not r.lasked) && not r.locked
  then begin
    Side.remove t.locks (key t ctl tnode);
    Node_table.set_has_lock ctl.nodes s false
  end

let rec assign_privilege t ctl tnode s =
  let r = find_lock t ctl tnode s in
  if Node_table.token ctl.nodes s = -1 && (not r.locked)
     && not (Queue.is_empty r.lqueue)
  then begin
    r.lasked <- false;
    match Queue.pop r.lqueue with
    | Local k ->
        r.locked <- true;
        k ()
    | Remote next ->
        Node_table.set_token ctl.nodes s next;
        send_ctl t ctl ~from:tnode ~s ~tnode:(node_of t tnode next) Ltok ~origin:0;
        make_request t ctl tnode s
  end

and make_request t ctl tnode s =
  let r = find_lock t ctl tnode s in
  let tok = Node_table.token ctl.nodes s in
  if tok <> -1 && (not (Queue.is_empty r.lqueue)) && not r.lasked then begin
    r.lasked <- true;
    send_ctl t ctl ~from:tnode ~s ~tnode:(node_of t tnode tok) Lreq ~origin:0
  end

let settle_lock t ctl tnode s =
  assign_privilege t ctl tnode s;
  make_request t ctl tnode s;
  release_lock t ctl tnode s

let on_lreq t ctl ~from ~tnode =
  let s = get_state t ctl tnode in
  Queue.add (Remote from) (lock_of t ctl tnode s).lqueue;
  settle_lock t ctl tnode s

let on_ltok t ctl ~tnode =
  let s = get_state t ctl tnode in
  Node_table.set_token ctl.nodes s (-1);
  settle_lock t ctl tnode s

let lock t p var ~k =
  let ctl = get_ctl t var in
  let tnode = leaf t p in
  let s = get_state t ctl tnode in
  Queue.add (Local k) (lock_of t ctl tnode s).lqueue;
  settle_lock t ctl tnode s

let unlock t p var =
  let ctl = get_ctl t var in
  let tnode = leaf t p in
  let s = get_state t ctl tnode in
  let r = find_lock t ctl tnode s in
  if not r.locked then
    invalid_arg "Access_tree.unlock: processor does not hold the lock";
  r.locked <- false;
  settle_lock t ctl tnode s

(* ------------------------------------------------------------------ *)
(* Public operations                                                    *)
(* ------------------------------------------------------------------ *)

let cached t p var =
  let ctl = get_ctl t var in
  let tnode = leaf t p in
  if has_copy ctl tnode then begin
    (match t.capacity with None -> () | Some _ -> touch t ctl (get_state t ctl tnode));
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
      let s = get_state t ctl tnode in
      let traffic = traffic t in
      let n = Node_table.extra ctl.nodes s traffic + 1 in
      Node_table.set_extra ctl.nodes s traffic n;
      if n >= threshold && not (Deco.is_leaf t.deco tnode) then begin
        Node_table.set_extra ctl.nodes s traffic 0;
        let sm = t.deco.Deco.submesh.(tnode) in
        let mesh = t.deco.Deco.mesh in
        let coords =
          Array.mapi
            (fun k o -> o + Diva_util.Prng.int t.remap_rng sm.Deco.sizes.(k))
            sm.Deco.origin
        in
        let fresh = Mesh.node_at_nd mesh coords in
        let old = place_of ctl s in
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
          Node_table.set_place ctl.nodes s fresh;
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
          Network.send t.net
            ~tag:
              (Node_table.header t.layout ~kind:(kind_code Rmove) ~from:0 ~tnode
                 ~origin:0)
            ~src:old ~dst:fresh ~size ctl.var.Types.slot
        end
      end

(* Decode the header [h] straight into the handler; [origins] is a
   reply's list, [[]] for the other kinds. *)
let receive t ctl h origins =
  if ctl.gone then failwith "Access_tree.handle: message for a retired variable";
  let l = t.layout in
  let from = Node_table.header_from l h and tnode = Node_table.header_tnode l h in
  let kind = kinds.(Node_table.header_kind h) in
  (match kind with
  | Rreq -> on_rreq t ctl ~tnode ~origin:(Node_table.header_origin l h)
  | Rrep -> on_rrep t ctl ~from ~tnode ~origins
  | Wreq -> on_wreq t ctl ~tnode ~origin:(Node_table.header_origin l h)
  | Winv -> on_winv t ctl ~from ~tnode
  | Wack -> on_wack t ctl ~from ~tnode
  | Wdata -> on_wdata t ctl ~from ~tnode ~origin:(Node_table.header_origin l h)
  | Lreq -> on_lreq t ctl ~from ~tnode
  | Ltok -> on_ltok t ctl ~tnode
  | Rmove -> ());
  match kind with Rmove -> () | _ -> maybe_remap t ctl tnode

let handle t (msg : Network.msg) =
  match msg.Network.m_payload with
  | Tree ctl ->
      receive t ctl msg.Network.m_tag [];
      true
  | Reply { ctl; origins } ->
      receive t ctl msg.Network.m_tag origins;
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
      Node_table.iter
        (fun tnode s ->
          if t.capacity <> None && has_copy ctl tnode then unaccount_copy t ctl tnode s;
          if Node_table.has_lock ctl.nodes s then Side.remove t.locks (key t ctl tnode))
        ctl.nodes;
      t.nstates <- t.nstates - Node_table.length ctl.nodes;
      Node_table.reset ctl.nodes;
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
               node never touched points toward the owner's leaf. The
               packed pointer says "copy" exactly where the bitmap does. *)
            let nt = t.deco.Deco.num_tree_nodes in
            let toward_of cur =
              let s = Node_table.find ctl.nodes cur in
              if s >= 0 then toward t ctl cur s else initial_toward t ctl cur
            in
            let rec chase cur steps =
              if steps > nt || cur < 0 then false
              else has_copy ctl cur || chase (toward_of cur) (steps + 1)
            in
            let lost = ref None and leaked = ref None and split = ref None in
            Node_table.iter
              (fun tnode s ->
                if not (chase tnode 0) then lost := Some tnode;
                if Node_table.has_txn ctl.nodes s || Node_table.pending ctl.nodes s
                   || ((not (has_copy ctl tnode)) && Node_table.edge_count ctl.nodes s > 0)
                then leaked := Some tnode;
                if has_copy ctl tnode <> (Node_table.toward ctl.nodes s = -1) then
                  split := Some tnode)
              ctl.nodes;
            match (!split, !lost, !leaked) with
            | Some tn, _, _ ->
                err "%s: node %d has its copy bit %s but its pointer %s"
                  var.Types.name tn
                  (if has_copy ctl tn then "set" else "clear")
                  (if has_copy ctl tn then "leads away" else "says copy")
            | None, Some tn, _ ->
                err "%s: pointer chain from node %d is lost" var.Types.name tn
            | None, None, Some tn ->
                err "%s: node %d keeps transaction state at quiescence" var.Types.name tn
            | None, None, None -> Ok ()
          end
        end
      end
  | _ -> Ok ()  (* never accessed: implicit singleton at the owner *)
