(* The analysis engine: fold a run's event stream into an
   {!Analysis.summary} in one pass, retiring each transaction's message
   records the moment its completion event passes. Peak residency is
   O(concurrent transactions x protocol fan-out), independent of run
   length; {!peak_msgs} exposes the high-water mark so harnesses can
   assert it. The same fold runs live (as a trace sink), over an
   in-memory list and over a saved trace file, so all three give the same
   summary bit for bit.

   Why eager retirement loses nothing:
   - The simulator emits eagerly: a transaction's chain messages have
     their sends, crossings and deliveries in the stream before the
     transaction's [Dsm_access], so the records retained at completion
     hold everything {!Analysis.decompose_chain} clips into the blocking
     window. Crossings emitted later (post-completion retransmissions)
     start at or after the window's end and clip to nothing.
   - Side branches are defined as snapshots at the completion event.
   - Per-operation and critical-path sums fold in completion order; link
     and window sums fold in emission order. *)

module Ids = Set.Make (Int)

(* Retained state of one in-flight message of a pending transaction;
   freed when the transaction completes. *)
type srec = {
  r_parent : int;
  r_txn : int;
  r_local : bool;
  r_sent : float;
  r_inject : float;
  mutable r_handled : float option;
  (* Link crossings as (start, finish) pairs in arrival order: the first
     [2 * r_nx] cells. Unboxed, so a crossing costs two words, not ten. *)
  mutable r_xfers : float array;
  mutable r_nx : int;
}

let op_order = [ Trace.Read; Write; Lock; Unlock; Barrier; Reduce ]

(* Accumulator for the per-operation table and the whole-run critical
   path, fed one completed transaction at a time in completion order. *)
module Txn_fold = struct
  type op_acc = {
    mutable oa_count : int;
    mutable oa_sum_dur : float;
    mutable oa_max_dur : float;
    mutable oa_cost : Analysis.cost;
    mutable oa_side_msgs : int;
    mutable oa_side_cost : Analysis.cost;
  }

  type node_acc = {
    mutable na_cost : Analysis.cost;
    mutable na_end : float;  (* previous transaction's end on this node *)
    mutable na_txns : int;
  }

  type t = {
    ops : (Trace.dsm_op, op_acc) Hashtbl.t;
    nodes : (int, node_acc) Hashtbl.t;
    mutable n_txns : int;
    mutable best : (int * float) option;  (* (node, end): first strict max *)
  }

  let create () =
    { ops = Hashtbl.create 8; nodes = Hashtbl.create 64; n_txns = 0;
      best = None }

  let feed t ~node ~op ~t_start ~dur ~chain_cost ~side_msgs ~side_cost =
    t.n_txns <- t.n_txns + 1;
    let oa =
      match Hashtbl.find_opt t.ops op with
      | Some oa -> oa
      | None ->
          let oa =
            { oa_count = 0; oa_sum_dur = 0.0; oa_max_dur = 0.0;
              oa_cost = Analysis.zero_cost; oa_side_msgs = 0;
              oa_side_cost = Analysis.zero_cost }
          in
          Hashtbl.add t.ops op oa;
          oa
    in
    oa.oa_count <- oa.oa_count + 1;
    oa.oa_sum_dur <- oa.oa_sum_dur +. dur;
    oa.oa_max_dur <- Float.max oa.oa_max_dur dur;
    oa.oa_cost <- Analysis.add_cost oa.oa_cost chain_cost;
    oa.oa_side_msgs <- oa.oa_side_msgs + side_msgs;
    oa.oa_side_cost <- Analysis.add_cost oa.oa_side_cost side_cost;
    let na =
      match Hashtbl.find_opt t.nodes node with
      | Some na -> na
      | None ->
          let na = { na_cost = Analysis.zero_cost; na_end = 0.0; na_txns = 0 } in
          Hashtbl.add t.nodes node na;
          na
    in
    (* The node's timeline: gaps between its transactions are application
       compute (cpu), then the blocking decomposition. Completion order
       per node equals start order (a node's fiber blocks on one
       transaction at a time), so no sort is needed. *)
    let gap = Float.max 0.0 (t_start -. na.na_end) in
    na.na_cost <-
      Analysis.add_cost
        { na.na_cost with cpu_us = na.na_cost.cpu_us +. gap }
        chain_cost;
    na.na_end <- t_start +. dur;
    na.na_txns <- na.na_txns + 1;
    let e = t_start +. dur in
    match t.best with
    | Some (_, best_end) when e <= best_end -> ()
    | _ -> t.best <- Some (node, e)

  let op_rows t =
    List.filter_map
      (fun op ->
        Option.map
          (fun oa ->
            {
              Analysis.or_op = op;
              or_count = oa.oa_count;
              or_mean_us = oa.oa_sum_dur /. float_of_int oa.oa_count;
              or_max_us = oa.oa_max_dur;
              or_cost = oa.oa_cost;
              or_side_msgs = oa.oa_side_msgs;
              or_side_cost = oa.oa_side_cost;
            })
          (Hashtbl.find_opt t.ops op))
      op_order

  let critical t =
    Option.map
      (fun (node, e) ->
        let na = Hashtbl.find t.nodes node in
        { Analysis.sc_node = node; sc_end = e; sc_txns = na.na_txns;
          sc_cost = na.na_cost })
      t.best
end

type t = {
  ov : Analysis.overheads;
  top_k : int;
  num_windows : int;
  (* bounded working set *)
  msgs : (int, srec) Hashtbl.t;  (* messages of not-yet-completed txns *)
  pending : (int, int list ref) Hashtbl.t;  (* txn -> its msg ids, newest first *)
  ring : int array;  (* recently completed txn ids (circular) *)
  ring_set : (int, unit) Hashtbl.t;
  mutable ring_pos : int;
  mutable ring_len : int;
  (* event-self-contained folds *)
  levels : (int, level_acc) Hashtbl.t;
  links : (int, link_acc) Hashtbl.t;
  txn_fold : Txn_fold.t;
  (* Every link crossing, four scalars each, in emission order: window
     boundaries need the end time, so binning waits for [finalize].
     Empty when [num_windows <= 0]. *)
  mutable x_link : int array;
  mutable x_size : int array;
  mutable x_start : float array;
  mutable x_finish : float array;
  mutable x_n : int;
  mutable n_msgs : int;
  mutable t_end : float;
  mutable peak : int;
}

and level_acc = {
  mutable la_msgs : int;
  mutable la_bytes : int;
  mutable la_local : int;
  mutable la_crossings : int;
  mutable la_link_bytes : int;
}

and link_acc = {
  mutable lka_msgs : int;
  mutable lka_bytes : int;
  mutable lka_busy : float;
}

(* Binning allocates one table per window, so the count is capped. *)
let max_windows = 10_000

let create ?(top_k = 10) ?(num_windows = 8) ?(ring = 1024) ov =
  if ring <= 0 then invalid_arg "Streaming.create: ring must be positive";
  if num_windows > max_windows then
    invalid_arg "Streaming.create: num_windows is above max_windows";
  {
    ov;
    top_k;
    num_windows;
    msgs = Hashtbl.create 256;
    pending = Hashtbl.create 64;
    ring = Array.make ring (-1);
    ring_set = Hashtbl.create ring;
    ring_pos = 0;
    ring_len = 0;
    levels = Hashtbl.create 8;
    links = Hashtbl.create 64;
    txn_fold = Txn_fold.create ();
    x_link = [||];
    x_size = [||];
    x_start = [||];
    x_finish = [||];
    x_n = 0;
    n_msgs = 0;
    t_end = 0.0;
    peak = 0;
  }

let push_xfer t ~link ~size ~start ~finish =
  let cap = Array.length t.x_link in
  if t.x_n = cap then begin
    let cap' = max 1024 (2 * cap) in
    let grow mk a = let b = mk cap' in Array.blit a 0 b 0 t.x_n; b in
    t.x_link <- grow (fun n -> Array.make n 0) t.x_link;
    t.x_size <- grow (fun n -> Array.make n 0) t.x_size;
    t.x_start <- grow (fun n -> Array.make n 0.0) t.x_start;
    t.x_finish <- grow (fun n -> Array.make n 0.0) t.x_finish
  end;
  t.x_link.(t.x_n) <- link;
  t.x_size.(t.x_n) <- size;
  t.x_start.(t.x_n) <- start;
  t.x_finish.(t.x_n) <- finish;
  t.x_n <- t.x_n + 1

let push_rec_xfer r ~start ~finish =
  let k = 2 * r.r_nx in
  if k = Array.length r.r_xfers then begin
    let a = Array.make (max 4 (2 * k)) 0.0 in
    Array.blit r.r_xfers 0 a 0 k;
    r.r_xfers <- a
  end;
  r.r_xfers.(k) <- start;
  r.r_xfers.(k + 1) <- finish;
  r.r_nx <- r.r_nx + 1

let ring_mem t txn = Hashtbl.mem t.ring_set txn

let ring_push t txn =
  let cap = Array.length t.ring in
  if t.ring_len = cap then Hashtbl.remove t.ring_set t.ring.(t.ring_pos)
  else t.ring_len <- t.ring_len + 1;
  t.ring.(t.ring_pos) <- txn;
  Hashtbl.replace t.ring_set txn ();
  t.ring_pos <- (t.ring_pos + 1) mod cap

let level_acc t level =
  match Hashtbl.find_opt t.levels level with
  | Some a -> a
  | None ->
      let a =
        { la_msgs = 0; la_bytes = 0; la_local = 0; la_crossings = 0;
          la_link_bytes = 0 }
      in
      Hashtbl.add t.levels level a;
      a

let link_acc t link =
  match Hashtbl.find_opt t.links link with
  | Some a -> a
  | None ->
      let a = { lka_msgs = 0; lka_bytes = 0; lka_busy = 0.0 } in
      Hashtbl.add t.links link a;
      a

let side_of_rec (r : srec) : Analysis.side =
  {
    Analysis.s_local = r.r_local;
    s_sent = r.r_sent;
    s_inject = r.r_inject;
    s_handled = r.r_handled;
    s_xfer_us =
      (let acc = ref 0.0 in
       for k = 0 to r.r_nx - 1 do
         acc := !acc +. (r.r_xfers.((2 * k) + 1) -. r.r_xfers.(2 * k))
       done;
       !acc);
  }

let chain_link_of_rec (r : srec) : Analysis.chain_link =
  {
    Analysis.cl_local = r.r_local;
    cl_inject = r.r_inject;
    cl_handled = r.r_handled;
    cl_xfers = Array.sub r.r_xfers 0 (2 * r.r_nx);
  }

(* The completing chain: from the message that unblocked the fiber, walk
   [parent] links backwards while still inside the transaction. Parent ids
   are strictly smaller than child ids (issue order), so the walk
   terminates; the first message outside the transaction — for us also the
   first retired one, which is the same thing, since every message of a
   pending transaction is still live — belongs to the operation that
   merely unparked this one and is excluded. *)
let chain_ids t txn_id completed_by =
  let rec go acc prev id =
    if id < 0 || id >= prev then acc
    else
      match Hashtbl.find_opt t.msgs id with
      | Some r when r.r_txn = txn_id -> go (Ids.add id acc) id r.r_parent
      | _ -> acc
  in
  go Ids.empty max_int completed_by

let complete t ~node ~op ~ts ~dur ~txn ~completed_by =
  let chain = chain_ids t txn completed_by in
  let ids =
    match Hashtbl.find_opt t.pending txn with
    | Some ids -> List.rev !ids
    | None -> []
  in
  let chain_cost =
    Analysis.decompose_chain t.ov ~t0:ts ~dur
      (List.filter_map
         (fun id ->
           if Ids.mem id chain then
             Option.map chain_link_of_rec (Hashtbl.find_opt t.msgs id)
           else None)
         ids)
  in
  let sides =
    List.filter_map
      (fun id ->
        if Ids.mem id chain then None
        else Option.map side_of_rec (Hashtbl.find_opt t.msgs id))
      ids
  in
  Txn_fold.feed t.txn_fold ~node ~op ~t_start:ts ~dur ~chain_cost
    ~side_msgs:(List.length sides)
    ~side_cost:(Analysis.sides_cost t.ov sides);
  (* Retire: free every record of the transaction and remember its id so
     stray post-completion sends do not repopulate the table. *)
  List.iter (Hashtbl.remove t.msgs) ids;
  Hashtbl.remove t.pending txn;
  ring_push t txn

let feed t e =
  match e with
  | Trace.Msg_send { ts; id; parent; txn; inject; level; size; local; _ } ->
      t.n_msgs <- t.n_msgs + 1;
      let la = level_acc t level in
      la.la_msgs <- la.la_msgs + 1;
      la.la_bytes <- la.la_bytes + size;
      if local then begin
        la.la_local <- la.la_local + 1;
        t.t_end <- Float.max t.t_end inject
      end;
      if txn >= 0 && not (ring_mem t txn) then begin
        Hashtbl.replace t.msgs id
          {
            r_parent = parent;
            r_txn = txn;
            r_local = local;
            r_sent = ts;
            r_inject = inject;
            (* A local message's handler runs at [inject]; there is no
               separate delivery event. *)
            r_handled = (if local then Some inject else None);
            r_xfers = [||];
            r_nx = 0;
          };
        (match Hashtbl.find_opt t.pending txn with
        | Some ids -> ids := id :: !ids
        | None -> Hashtbl.add t.pending txn (ref [ id ]));
        let live = Hashtbl.length t.msgs in
        if live > t.peak then t.peak <- live
      end
  | Trace.Link_xfer { start; finish; link; msg; level; size; _ } ->
      (* Acks ([msg = -1]) have no send of their own and are not counted
         as traffic. *)
      if msg >= 0 then begin
        let la = level_acc t level in
        la.la_crossings <- la.la_crossings + 1;
        la.la_link_bytes <- la.la_link_bytes + size;
        let lk = link_acc t link in
        lk.lka_msgs <- lk.lka_msgs + 1;
        lk.lka_bytes <- lk.lka_bytes + size;
        lk.lka_busy <- lk.lka_busy +. (finish -. start);
        t.t_end <- Float.max t.t_end finish;
        if t.num_windows > 0 then push_xfer t ~link ~size ~start ~finish;
        match Hashtbl.find_opt t.msgs msg with
        | Some r -> push_rec_xfer r ~start ~finish
        | None -> ()
      end
  | Trace.Msg_deliver { id; handled; _ } ->
      if id >= 0 then begin
        t.t_end <- Float.max t.t_end handled;
        match Hashtbl.find_opt t.msgs id with
        | Some r when r.r_handled = None ->
            (* Retransmission duplicates keep the first delivery. *)
            r.r_handled <- Some handled
        | _ -> ()
      end
  | Trace.Dsm_access { ts; dur; node; op; txn; completed_by; _ }
    when txn >= 0 ->
      complete t ~node ~op ~ts ~dur ~txn ~completed_by
  | _ -> ()

let sink t = Trace.stream (feed t)
let live_msgs t = Hashtbl.length t.msgs
let peak_msgs t = t.peak

let level_rows t =
  List.sort
    (fun (a : Analysis.level_row) b -> compare a.lv_level b.lv_level)
    (Hashtbl.fold
       (fun level a acc ->
         {
           Analysis.lv_level = level;
           lv_msgs = a.la_msgs;
           lv_bytes = a.la_bytes;
           lv_local = a.la_local;
           lv_crossings = a.la_crossings;
           lv_link_bytes = a.la_link_bytes;
         }
         :: acc)
       t.levels [])

let top_links t =
  let rows =
    Hashtbl.fold
      (fun link a acc ->
        {
          Analysis.lk_link = link;
          lk_msgs = a.lka_msgs;
          lk_bytes = a.lka_bytes;
          lk_busy_us = a.lka_busy;
        }
        :: acc)
      t.links []
  in
  List.filteri
    (fun i _ -> i < t.top_k)
    (List.sort
       (fun (a : Analysis.link_row) b ->
         match compare b.lk_bytes a.lk_bytes with
         | 0 -> compare a.lk_link b.lk_link
         | c -> c)
       rows)

(* Bin the retained crossings into [num_windows] equal windows over
   [0, t_end], now that the end time is known: each crossing's bytes are
   spread over the windows it overlaps in proportion to the overlap. *)
let windows t =
  let n = t.num_windows in
  if n <= 0 || t.t_end <= 0.0 then []
  else begin
    let w = t.t_end /. float_of_int n in
    let tables = Array.init n (fun _ -> Hashtbl.create 32) in
    for x = 0 to t.x_n - 1 do
      let s = t.x_start.(x) and f = t.x_finish.(x) in
      if f > s then begin
        let link = t.x_link.(x) in
        let rate = float_of_int t.x_size.(x) /. (f -. s) in
        let first = max 0 (int_of_float (s /. w))
        and last = min (n - 1) (int_of_float (f /. w)) in
        for i = first to last do
          let lo = Float.max s (float_of_int i *. w)
          and hi = Float.min f (float_of_int (i + 1) *. w) in
          if hi > lo then
            let prev =
              Option.value ~default:0.0 (Hashtbl.find_opt tables.(i) link)
            in
            Hashtbl.replace tables.(i) link (prev +. (rate *. (hi -. lo)))
        done
      end
    done;
    List.init n (fun i ->
        {
          Analysis.w_start = float_of_int i *. w;
          w_finish = float_of_int (i + 1) *. w;
          w_link_bytes =
            List.sort compare
              (Hashtbl.fold (fun l b acc -> (l, b) :: acc) tables.(i) []);
        })
  end

let finalize t =
  {
    Analysis.sm_num_txns = t.txn_fold.Txn_fold.n_txns;
    sm_num_msgs = t.n_msgs;
    sm_end_us = t.t_end;
    sm_critical = Txn_fold.critical t.txn_fold;
    sm_levels = level_rows t;
    sm_top_links = top_links t;
    sm_windows = windows t;
    sm_ops = Txn_fold.op_rows t.txn_fold;
  }

let analyze_events ?top_k ?num_windows ?ring ov events =
  let t = create ?top_k ?num_windows ?ring ov in
  List.iter (feed t) events;
  (finalize t, t.peak)

(* ------------------------------------------------------------------ *)
(* On-disk JSONL trace format                                           *)
(* ------------------------------------------------------------------ *)

let format_name = "diva-event-trace"
let current_version = 1

type header = {
  h_version : int;
  h_app : string;
  h_dims : int array;
  h_strategy : string;
  h_seed : int;
  h_overheads : Analysis.overheads;
  h_params : (string * Json.t) list;
}

let make_header ?(params = []) ~app ~dims ~strategy ~seed ~overheads () =
  {
    h_version = current_version;
    h_app = app;
    h_dims = Array.copy dims;
    h_strategy = strategy;
    h_seed = seed;
    h_overheads = overheads;
    h_params = params;
  }

let header_json h =
  let open Json in
  Obj
    [
      ("format", String format_name);
      ("version", Int h.h_version);
      ("app", String h.h_app);
      ("dims", List (List.map (fun d -> Int d) (Array.to_list h.h_dims)));
      ("strategy", String h.h_strategy);
      ("seed", Int h.h_seed);
      ( "overheads",
        Obj
          [
            ("send_us", Float h.h_overheads.Analysis.send_overhead);
            ("recv_us", Float h.h_overheads.Analysis.recv_overhead);
            ("local_us", Float h.h_overheads.Analysis.local_overhead);
          ] );
      ("params", Obj h.h_params);
    ]

let ( let* ) = Result.bind

let field ~what ~key conv j =
  match Option.bind (Json.member key j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: missing or malformed %S field" what key)

let parse_header line =
  let* j = Result.map_error (fun e -> "header: " ^ e) (Json.of_string line) in
  let* fmt = field ~what:"header" ~key:"format" Json.to_str j in
  if fmt <> format_name then
    Error
      (Printf.sprintf "not an event trace (format %S, expected %S)" fmt
         format_name)
  else
    let* version = field ~what:"header" ~key:"version" Json.to_int j in
    if version < 1 || version > current_version then
      Error
        (Printf.sprintf
           "unsupported trace version %d (this build supports 1..%d)" version
           current_version)
    else
      let* app = field ~what:"header" ~key:"app" Json.to_str j in
      let* dims =
        match Json.member "dims" j with
        | Some (Json.List ds) ->
            let ints = List.filter_map Json.to_int ds in
            if List.length ints = List.length ds && ints <> [] then
              Ok (Array.of_list ints)
            else Error "header: malformed \"dims\""
        | _ -> Error "header: missing \"dims\""
      in
      let* strategy = field ~what:"header" ~key:"strategy" Json.to_str j in
      let* seed = field ~what:"header" ~key:"seed" Json.to_int j in
      let* overheads =
        match Json.member "overheads" j with
        | Some o ->
            let* send_overhead =
              field ~what:"header overheads" ~key:"send_us" Json.to_float o
            in
            let* recv_overhead =
              field ~what:"header overheads" ~key:"recv_us" Json.to_float o
            in
            let* local_overhead =
              field ~what:"header overheads" ~key:"local_us" Json.to_float o
            in
            Ok { Analysis.send_overhead; recv_overhead; local_overhead }
        | None -> Error "header: missing \"overheads\""
      in
      let params =
        match Json.member "params" j with Some (Json.Obj kvs) -> kvs | _ -> []
      in
      Ok
        {
          h_version = version;
          h_app = app;
          h_dims = dims;
          h_strategy = strategy;
          h_seed = seed;
          h_overheads = overheads;
          h_params = params;
        }

let write_header oc h =
  let b = Buffer.create 256 in
  Json.to_buffer b (header_json h);
  Buffer.add_char b '\n';
  Buffer.output_buffer oc b

let file_sink oc h =
  write_header oc h;
  Trace.stream (Trace.write_event oc)

(* ------------------------------------------------------------------ *)
(* Event decoding                                                       *)
(* ------------------------------------------------------------------ *)

(* Slot of every member name an event line can carry; [-1] for the rest. *)
let event_slot = function
  | "e" -> 0 | "ts" -> 1 | "id" -> 2 | "par" -> 3 | "txn" -> 4 | "inj" -> 5
  | "lv" -> 6 | "src" -> 7 | "dst" -> 8 | "sz" -> 9 | "loc" -> 10 | "h" -> 11
  | "s" -> 12 | "f" -> 13 | "lk" -> 14 | "msg" -> 15 | "v" -> 16
  | "name" -> 17 | "own" -> 18 | "dur" -> 19 | "n" -> 20 | "op" -> 21
  | "hit" -> 22 | "cb" -> 23 | "tn" -> 24 | "why" -> 25 | "from" -> 26
  | "to" -> 27 | "att" -> 28
  | _ -> -1

exception Bad_event of string

let bad_event fmt = Printf.ksprintf (fun msg -> raise (Bad_event msg)) fmt

(* One pass over the line's members files each known one into its slot;
   the first occurrence wins, as with [Json.member]. *)
let rec fill_slots slots seen = function
  | [] -> ()
  | (k, v) :: kvs ->
      let i = event_slot k in
      if i >= 0 && seen land (1 lsl i) = 0 then begin
        slots.(i) <- v;
        fill_slots slots (seen lor (1 lsl i)) kvs
      end
      else fill_slots slots seen kvs

let slot conv slots key =
  match conv slots.(event_slot key) with
  | Some v -> v
  | None -> bad_event "event: missing or malformed %S field" key

let int = slot Json.to_int
let flt = slot Json.to_float
let str = slot Json.to_str
let boo = slot Json.to_bool

(* The decoders read slots in the order they always checked fields, so the
   first missing or malformed one is the one reported. *)
let decode_event sl =
  match str sl "e" with
  | "send" ->
      let ts = flt sl "ts" in
      let id = int sl "id" in
      let parent = int sl "par" in
      let txn = int sl "txn" in
      let inject = flt sl "inj" in
      let level = int sl "lv" in
      let src = int sl "src" in
      let dst = int sl "dst" in
      let size = int sl "sz" in
      let local = boo sl "loc" in
      Trace.Msg_send { ts; id; parent; txn; inject; level; src; dst; size; local }
  | "dlv" ->
      let ts = flt sl "ts" in
      let id = int sl "id" in
      let txn = int sl "txn" in
      let handled = flt sl "h" in
      let src = int sl "src" in
      let dst = int sl "dst" in
      let size = int sl "sz" in
      Trace.Msg_deliver { ts; id; txn; handled; src; dst; size }
  | "xfer" ->
      let start = flt sl "s" in
      let finish = flt sl "f" in
      let link = int sl "lk" in
      let msg = int sl "msg" in
      let txn = int sl "txn" in
      let level = int sl "lv" in
      let src = int sl "src" in
      let dst = int sl "dst" in
      let size = int sl "sz" in
      Trace.Link_xfer { start; finish; link; msg; txn; level; src; dst; size }
  | "var" ->
      let ts = flt sl "ts" in
      let var = int sl "v" in
      let var_name = str sl "name" in
      let size = int sl "sz" in
      let owner = int sl "own" in
      Trace.Var_decl { ts; var; var_name; size; owner }
  | "dsm" ->
      let ts = flt sl "ts" in
      let dur = flt sl "dur" in
      let node = int sl "n" in
      let var = int sl "v" in
      let var_name = str sl "name" in
      let code = str sl "op" in
      let op =
        match Trace.op_of_code code with
        | Some op -> op
        | None -> bad_event "event: unknown op code %S" code
      in
      let size = int sl "sz" in
      let hit = boo sl "hit" in
      let txn = int sl "txn" in
      let completed_by = int sl "cb" in
      Trace.Dsm_access
        { ts; dur; node; var; var_name; op; size; hit; txn; completed_by }
  | "cadd" ->
      let ts = flt sl "ts" in
      let node = int sl "n" in
      let var = int sl "v" in
      let var_name = str sl "name" in
      let tnode = int sl "tn" in
      let level = int sl "lv" in
      Trace.Copy_add { ts; node; var; var_name; tnode; level }
  | "cdrop" ->
      let ts = flt sl "ts" in
      let node = int sl "n" in
      let var = int sl "v" in
      let var_name = str sl "name" in
      let tnode = int sl "tn" in
      let level = int sl "lv" in
      let code = str sl "why" in
      let reason =
        match Trace.drop_of_code code with
        | Some r -> r
        | None -> bad_event "event: unknown drop reason %S" code
      in
      Trace.Copy_drop { ts; node; var; var_name; tnode; level; reason }
  | "remap" ->
      let ts = flt sl "ts" in
      let var = int sl "v" in
      let var_name = str sl "name" in
      let tnode = int sl "tn" in
      let level = int sl "lv" in
      let from_node = int sl "from" in
      let to_node = int sl "to" in
      Trace.Remap { ts; var; var_name; tnode; level; from_node; to_node }
  | "lost" ->
      let ts = flt sl "ts" in
      let msg = int sl "msg" in
      let txn = int sl "txn" in
      let src = int sl "src" in
      let dst = int sl "dst" in
      let size = int sl "sz" in
      let code = str sl "why" in
      let reason =
        match Trace.loss_of_code code with
        | Some r -> r
        | None -> bad_event "event: unknown loss reason %S" code
      in
      Trace.Msg_lost { ts; msg; txn; src; dst; size; reason }
  | "retry" ->
      let ts = flt sl "ts" in
      let msg = int sl "msg" in
      let txn = int sl "txn" in
      let src = int sl "src" in
      let dst = int sl "dst" in
      let size = int sl "sz" in
      let attempt = int sl "att" in
      Trace.Msg_retry { ts; msg; txn; src; dst; size; attempt }
  | other -> bad_event "event: unknown tag %S" other

let event_of_json j =
  let slots = Array.make 29 Json.Null in
  (match j with Json.Obj kvs -> fill_slots slots 0 kvs | _ -> ());
  match decode_event slots with e -> Ok e | exception Bad_event msg -> Error msg

let event_of_line ~lineno line =
  let* j =
    Result.map_error
      (fun e -> Printf.sprintf "line %d: %s" lineno e)
      (Json.of_string line)
  in
  Result.map_error
    (fun e -> Printf.sprintf "line %d: %s" lineno e)
    (event_of_json j)

(* ------------------------------------------------------------------ *)
(* File reading (line at a time — memory stays bounded)                 *)
(* ------------------------------------------------------------------ *)

let with_lines path f =
  if not (Sys.file_exists path) then
    Error (Printf.sprintf "%s: no such file" path)
  else
    match
      let ic = open_in path in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () -> f ic)
    with
    | r -> Result.map_error (fun e -> Printf.sprintf "%s: %s" path e) r
    | exception Sys_error e -> Error e

(* The next non-blank line, numbered from [lineno] (the number of the
   line about to be read). Blank lines are skipped everywhere. *)
let rec next_line ic lineno =
  match input_line ic with
  | exception End_of_file -> None
  | line when String.trim line = "" -> next_line ic (lineno + 1)
  | line -> Some (line, lineno)

(* The first non-blank line is the header: returns it and its number. *)
let read_header ic =
  match next_line ic 1 with
  | None -> Error "empty trace file"
  | Some (line, lineno) -> Result.map (fun h -> (h, lineno)) (parse_header line)

(* Every line after the header is one event, applied in order to the
   consumer [start] builds from the header. Returns the header and what
   [start] returned beside the consumer. *)
let read_file path ~start =
  with_lines path (fun ic ->
      let* header, hline = read_header ic in
      let acc, f = start header in
      let rec go lineno =
        match next_line ic lineno with
        | None -> Ok (header, acc)
        | Some (line, lineno) ->
            let* e = event_of_line ~lineno line in
            f e;
            go (lineno + 1)
      in
      go (hline + 1))

let iter_file path ~f = Result.map fst (read_file path ~start:(fun _ -> ((), f)))
let probe path = with_lines path (fun ic -> Result.map ignore (read_header ic))

(* Full offline post-mortem in a single pass over the file: the analyzer
   is built from the header's overheads, retains each link crossing as
   four scalars and bins them into windows at [finalize], once the end
   time is known. Returns the header, the summary — bit-identical to the
   live run's — and the peak message-record residency. *)
let analyze_file ?top_k ?num_windows ?ring path =
  match num_windows with
  | Some n when n > max_windows ->
      Error (Printf.sprintf "%d windows is above the cap of %d" n max_windows)
  | _ ->
      let* header, t =
        read_file path ~start:(fun h ->
            let t = create ?top_k ?num_windows ?ring h.h_overheads in
            (t, feed t))
      in
      Ok (header, finalize t, t.peak)

(* ------------------------------------------------------------------ *)
(* Multi-run merge / compaction                                         *)
(* ------------------------------------------------------------------ *)

let merged_format_name = "diva-event-trace-merged"
let merged_version = 1

type merge_stats = { ms_runs : int; ms_events : int; ms_dropped : int }

(* One scan of a run: its event count plus its quiescence point — the
   issue time of the first DSM access. Everything before quiescence is
   setup chatter (initial copy placement, warm-up sends) that multi-run
   analysis wants gone; [Var_decl] events survive compaction regardless
   because replay and analysis need the declarations. A run with no DSM
   accesses compacts to itself (cut at 0). *)
let scan_run path =
  let n = ref 0 and q = ref Float.infinity in
  let* _ =
    iter_file path ~f:(fun e ->
        incr n;
        match e with
        | Trace.Dsm_access { ts; _ } when ts < !q -> q := ts
        | _ -> ())
  in
  Ok (!n, if !q = Float.infinity then 0.0 else !q)

let keep_event ~quiescence e =
  match e with
  | Trace.Var_decl _ -> true
  | e -> Trace.timestamp e >= quiescence

(* One open input being merged: header already consumed, [mu_cur] holds
   the next surviving event. Only each cursor's head competes, so within
   a file the original emission order is preserved exactly; across files
   the merge is a stable k-way interleave on head timestamps with the
   run index as tie-break — the output is deterministic. *)
type cursor = {
  mu_run : int;
  mu_path : string;
  mu_ic : in_channel;
  mutable mu_lineno : int;
  mutable mu_cur : Trace.event option;
  mu_quiescence : float;
}

let cursor_advance c =
  let rec go () =
    match next_line c.mu_ic (c.mu_lineno + 1) with
    | None ->
        c.mu_cur <- None;
        Ok ()
    | Some (line, lineno) ->
        c.mu_lineno <- lineno;
        let* e =
          Result.map_error
            (fun e -> Printf.sprintf "%s: %s" c.mu_path e)
            (event_of_line ~lineno line)
        in
        if keep_event ~quiescence:c.mu_quiescence e then begin
          c.mu_cur <- Some e;
          Ok ()
        end
        else go ()
  in
  go ()

(* Open one input positioned just past its header line (already validated
   by the caller). *)
let open_cursor ~run ~quiescence path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
      let lineno = match next_line ic 1 with Some (_, n) -> n | None -> 0 in
      Ok
        {
          mu_run = run;
          mu_path = path;
          mu_ic = ic;
          mu_lineno = lineno;
          mu_cur = None;
          mu_quiescence = quiescence;
        }

let write_json_line oc j =
  let b = Buffer.create 256 in
  Json.to_buffer b j;
  Buffer.add_char b '\n';
  Buffer.output_buffer oc b

let merge_files ?(compact = false) ~inputs ~output () =
  if inputs = [] then Error "trace merge: no input files"
  else
    (* Pass 1: validate every header; when compacting, also scan each run
       for its size and quiescence cut. *)
    let* runs =
      List.fold_left
        (fun acc path ->
          let* acc = acc in
          let* h = with_lines path (fun ic -> Result.map fst (read_header ic)) in
          let* total, quiescence =
            if compact then scan_run path else Ok (0, 0.0)
          in
          Ok ((path, h, total, quiescence) :: acc))
        (Ok []) inputs
    in
    let runs = List.rev runs in
    match
      let oc = open_out output in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          let open Json in
          (* Merged header: the format marker plus every input's own
             header and its quiescence cut, so downstream tools can tell
             what a compacted merge dropped. *)
          write_json_line oc
            (Obj
               [
                 ("format", String merged_format_name);
                 ("version", Int merged_version);
                 ("compact", Bool compact);
                 ( "runs",
                   List
                     (List.map
                        (fun (path, h, _, q) ->
                          Obj
                            [
                              ("path", String (Filename.basename path));
                              ("header", header_json h);
                              ("quiescence_us", Float q);
                            ])
                        runs) );
               ]);
          let* cursors =
            List.fold_left
              (fun acc (run, (path, _, _, quiescence)) ->
                let* acc = acc in
                let* c = open_cursor ~run ~quiescence path in
                Ok (c :: acc))
              (Ok [])
              (List.mapi (fun i r -> (i, r)) runs)
            |> Result.map List.rev
          in
          Fun.protect
            ~finally:(fun () ->
              List.iter
                (fun c -> try close_in c.mu_ic with Sys_error _ -> ())
                cursors)
            (fun () ->
              let* () =
                List.fold_left
                  (fun acc c ->
                    let* () = acc in
                    cursor_advance c)
                  (Ok ()) cursors
              in
              let written = ref 0 in
              (* Earliest head timestamp wins; ties keep the lower run
                 index (the fold visits cursors in run order and only a
                 strictly smaller timestamp displaces the champion). *)
              let rec pump () =
                let best =
                  List.fold_left
                    (fun best c ->
                      match (c.mu_cur, best) with
                      | None, _ -> best
                      | Some _, None -> Some c
                      | Some e, Some b -> (
                          match b.mu_cur with
                          | Some be
                            when Trace.timestamp e < Trace.timestamp be ->
                              Some c
                          | _ -> best))
                    None cursors
                in
                match best with
                | None -> Ok ()
                | Some c -> (
                    match c.mu_cur with
                    | None -> Ok ()
                    | Some e ->
                        let fields =
                          match Trace.event_to_json e with
                          | Obj kvs -> kvs
                          | j -> [ ("event", j) ]
                        in
                        write_json_line oc
                          (Obj (("run", Int c.mu_run) :: fields));
                        incr written;
                        let* () = cursor_advance c in
                        pump ())
              in
              let* () = pump () in
              let total_in =
                if compact then
                  List.fold_left (fun acc (_, _, n, _) -> acc + n) 0 runs
                else !written
              in
              Ok
                {
                  ms_runs = List.length runs;
                  ms_events = !written;
                  ms_dropped = max 0 (total_in - !written);
                }))
    with
    | r -> r
    | exception Sys_error e -> Error e
