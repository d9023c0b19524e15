(* The analysis engine: fold a run's event stream into an
   {!Analysis.summary} in one pass, retiring each transaction's message
   records the moment its completion event passes. Peak residency is
   O(concurrent transactions x protocol fan-out), independent of run
   length; {!peak_msgs} exposes the high-water mark so harnesses can
   assert it. The same fold runs live (fed by a trace sink) and over a
   saved trace file, so both give the same summary bit for bit.

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

(* Retained state of one message of a pending transaction, freed when
   the transaction completes: this record and its float array, nothing
   boxed. The transaction's messages form an intrusive list through
   [r_prev], newest first; the table [pending] holds the newest id. *)
type srec = {
  r_parent : int;
  r_txn : int;
  r_prev : int;  (* previous message of the transaction; its own id if first *)
  mutable r_bits : int;  (* [local_bit], [handled_bit], [chain_bit] *)
  (* [sent; inject; handled], then one (start, finish) pair per link
     crossing in arrival order, sized exactly: the crossing count is
     [(length - 3) / 2]. [handled] means something only under
     [handled_bit]. *)
  mutable r_f : float array;
}

let local_bit = 1
let handled_bit = 2
let chain_bit = 4 (* set while [complete] splits chain from side branches *)

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
  pending : (int, int) Hashtbl.t;  (* txn -> its newest message id *)
  ring : int array;  (* recently completed txn ids (circular) *)
  ring_set : (int, unit) Hashtbl.t;
  mutable ring_pos : int;
  mutable ring_len : int;
  (* event-self-contained folds *)
  levels : (int, level_acc) Hashtbl.t;
  links : (int, link_acc) Hashtbl.t;
  (* Per link crossed, its window sums in chunks of [chunk_len]: a chunk
     no crossing has reached is [||] and reads as zeros. Empty when
     [num_windows <= 0]. *)
  wins : (int, float array array) Hashtbl.t;
  txn_fold : Txn_fold.t;
  (* Width of the link windows, a power of two of microseconds: see
     {!Analysis.window}. *)
  mutable w_us : float;
  chunk_len : int;  (* windows per chunk of a link's sums *)
  mutable spare : float array list;  (* chunks merged away, for reuse *)
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

(* Every link holds up to one sum per window, so the count is capped. *)
let max_windows = 10_000

(* A link's sums come in chunks of 32 windows, allocated when a crossing
   first reaches them, so that a link busy in few windows holds few
   sums; up to 32 windows are one chunk. A chunk that a merge empties
   is kept for the next one needed, rather than left to the GC. *)
let max_chunk = 32

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
    wins = Hashtbl.create 64;
    txn_fold = Txn_fold.create ();
    w_us = 1.0;
    chunk_len = max 1 (min num_windows max_chunk);
    spare = [];
    n_msgs = 0;
    t_end = 0.0;
    peak = 0;
  }

(* Records are sized exactly, so a crossing copies the float array into
   one two cells longer. *)
let push_rec_xfer r ~start ~finish =
  let f = r.r_f in
  let n = Array.length f in
  let g = Array.make (n + 2) finish in
  Array.blit f 0 g 0 n;
  g.(n) <- start;
  r.r_f <- g

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

let link_wins t link =
  match Hashtbl.find_opt t.wins link with
  | Some w -> w
  | None ->
      let chunks = (t.num_windows + t.chunk_len - 1) / t.chunk_len in
      let w = Array.make chunks [||] in
      Hashtbl.add t.wins link w;
      w

(* The link windows fold as crossings arrive, as {!Analysis.window}
   defines them. Doubling the width merges window [2j] and [2j + 1] of a
   link into window [j], the even one first. *)
let merge_pairs a =
  let n = Array.length a in
  for j = 0 to n - 1 do
    let e = 2 * j in
    a.(j) <-
      (if e < n then a.(e) else 0.0) +. if e + 1 < n then a.(e + 1) else 0.0
  done

(* [merge_pairs] over a link's chunks, in place. A lone chunk merges as
   is. Otherwise chunks hold [max_chunk] windows, and chunk [2k] and
   [2k + 1] become chunk [k]: the pairs of the first fill its lower
   half, those of the second its upper half, and a missing one gives
   zeros, as [0.0 +. 0.0] does. *)
let merge_chunks t win =
  let n = Array.length win in
  let get k = if k < n then win.(k) else [||] and h = max_chunk / 2 in
  for k = 0 to n - 1 do
    let a = get (2 * k) and b = get ((2 * k) + 1) in
    win.(k) <-
      (if Array.length a > 0 then begin
         merge_pairs a;
         if Array.length b > 0 then begin
           for i = 0 to h - 1 do
             a.(h + i) <- b.(2 * i) +. b.((2 * i) + 1)
           done;
           t.spare <- b :: t.spare
         end;
         a
       end
       else if Array.length b > 0 then begin
         (* Downwards, so no pair is overwritten before it is read. *)
         for i = h - 1 downto 0 do
           b.(h + i) <- b.(2 * i) +. b.((2 * i) + 1)
         done;
         Array.fill b 0 h 0.0;
         b
       end
       else [||])
  done

(* Double the width until the windows reach [limit]. A non-finite
   [limit] stops at an infinite width, or at once for a NaN. *)
let widen t limit =
  let n = float_of_int t.num_windows in
  while n *. t.w_us < limit do
    Hashtbl.iter (fun _ w -> merge_chunks t w) t.wins;
    t.w_us <- 2.0 *. t.w_us
  done

(* Spread a crossing's bytes over the windows it overlaps, in proportion
   to the overlap; the part before 0 is dropped. The windows reach
   [finish], so every index is below [num_windows]. *)
let spread t win ~size ~start:s ~finish:f =
  let w = t.w_us and c = t.chunk_len in
  let rate = float_of_int size /. (f -. s) in
  let first = if s > 0.0 then int_of_float (s /. w) else 0
  and last = min (t.num_windows - 1) (int_of_float (f /. w)) in
  for i = first to last do
    let lo = Float.max s (float_of_int i *. w)
    and hi = Float.min f (float_of_int (i + 1) *. w) in
    if hi > lo then begin
      let k = i / c and j = i mod c in
      if Array.length win.(k) = 0 then
        win.(k) <-
          (match t.spare with
          | x :: rest ->
              t.spare <- rest;
              Array.fill x 0 c 0.0;
              x
          | [] -> Array.make c 0.0);
      let sums = win.(k) in
      sums.(j) <- sums.(j) +. (rate *. (hi -. lo))
    end
  done

let handled (r : srec) =
  if r.r_bits land handled_bit <> 0 then Some r.r_f.(2) else None

let side_of_rec (r : srec) : Analysis.side =
  let f = r.r_f in
  {
    Analysis.s_local = r.r_bits land local_bit <> 0;
    s_sent = f.(0);
    s_inject = f.(1);
    s_handled = handled r;
    s_xfer_us =
      (let acc = ref 0.0 in
       let k = ref 3 in
       while !k < Array.length f do
         acc := !acc +. (f.(!k + 1) -. f.(!k));
         k := !k + 2
       done;
       !acc);
  }

let chain_link_of_rec (r : srec) : Analysis.chain_link =
  {
    Analysis.cl_local = r.r_bits land local_bit <> 0;
    cl_inject = r.r_f.(1);
    cl_handled = handled r;
    cl_xfers = Array.sub r.r_f 3 (Array.length r.r_f - 3);
  }

(* The completing chain: from the message that unblocked the fiber, walk
   [parent] links backwards while still inside the transaction, setting
   [chain_bit] on each. Parent ids are strictly smaller than child ids
   (issue order), so the walk terminates; the first message outside the
   transaction — for us also the first retired one, which is the same
   thing, since every message of a pending transaction is still live —
   belongs to the operation that merely unparked this one and is
   excluded. *)
let mark_chain t txn_id completed_by =
  let rec go prev id =
    if id >= 0 && id < prev then
      match Hashtbl.find_opt t.msgs id with
      | Some r when r.r_txn = txn_id ->
          r.r_bits <- r.r_bits lor chain_bit;
          go id r.r_parent
      | _ -> ()
  in
  go max_int completed_by

(* The transaction's records in send order, each removed from [msgs]:
   walk [r_prev] back from the newest. *)
let retire_txn t txn =
  let rec go acc id =
    match Hashtbl.find_opt t.msgs id with
    | Some r when r.r_txn = txn ->
        Hashtbl.remove t.msgs id;
        if r.r_prev = id then r :: acc else go (r :: acc) r.r_prev
    | _ -> acc
  in
  match Hashtbl.find_opt t.pending txn with
  | Some newest ->
      Hashtbl.remove t.pending txn;
      go [] newest
  | None -> []

let complete t ~node ~op ~ts ~dur ~txn ~completed_by =
  mark_chain t txn completed_by;
  let recs = retire_txn t txn in
  let on_chain r = r.r_bits land chain_bit <> 0 in
  let chain_cost =
    Analysis.decompose_chain t.ov ~t0:ts ~dur
      (List.filter_map
         (fun r -> if on_chain r then Some (chain_link_of_rec r) else None)
         recs)
  in
  let sides =
    List.filter_map
      (fun r -> if on_chain r then None else Some (side_of_rec r))
      recs
  in
  Txn_fold.feed t.txn_fold ~node ~op ~t_start:ts ~dur ~chain_cost
    ~side_msgs:(List.length sides)
    ~side_cost:(Analysis.sides_cost t.ov sides);
  (* Remember the id so stray post-completion sends do not repopulate the
     table. *)
  ring_push t txn

(* A send whose id is already live keeps the first send's record: the
   repeat is counted as traffic but neither replaces the record nor joins
   a transaction's list again, so the [r_prev] lists stay acyclic. The
   simulator sends each id once, the reliable envelope included. *)
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
      if txn >= 0 && (not (ring_mem t txn)) && not (Hashtbl.mem t.msgs id)
      then begin
        let prev =
          match Hashtbl.find_opt t.pending txn with Some p -> p | None -> id
        in
        Hashtbl.add t.msgs id
          {
            r_parent = parent;
            r_txn = txn;
            r_prev = prev;
            (* A local message's handler runs at [inject]; there is no
               separate delivery event. *)
            r_bits = (if local then local_bit lor handled_bit else 0);
            r_f = [| ts; inject; (if local then inject else 0.0) |];
          };
        Hashtbl.replace t.pending txn id;
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
        if t.num_windows > 0 then begin
          let win = link_wins t link in
          widen t finish;
          if finish > start && finish > 0.0 then
            spread t win ~size ~start ~finish
        end;
        match Hashtbl.find_opt t.msgs msg with
        | Some r -> push_rec_xfer r ~start ~finish
        | None -> ()
      end
  | Trace.Msg_deliver { id; handled; _ } ->
      if id >= 0 then begin
        t.t_end <- Float.max t.t_end handled;
        match Hashtbl.find_opt t.msgs id with
        | Some r when r.r_bits land handled_bit = 0 ->
            (* Retransmission duplicates keep the first delivery. *)
            r.r_f.(2) <- handled;
            r.r_bits <- r.r_bits lor handled_bit
        | _ -> ()
      end
  | Trace.Dsm_access { ts; dur; node; op; txn; completed_by; _ }
    when txn >= 0 ->
      complete t ~node ~op ~ts ~dur ~txn ~completed_by
  | _ -> ()

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

(* The windows up to the end time, widened as [feed] widens but on a
   copy of one link's sums at a time, laid out flat: [merge_pairs] on
   the flat copy is [merge_chunks] on the chunks. *)
let windows t =
  let n = t.num_windows in
  if n <= 0 || t.t_end <= 0.0 then []
  else begin
    let nf = float_of_int n in
    let w = ref t.w_us and merges = ref 0 in
    while nf *. !w < t.t_end do
      w := 2.0 *. !w;
      incr merges
    done;
    let w = !w in
    let k =
      let c = Float.ceil (t.t_end /. w) in
      if c < nf then int_of_float c else n
    in
    let c = t.chunk_len in
    let rows = Array.make k [] in
    let sums = Array.make (c * ((n + c - 1) / c)) 0.0 in
    (* Descending link order, so consing leaves each row ascending. *)
    List.iter
      (fun (link, win) ->
        Array.iteri
          (fun q chunk ->
            if Array.length chunk = 0 then Array.fill sums (q * c) c 0.0
            else Array.blit chunk 0 sums (q * c) c)
          win;
        for _ = 1 to !merges do
          merge_pairs sums
        done;
        for i = 0 to k - 1 do
          if sums.(i) <> 0.0 then rows.(i) <- (link, sums.(i)) :: rows.(i)
        done)
      (List.sort
         (fun (l, _) (l', _) -> compare l' l)
         (Hashtbl.fold (fun l w acc -> (l, w) :: acc) t.wins []));
    List.init k (fun i ->
        {
          Analysis.w_start = float_of_int i *. w;
          w_finish = Float.min (float_of_int (i + 1) *. w) t.t_end;
          w_link_bytes = rows.(i);
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

(* Slot of the member name [s.[off .. off+len-1]], matched in place; [-1]
   for names no event carries. *)
let slot_at s off len =
  match len with
  | 1 -> (
      match String.unsafe_get s off with
      | 'e' -> 0 | 'h' -> 11 | 's' -> 12 | 'f' -> 13 | 'v' -> 16 | 'n' -> 20
      | _ -> -1)
  | 2 -> (
      match (String.unsafe_get s off, String.unsafe_get s (off + 1)) with
      | 't', 's' -> 1 | 'i', 'd' -> 2 | 'l', 'v' -> 6 | 's', 'z' -> 9
      | 'l', 'k' -> 14 | 'o', 'p' -> 21 | 'c', 'b' -> 23 | 't', 'n' -> 24
      | 't', 'o' -> 27
      | _ -> -1)
  | 3 -> (
      match
        ( String.unsafe_get s off,
          String.unsafe_get s (off + 1),
          String.unsafe_get s (off + 2) )
      with
      | 'p', 'a', 'r' -> 3 | 't', 'x', 'n' -> 4 | 'i', 'n', 'j' -> 5
      | 's', 'r', 'c' -> 7 | 'd', 's', 't' -> 8 | 'l', 'o', 'c' -> 10
      | 'm', 's', 'g' -> 15 | 'o', 'w', 'n' -> 18 | 'd', 'u', 'r' -> 19
      | 'h', 'i', 't' -> 22 | 'w', 'h', 'y' -> 25 | 'a', 't', 't' -> 28
      | _ -> -1)
  | 4 -> (
      match
        ( String.unsafe_get s off,
          String.unsafe_get s (off + 1),
          String.unsafe_get s (off + 2),
          String.unsafe_get s (off + 3) )
      with
      | 'n', 'a', 'm', 'e' -> 17 | 'f', 'r', 'o', 'm' -> 26
      | _ -> -1)
  | _ -> -1

let num_slots = 29

(* One line's members, typed: what {!Json.scan} found in each slot and
   its value. [seen] has bit i set once slot i is filled, so the first of
   duplicate names wins, as with [Json.member]. One [slots] serves every
   line of a file. *)
type slots = {
  mutable seen : int;
  kinds : Json.kind array;
  ints : int array;  (* [K_int] values, and [K_bool] as 1 / 0 *)
  floats : float array;
  strings : string array;
}

let slots () =
  {
    seen = 0;
    kinds = Array.make num_slots Json.K_null;
    ints = Array.make num_slots 0;
    floats = Array.make num_slots 0.0;
    strings = Array.make num_slots "";
  }

let fill sl c name off len =
  let i = slot_at name off len in
  if i < 0 || sl.seen land (1 lsl i) <> 0 then ignore (Json.scan c)
  else begin
    sl.seen <- sl.seen lor (1 lsl i);
    let k = Json.scan c in
    sl.kinds.(i) <- k;
    match k with
    | Json.K_int | K_bool -> sl.ints.(i) <- Json.int_value c
    | K_float -> sl.floats.(i) <- Json.float_value c
    | K_string -> sl.strings.(i) <- Json.string_value c
    | K_null | K_list | K_obj -> ()
  end

exception Bad_event of string

let bad_event fmt = Printf.ksprintf (fun msg -> raise (Bad_event msg)) fmt
let malformed key = bad_event "event: missing or malformed %S field" key

(* What filled slot [i] on this line; an absent member reads as
   [K_null], which no field accepts. *)
let[@inline] kind sl i =
  if sl.seen land (1 lsl i) <> 0 then sl.kinds.(i) else Json.K_null

let[@inline] slot key = slot_at key 0 (String.length key)

(* The field readers convert exactly as [Json.to_int], [to_float],
   [to_str] and [to_bool] do. *)
let int sl key =
  let i = slot key in
  match kind sl i with
  | Json.K_int -> sl.ints.(i)
  | K_float when Json.fits_int sl.floats.(i) -> int_of_float sl.floats.(i)
  | _ -> malformed key

let flt sl key =
  let i = slot key in
  match kind sl i with
  | Json.K_float -> sl.floats.(i)
  | K_int -> float_of_int sl.ints.(i)
  | _ -> malformed key

let str sl key =
  let i = slot key in
  match kind sl i with Json.K_string -> sl.strings.(i) | _ -> malformed key

let boo sl key =
  let i = slot key in
  match kind sl i with Json.K_bool -> sl.ints.(i) = 1 | _ -> malformed key

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

(* One pass over the line's bytes fills the slots; only a line that is
   one well-formed JSON document gets its fields checked. *)
let decode_line sl line =
  sl.seen <- 0;
  match Json.members line sl fill with
  | Error e -> Error e
  | Ok () -> (
      match decode_event sl with e -> Ok e | exception Bad_event msg -> Error msg)

let event_of_line line = decode_line (slots ()) line

let numbered_event sl ~lineno line =
  match decode_line sl line with
  | Ok _ as ok -> ok
  | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)

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
      let sl = slots () in
      let rec go lineno =
        match next_line ic lineno with
        | None -> Ok (header, acc)
        | Some (line, lineno) ->
            let* e = numbered_event sl ~lineno line in
            f e;
            go (lineno + 1)
      in
      go (hline + 1))

let iter_file path ~f = Result.map fst (read_file path ~start:(fun _ -> ((), f)))
let probe path = with_lines path (fun ic -> Result.map ignore (read_header ic))

(* Full offline post-mortem in a single pass over the file: the analyzer
   is built from the header's overheads and folds each link crossing
   into its link's windows as it arrives. Returns the header, the
   summary — bit-identical to the live run's — and the peak
   message-record residency. *)
let analyze_file ?top_k ?num_windows path =
  match num_windows with
  | Some n when n > max_windows ->
      Error (Printf.sprintf "%d windows is above the cap of %d" n max_windows)
  | _ ->
      let* header, t =
        read_file path ~start:(fun h ->
            let t = create ?top_k ?num_windows h.h_overheads in
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
  mu_slots : slots;
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
            (numbered_event c.mu_slots ~lineno line)
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
          mu_slots = slots ();
          mu_lineno = lineno;
          mu_cur = None;
          mu_quiescence = quiescence;
        }

let write_json_line oc j =
  let b = Buffer.create 256 in
  Json.to_buffer b j;
  Buffer.add_char b '\n';
  Buffer.output_buffer oc b

(* A merged event line is the event's own line with a leading ["run"]
   member: [{"run":N,] and then the encoded object past its brace. *)
let write_run_line oc b run e =
  Buffer.clear b;
  Trace.add_event b e;
  let line = Buffer.contents b in
  output_string oc {|{"run":|};
  output_string oc (string_of_int run);
  output_char oc ',';
  output_substring oc line 1 (String.length line - 1);
  output_char oc '\n'

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
              let written = ref 0 and line = Buffer.create 256 in
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
                        write_run_line oc line c.mu_run e;
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
