(* Word 0 of a slot, from bit 0 up: three flags (pending, txn, lock), the
   tracking pointer and the token pointer ([bits] each), the placement
   ([place_bits]), then edges of [bits] each, the newest lowest. Each
   further edge word holds the next [per_word] edges from bit 0. Codes
   are stored plus one, so a zero field is "none" for a pointer and the
   end of the list for edges. An index cell is a node id above its slot
   plus one ([node_bits] each), so a zero cell is empty. *)

let place_bits = 24
let max_node_bits = 31

let check_fits ~tree_nodes ~mesh_nodes =
  if mesh_nodes > 1 lsl place_bits then
    invalid_arg
      (Printf.sprintf
         "Node_table: %d mesh nodes exceed the %d-bit placement field (at most %d)"
         mesh_nodes place_bits (1 lsl place_bits));
  if tree_nodes >= 1 lsl max_node_bits then
    invalid_arg
      (Printf.sprintf
         "Node_table: %d tree nodes exceed the %d-bit node field (at most %d)"
         tree_nodes max_node_bits ((1 lsl max_node_bits) - 1))

(* A protocol message's header word, from bit 0 up: the kind
   ([kind_bits]), the sender as a neighbour code of the destination (as
   wide as a stored code), then the destination tree node and the origin
   (a node id each, as wide as the index's node field). It travels as a
   non-negative int, so it has at most [header_bits]. *)
let kind_bits = 4
let header_bits = 62

let rec width_for n b = if 1 lsl b > n then b else width_for n (b + 1)

let check_header ~tree_nodes ~max_children =
  let node_bits = (header_bits - kind_bits - width_for (max_children + 1) 1) / 2 in
  if tree_nodes >= 1 lsl node_bits then
    invalid_arg
      (Printf.sprintf
         "Node_table: %d tree nodes of up to %d children exceed the %d-bit message \
          header (at most %d)"
         tree_nodes max_children header_bits ((1 lsl node_bits) - 1))

type layout = {
  bits : int;  (* width of one stored code *)
  mask : int;
  toward_at : int;
  token_at : int;
  place_at : int;
  head : int;  (* bit offset of the first edge in word 0 *)
  first : int;  (* edges in word 0 *)
  per_word : int;  (* edges in each further edge word *)
  cap : int;  (* longest edge list: parent plus children *)
  edge_words : int;
  stride : int;
  node_bits : int;  (* width of a tree node id, and of a slot plus one *)
  node_mask : int;
  cell_mask : int;  (* one index cell: node, then slot plus one *)
  pair : int;  (* 1 if two cells share an index word, else 0 *)
}

let pending_bit = 1
let txn_bit = 2
let lock_bit = 4
let flags_width = 3

let layout ~tree_nodes ~max_children ~extra =
  let cap = max_children + 1 in
  let bits = width_for cap 1 in
  let head = flags_width + (2 * bits) + place_bits in
  if head > 62 then
    invalid_arg
      (Printf.sprintf "Node_table: %d children per node do not fit the packed pointers"
         max_children);
  let first = (63 - head) / bits and per_word = 63 / bits in
  let edge_words =
    if cap <= first then 1 else 1 + ((cap - first + per_word - 1) / per_word)
  in
  let node_bits = width_for tree_nodes 1 in
  { bits; mask = (1 lsl bits) - 1; toward_at = flags_width;
    token_at = flags_width + bits; place_at = flags_width + (2 * bits); head;
    first; per_word; cap; edge_words; stride = edge_words + extra; node_bits;
    node_mask = (1 lsl node_bits) - 1;
    cell_mask = (1 lsl (2 * node_bits)) - 1;
    pair = (if 4 * node_bits <= 63 then 1 else 0) }

let stride l = l.stride

type t = {
  layout : layout;
  mutable index : int array;  (* packed cells; 0 = empty *)
  mutable cells_log : int;  (* log2 of the cell count *)
  mutable words : int array;  (* [stride] words per slot *)
  mutable size : int;
}

let init_cells_log = 3
let init_slots = 4

let create layout =
  { layout; index = Array.make ((1 lsl init_cells_log) lsr layout.pair) 0;
    cells_log = init_cells_log; words = Array.make (init_slots * layout.stride) 0;
    size = 0 }

let length t = t.size

let get_cell l index i =
  (Array.unsafe_get index (i lsr l.pair) lsr ((i land l.pair) * 2 * l.node_bits))
  land l.cell_mask

let set_cell l index i v =
  let w = i lsr l.pair and at = (i land l.pair) * 2 * l.node_bits in
  index.(w) <- index.(w) land lnot (l.cell_mask lsl at) lor (v lsl at)

(* Fibonacci hashing: the top [log2 cells] bits of [k * golden] (2^64 /
   phi cut to its top 60 bits, an odd number) spread runs of small keys
   such as tree-node ids over the whole index. The index is never more
   than three quarters full, so a probe always ends. *)
let golden = 0x9E3779B97F4A7C1

let rec probe l index mask key i =
  let e = get_cell l index i in
  if e = 0 || e lsr l.node_bits = key then i
  else probe l index mask key ((i + 1) land mask)

let cell t key =
  probe t.layout t.index ((1 lsl t.cells_log) - 1) key
    ((key * golden) lsr (63 - t.cells_log))

let find t key =
  let l = t.layout in
  let e = get_cell l t.index (cell t key) in
  if e = 0 then -1 else (e land l.node_mask) - 1

let iter_cells f l index cells =
  for i = 0 to cells - 1 do
    let e = get_cell l index i in
    if e <> 0 then f e
  done

let grow_index t =
  let l = t.layout and old = t.index and cells = 1 lsl t.cells_log in
  t.cells_log <- t.cells_log + 1;
  t.index <- Array.make ((2 * cells) lsr l.pair) 0;
  iter_cells (fun e -> set_cell l t.index (cell t (e lsr l.node_bits)) e) l old cells

let add t key ~toward ~token ~place =
  let l = t.layout in
  if key < 0 || key lsr l.node_bits <> 0 then invalid_arg "Node_table.add: node out of range";
  if get_cell l t.index (cell t key) <> 0 then invalid_arg "Node_table.add: node present";
  let slot = t.size in
  if (slot + 1) * l.stride > Array.length t.words then begin
    let w = Array.make (2 * Array.length t.words) 0 in
    Array.blit t.words 0 w 0 (Array.length t.words);
    t.words <- w
  end;
  if 4 * (slot + 1) > 3 lsl t.cells_log then grow_index t;
  set_cell l t.index (cell t key) ((key lsl l.node_bits) lor (slot + 1));
  t.size <- slot + 1;
  t.words.(slot * l.stride) <-
    ((toward + 1) lsl l.toward_at) lor ((token + 1) lsl l.token_at)
    lor (place lsl l.place_at);
  slot

let iter f t =
  let l = t.layout in
  iter_cells
    (fun e -> f (e lsr l.node_bits) ((e land l.node_mask) - 1))
    l t.index (1 lsl t.cells_log)

let reset t =
  t.index <- Array.make ((1 lsl init_cells_log) lsr t.layout.pair) 0;
  t.cells_log <- init_cells_log;
  t.words <- Array.make (init_slots * t.layout.stride) 0;
  t.size <- 0

(* --- word 0 fields ---------------------------------------------------- *)

let word t slot = t.words.(slot * t.layout.stride)
let set_word t slot w = t.words.(slot * t.layout.stride) <- w

let get_field t slot at width_mask = (word t slot lsr at) land width_mask

let set_field t slot at width_mask v =
  set_word t slot
    (word t slot land lnot (width_mask lsl at) lor ((v land width_mask) lsl at))

let toward t slot = get_field t slot t.layout.toward_at t.layout.mask - 1
let set_toward t slot c = set_field t slot t.layout.toward_at t.layout.mask (c + 1)
let token t slot = get_field t slot t.layout.token_at t.layout.mask - 1
let set_token t slot c = set_field t slot t.layout.token_at t.layout.mask (c + 1)
let place_mask = (1 lsl place_bits) - 1
let place t slot = get_field t slot t.layout.place_at place_mask
let set_place t slot p = set_field t slot t.layout.place_at place_mask p

let flag t slot bit = word t slot land bit <> 0

let set_flag t slot bit on =
  let w = word t slot in
  set_word t slot (if on then w lor bit else w land lnot bit)

let pending t slot = flag t slot pending_bit
let set_pending t slot on = set_flag t slot pending_bit on
let has_txn t slot = flag t slot txn_bit
let set_has_txn t slot on = set_flag t slot txn_bit on
let has_lock t slot = flag t slot lock_bit
let set_has_lock t slot on = set_flag t slot lock_bit on

(* --- edges ------------------------------------------------------------ *)

(* Position [p] of the edge list, newest first: the stored code (0 past
   the end). *)
let get_pos t slot p =
  let l = t.layout in
  if p < l.first then (word t slot lsr (l.head + (p * l.bits))) land l.mask
  else
    let q = p - l.first in
    (t.words.((slot * l.stride) + 1 + (q / l.per_word))
     lsr ((q mod l.per_word) * l.bits))
    land l.mask

let set_pos t slot p v =
  let l = t.layout in
  let q = p - l.first in
  let i = if q < 0 then slot * l.stride else (slot * l.stride) + 1 + (q / l.per_word)
  and at = if q < 0 then l.head + (p * l.bits) else (q mod l.per_word) * l.bits in
  t.words.(i) <- t.words.(i) land lnot (l.mask lsl at) lor (v lsl at)

let rec count_from t slot p =
  if p < t.layout.cap && get_pos t slot p <> 0 then count_from t slot (p + 1) else p

let edge_count t slot = count_from t slot 0

let edge t slot i = get_pos t slot i - 1

let edges t slot =
  List.init (edge_count t slot) (fun i -> edge t slot i)

(* Where the stored code [v] sits in the list, or -1. *)
let rec position t slot v p =
  if p >= t.layout.cap then -1
  else
    let x = get_pos t slot p in
    if x = 0 then -1 else if x = v then p else position t slot v (p + 1)

let add_edge t slot c =
  if position t slot (c + 1) 0 < 0 then begin
    let n = edge_count t slot in
    for p = n downto 1 do
      set_pos t slot p (get_pos t slot (p - 1))
    done;
    set_pos t slot 0 (c + 1)
  end

let remove_edge t slot c =
  let p = position t slot (c + 1) 0 in
  if p >= 0 then begin
    let n = edge_count t slot in
    for q = p to n - 2 do
      set_pos t slot q (get_pos t slot (q + 1))
    done;
    set_pos t slot (n - 1) 0
  end

let clear_edges t slot =
  let l = t.layout in
  let base = slot * l.stride in
  t.words.(base) <- t.words.(base) land ((1 lsl l.head) - 1);
  for i = base + 1 to base + l.edge_words - 1 do
    t.words.(i) <- 0
  done

let keep_edge t slot c =
  clear_edges t slot;
  set_pos t slot 0 (c + 1)

(* --- extra words ------------------------------------------------------ *)

let extra t slot k = t.words.((slot * t.layout.stride) + t.layout.edge_words + k)

let set_extra t slot k v =
  t.words.((slot * t.layout.stride) + t.layout.edge_words + k) <- v

(* --- message header ---------------------------------------------------- *)

let header l ~kind ~from ~tnode ~origin =
  kind lor (from lsl kind_bits)
  lor (tnode lsl (kind_bits + l.bits))
  lor (origin lsl (kind_bits + l.bits + l.node_bits))

let header_kind h = h land ((1 lsl kind_bits) - 1)
let header_from l h = (h lsr kind_bits) land l.mask
let header_tnode l h = (h lsr (kind_bits + l.bits)) land l.node_mask
let header_origin l h = h lsr (kind_bits + l.bits + l.node_bits)
