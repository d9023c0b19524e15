(* 4-ary min-heap over (priority, sequence number) pairs — the simulator's
   event queue. The sequence number breaks ties FIFO and makes the order
   total, hence deterministic: [pop] always returns the strict minimum of
   the lexicographic (prio, seq) order, so the pop sequence is independent
   of the heap's internal shape (arity, sift details, slot assignment).
   Callers may rely on bit-identical simulations across queue
   implementations.

   Layout: four columns. The heap proper is two parallel unboxed arrays —
   [prios] (a flat [float array]) and [keys] (a bare [int array]) — so a
   sift step moves only scalars and never calls the write barrier. A key
   packs the entry's sequence number above its slot index
   ([seq lsl slot_bits lor slot]); sequence numbers are unique, so
   comparing two keys compares their sequence numbers, and one integer
   compare breaks a priority tie. An entry's two values live apart in
   [fsts] and [snds], indexed by slot: each is written once when the
   entry is inserted and overwritten with [empty] once when it is popped,
   so a popped value can be collected. Moving values along the sift path
   instead costs a [caml_modify] per step, and since queued events are
   young blocks in an old array, most of those also add a remembered-set
   entry that the next minor GC must scan. The free slots are kept in
   [keys] past the heap, as bare slot indices at positions
   [len .. cap - 1] (cap = the arrays' common length): a stack whose top
   is position [len], so a pop pushes its slot exactly where the heap
   shrank, an insert takes its slot from exactly where the heap grows,
   and a freed slot is reused first while it is still in cache.

   [fsts] and [snds] are [Obj.t array]s rather than typed arrays so that
   they can hold the [empty] filler: they are created from an immediate,
   so they are never flat float arrays, and a float value is stored boxed,
   exactly as in any polymorphic container. A one-value queue never
   writes [snds], which then holds only [empty] — the representation of
   [()], so its second value reads as the [unit] its type says.

   The 4-ary shape halves the tree depth, cutting sift-up comparisons, and
   keeps the 4 children of node i adjacent (4i+1 .. 4i+4), so a sift-down
   level is one cache line of priorities. Every index the sift loops read
   or write is at most [len], below the arrays' common length, hence the
   unchecked accesses. *)

type ('a, 'b) t2 = {
  mutable prios : float array;
  mutable keys : int array;
  mutable fsts : Obj.t array;
  mutable snds : Obj.t array;
  mutable len : int;
  mutable next_seq : int;
}

type 'a t = ('a, unit) t2

let empty = Obj.repr 0

(* Keys stay non-negative: the sequence number gets the bits above the
   slot index, up to the sign bit. *)
let slot_bits = 24
let slot_mask = (1 lsl slot_bits) - 1
let max_pending = 1 lsl slot_bits
let max_inserts = 1 lsl (Sys.int_size - 1 - slot_bits)

let check_fits ~pending ~inserts =
  if pending > max_pending then
    invalid_arg
      (Printf.sprintf
         "Event_queue: %d pending entries exceed the %d-bit slot field (at most %d)"
         pending slot_bits max_pending);
  if inserts > max_inserts then
    invalid_arg
      (Printf.sprintf
         "Event_queue: %d insertions exceed the %d-bit sequence field (at most %d)"
         inserts (Sys.int_size - 1 - slot_bits) max_inserts)

let create () =
  { prios = [||]; keys = [||]; fsts = [||]; snds = [||]; len = 0; next_seq = 0 }

let is_empty h = h.len = 0
let size h = h.len

(* Only called when full (len = cap): every old slot is in use, so the free
   stack is exactly the new slots, each stored at its own position. *)
let grow h =
  let cap = Array.length h.prios in
  let ncap = max 16 (2 * cap) in
  check_fits ~pending:ncap ~inserts:0;
  let extend a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  h.prios <- extend h.prios 0.0;
  let keys = extend h.keys 0 in
  for k = cap to ncap - 1 do
    keys.(k) <- k
  done;
  h.keys <- keys;
  h.fsts <- extend h.fsts empty;
  h.snds <- extend h.snds empty

(* Claim a slot and sift a new entry up from the hole at the end; returns
   the slot, for the caller to store the values in. *)
let push h prio =
  let len = h.len in
  if len = Array.length h.prios then grow h;
  let seq = h.next_seq in
  if seq >= max_inserts then check_fits ~pending:0 ~inserts:(seq + 1);
  h.next_seq <- seq + 1;
  let prios = h.prios and keys = h.keys in
  let slot = Array.unsafe_get keys len in
  let key = (seq lsl slot_bits) lor slot in
  h.len <- len + 1;
  (* Hole-based sift-up: find the insertion position first, write once.
     [seq] is larger than every queued sequence number, so a tie with the
     parent never moves the new entry up. *)
  let i = ref len in
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) lsr 2 in
    if prio < Array.unsafe_get prios p then begin
      Array.unsafe_set prios !i (Array.unsafe_get prios p);
      Array.unsafe_set keys !i (Array.unsafe_get keys p);
      i := p
    end
    else continue := false
  done;
  Array.unsafe_set prios !i prio;
  Array.unsafe_set keys !i key;
  slot

let insert h prio value =
  let slot = push h prio in
  Array.unsafe_set h.fsts slot (Obj.repr value)

let insert2 h prio a b =
  let slot = push h prio in
  Array.unsafe_set h.fsts slot (Obj.repr a);
  Array.unsafe_set h.snds slot (Obj.repr b)

(* Sift the entry just past the end of a heap of [len] entries (the one
   the last pop vacated) down from the hole at the root; positions [len]
   and beyond are not written. The entry is read here rather than passed
   in, since a float argument would be boxed. *)
let sift_down h len =
  let prios = h.prios and keys = h.keys in
  let prio = Array.unsafe_get prios len and key = Array.unsafe_get keys len in
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let c0 = (4 * !i) + 1 in
    if c0 >= len then continue := false
    else begin
      (* Smallest of the (up to) 4 adjacent children. *)
      let last = if c0 + 3 < len then c0 + 3 else len - 1 in
      let s = ref c0 in
      let sp = ref (Array.unsafe_get prios c0) in
      for c = c0 + 1 to last do
        let cp = Array.unsafe_get prios c in
        if
          cp < !sp
          || (cp = !sp && Array.unsafe_get keys c < Array.unsafe_get keys !s)
        then begin
          s := c;
          sp := cp
        end
      done;
      let s = !s and sp = !sp in
      if sp < prio || (sp = prio && Array.unsafe_get keys s < key) then begin
        Array.unsafe_set prios !i sp;
        Array.unsafe_set keys !i (Array.unsafe_get keys s);
        i := s
      end
      else continue := false
    end
  done;
  Array.unsafe_set prios !i prio;
  Array.unsafe_set keys !i key

(* Non-allocating hot-path accessors: the Sim loop peeks the priority
   and the argument, then pops the value — no option, no tuple, no
   per-event garbage. *)

let min_priority_exn h =
  if h.len = 0 then invalid_arg "Event_queue.min_priority_exn: empty";
  Array.unsafe_get h.prios 0

let min_snd_exn h =
  if h.len = 0 then invalid_arg "Event_queue.min_snd_exn: empty";
  Obj.obj (Array.unsafe_get h.snds (Array.unsafe_get h.keys 0 land slot_mask))

let pop_exn h =
  if h.len = 0 then invalid_arg "Event_queue.pop_exn: empty";
  let slot = Array.unsafe_get h.keys 0 land slot_mask in
  let top = Array.unsafe_get h.fsts slot in
  Array.unsafe_set h.fsts slot empty;
  (* A one-value queue's [snds] is all [empty]: skip the write barrier. *)
  if Array.unsafe_get h.snds slot != empty then Array.unsafe_set h.snds slot empty;
  let last = h.len - 1 in
  h.len <- last;
  if last > 0 then sift_down h last;
  Array.unsafe_set h.keys last slot;
  Obj.obj top

