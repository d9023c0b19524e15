(* 4-ary min-heap over (priority, sequence number) pairs — the simulator's
   event queue. The sequence number breaks ties FIFO and makes the order
   total, hence deterministic: [pop] always returns the strict minimum of
   the lexicographic (prio, seq) order, so the pop sequence is independent
   of the heap's internal shape (arity, sift details, slot assignment).
   Callers may rely on bit-identical simulations across queue
   implementations.

   Layout: the heap proper is three parallel unboxed arrays — [prios] (a
   flat [float array]), [seqs] and [slots] (bare [int array]s) — so a sift
   step moves only scalars and never calls the write barrier. Values live
   apart in [values], indexed by slot: a value is written once when it is
   inserted and overwritten with [empty] once when it is popped, so a popped
   value can be collected. Moving values along the sift path instead costs
   a [caml_modify] per step, and since queued events are young blocks in an
   old array, most of those also add a remembered-set entry that the next
   minor GC must scan. The free slots are kept in [slots] past the heap,
   at positions [len .. cap - 1] (cap = the arrays' common length): a
   stack whose top is position [len], so a pop pushes its slot exactly
   where the heap shrank, an insert takes its slot from exactly where the
   heap grows, and a freed slot is reused first while it is still in
   cache.

   [values] is an [Obj.t array] rather than an ['a array] so that it can
   hold the [empty] filler: it is created from an immediate, so it is never
   a flat float array, and a float value is stored boxed, exactly as in any
   polymorphic container.

   The 4-ary shape halves the tree depth, cutting sift-up comparisons, and
   keeps the 4 children of node i adjacent (4i+1 .. 4i+4), so a sift-down
   level is one cache line of priorities. Every index the sift loops read
   or write is at most [len], below the arrays' common length, hence the
   unchecked accesses. *)

type 'a t = {
  mutable prios : float array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable values : Obj.t array;
  mutable len : int;
  mutable next_seq : int;
}

let empty = Obj.repr 0

let create () =
  {
    prios = [||];
    seqs = [||];
    slots = [||];
    values = [||];
    len = 0;
    next_seq = 0;
  }

let is_empty h = h.len = 0
let size h = h.len

(* Only called when full (len = cap): every old slot is in use, so the free
   stack is exactly the new slots, each stored at its own position. *)
let grow h =
  let cap = Array.length h.prios in
  let ncap = max 16 (2 * cap) in
  let extend a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  h.prios <- extend h.prios 0.0;
  h.seqs <- extend h.seqs 0;
  let slots = extend h.slots 0 in
  for k = cap to ncap - 1 do
    slots.(k) <- k
  done;
  h.slots <- slots;
  h.values <- extend h.values empty

let insert h prio value =
  let len = h.len in
  if len = Array.length h.prios then grow h;
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  let prios = h.prios and seqs = h.seqs and slots = h.slots in
  let slot = Array.unsafe_get slots len in
  Array.unsafe_set h.values slot (Obj.repr value);
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
      Array.unsafe_set seqs !i (Array.unsafe_get seqs p);
      Array.unsafe_set slots !i (Array.unsafe_get slots p);
      i := p
    end
    else continue := false
  done;
  Array.unsafe_set prios !i prio;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set slots !i slot

(* Sift the entry just past the end of a heap of [len] entries (the one
   the last pop vacated) down from the hole at the root; positions [len]
   and beyond are not written. The entry is read here rather than passed
   in, since a float argument would be boxed. *)
let sift_down h len =
  let prios = h.prios and seqs = h.seqs and slots = h.slots in
  let prio = Array.unsafe_get prios len
  and seq = Array.unsafe_get seqs len
  and slot = Array.unsafe_get slots len in
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
          || (cp = !sp && Array.unsafe_get seqs c < Array.unsafe_get seqs !s)
        then begin
          s := c;
          sp := cp
        end
      done;
      let s = !s and sp = !sp in
      if sp < prio || (sp = prio && Array.unsafe_get seqs s < seq) then begin
        Array.unsafe_set prios !i sp;
        Array.unsafe_set seqs !i (Array.unsafe_get seqs s);
        Array.unsafe_set slots !i (Array.unsafe_get slots s);
        i := s
      end
      else continue := false
    end
  done;
  Array.unsafe_set prios !i prio;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set slots !i slot

(* Non-allocating hot-path accessors: the Sim loop peeks the priority,
   then pops the value — no option, no tuple, no per-event garbage. *)

let min_priority_exn h =
  if h.len = 0 then invalid_arg "Event_queue.min_priority_exn: empty";
  Array.unsafe_get h.prios 0

let pop_exn h =
  if h.len = 0 then invalid_arg "Event_queue.pop_exn: empty";
  let slot = Array.unsafe_get h.slots 0 in
  let top = Array.unsafe_get h.values slot in
  Array.unsafe_set h.values slot empty;
  let last = h.len - 1 in
  h.len <- last;
  if last > 0 then sift_down h last;
  Array.unsafe_set h.slots last slot;
  Obj.obj top

let pop_min h =
  if h.len = 0 then None
  else
    let prio = h.prios.(0) in
    Some (prio, pop_exn h)

let min_priority h = if h.len = 0 then None else Some h.prios.(0)

(* Release every value, keeping the capacity. The released slots already
   sit below the free stack in [slots], so emptying the heap frees them. *)
let clear h =
  for i = 0 to h.len - 1 do
    h.values.(h.slots.(i)) <- empty
  done;
  h.len <- 0
