(** Min-priority queue with [float] priorities, used as the simulator's event
    queue. Implemented as a 4-ary min-heap over three parallel unboxed
    arrays (priorities, tie-break sequence numbers, slot indices); each
    value sits in a slot of its own from insertion until it is popped, so
    sifting never moves a value and neither insertion nor removal
    allocates. A popped or cleared value is no longer referenced by the
    queue. Insertion order among equal priorities is preserved (FIFO): the
    pop sequence is the lexicographic (priority, insertion index) order — a
    total order — which makes simulation runs deterministic and independent
    of the heap's internal shape. Priorities must not be NaN, which would
    break that order. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int

val insert : 'a t -> float -> 'a -> unit
(** [insert h prio x] adds [x] with priority [prio]. Does not allocate
    (outside of capacity doubling). *)

val pop_min : 'a t -> (float * 'a) option
(** Removes and returns the minimum-priority element; FIFO among ties. *)

val min_priority : 'a t -> float option

val min_priority_exn : 'a t -> float
(** The minimum priority without removing it. Non-allocating hot-path
    variant of {!min_priority}; raises [Invalid_argument] when empty. *)

val pop_exn : 'a t -> 'a
(** Removes and returns the minimum element's value without allocating.
    Pair with {!min_priority_exn} to read its priority first. Raises
    [Invalid_argument] when empty. *)

val clear : 'a t -> unit
(** Empty the queue, keeping its capacity. Sequence numbers keep
    advancing, so FIFO tie-break order spans a clear. *)
