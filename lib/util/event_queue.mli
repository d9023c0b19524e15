(** Min-priority queue with [float] priorities, used as the simulator's event
    queue. Implemented as a 4-ary min-heap over two parallel unboxed
    arrays (priorities, and keys packing a tie-break sequence number above
    a slot index); each entry's values sit in a slot of their own from
    insertion until they are popped, so sifting never moves a value and
    neither insertion nor removal allocates. A popped value is
    no longer referenced by the queue. Insertion order among equal
    priorities is preserved (FIFO): the pop sequence is the lexicographic
    (priority, insertion index) order — a total order — which makes
    simulation runs deterministic and independent of the heap's internal
    shape. Priorities must not be NaN, which would break that order.

    An entry carries two values ({!t2}); the one-value queue {!t} is the
    common case whose second value is always [()]. *)

type ('a, 'b) t2
(** A queue whose entries carry a first value of type ['a] and a second
    of type ['b]. *)

type 'a t = ('a, unit) t2

val create : unit -> ('a, 'b) t2
val is_empty : ('a, 'b) t2 -> bool
val size : ('a, 'b) t2 -> int

val insert : 'a t -> float -> 'a -> unit
(** [insert h prio x] adds [x] with priority [prio]. Does not allocate
    (outside of capacity doubling). *)

val insert2 : ('a, 'b) t2 -> float -> 'a -> 'b -> unit
(** [insert2 h prio x y] adds the entry [(x, y)] with priority [prio]. Does
    not allocate (outside of capacity doubling). *)

val min_priority_exn : ('a, 'b) t2 -> float
(** The minimum priority without removing it; raises [Invalid_argument]
    when empty. *)

val min_snd_exn : ('a, 'b) t2 -> 'b
(** The minimum entry's second value, without removing it. Raises
    [Invalid_argument] when empty. *)

val pop_exn : ('a, 'b) t2 -> 'a
(** Removes the minimum entry and returns its first value without
    allocating. Pair with {!min_priority_exn} and {!min_snd_exn} to read
    the rest of the entry first. Raises [Invalid_argument] when empty. *)

val check_fits : pending:int -> inserts:int -> unit
(** Raise [Invalid_argument], naming the limit, if [pending] entries
    exceed the key's slot field (2{^24}) or [inserts] insertions over the
    queue's life exceed its sequence field (2{^38} with 63-bit ints). The
    queue makes this check as it grows and as its sequence numbers
    advance. Test-only: no test-sized run reaches either limit. *)
