(** Small open-addressing hash table from non-negative [int] keys to
    values: linear probing over two flat arrays, no bucket cells, and no
    closure or option allocated per lookup. Meant for many small tables
    (one per variable in the access tree) whose lookups sit on a hot
    path. There is no single-key removal; {!reset} empties the table. *)

type 'a t

val create : dummy:'a -> int -> 'a t
(** [create ~dummy n] is an empty table sized for about [n] bindings
    (it grows as needed). [dummy] fills unused value slots; it is never
    returned. *)

val length : 'a t -> int

val add : 'a t -> int -> 'a -> unit
(** [add t k v] binds [k] to [v], replacing any previous binding of [k].
    Raises [Invalid_argument] if [k] is negative. *)

val find : 'a t -> int -> 'a
(** Raises [Not_found] if [k] is unbound. *)

val mem : 'a t -> int -> bool

val iter : (int -> 'a -> unit) -> 'a t -> unit
(** Visits every binding once, in slot order. The table must not be
    changed during the iteration. *)

val reset : 'a t -> unit
(** Removes every binding and shrinks the table to its initial size. *)
