(** Per-directed-link traffic counters. The paper's central metric is the
    congestion: the maximum amount of data (or number of messages)
    transmitted by the same link during an execution. Snapshots allow
    per-phase measurements (used for the Barnes-Hut phase breakdowns). *)

type t

val create : num_links:int -> t

val record : t -> link:int -> bytes:int -> unit
(** Account one message of [bytes] crossing [link]. *)

type snapshot

val snapshot : t -> snapshot

val diff : base:snapshot -> snapshot -> snapshot
(** Per-link difference (traffic of the interval between two snapshots). *)

val add : snapshot -> snapshot -> snapshot
(** Per-link sum (accumulate the same phase across several steps). *)

val zero : snapshot -> snapshot
(** An all-zero snapshot of the same shape. *)

val snap_congestion_msgs : snapshot -> int
val snap_congestion_bytes : snapshot -> int
val snap_total_msgs : snapshot -> int
val snap_total_bytes : snapshot -> int

val congestion_msgs : t -> int
(** Maximum number of messages across any directed link. The counters
    cover the whole run; {!diff} of two snapshots gives an interval's. *)

val congestion_bytes : t -> int
(** Maximum number of bytes across any directed link. *)

val total_msgs : t -> int
(** Total communication load in messages (sum over links of link-message
    counts, i.e. messages weighted by path length). *)

val total_bytes : t -> int

val per_link_bytes : t -> int array
