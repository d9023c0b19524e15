(** Small numeric helpers shared by the harness and the tests. *)

val mean : float array -> float

val percent : float -> float -> float
(** [percent num den] is [100 * num / den] (0 if [den] = 0). *)

val ratio : float -> float -> float
(** [ratio num den] is [num / den] (0 if [den] = 0). *)

val percentile : float -> float array -> float
(** [percentile p a] is the nearest-rank [p]-th percentile of [a] for
    [p] in \[0, 100\], computed on a sorted copy ([a] is not modified):
    the smallest element of [a] that is >= [p]% of the sample. [p] is
    clamped to \[0, 100\]; [percentile 0.] is the minimum, [percentile 100.]
    the maximum, and the result on an empty array is 0. *)

val sorted : float array -> float array
(** A copy of the array in [Float.compare] order. *)

val sorted_percentile : float -> float array -> float
(** [sorted_percentile p s] is [percentile p a] for [s = sorted a],
    without the copy and sort: several ranks of one sample set cost one
    sort. *)

val is_power_of_two : int -> bool

val ilog2 : int -> int
(** [ilog2 n] for n >= 1 is the floor of log2 n. *)
