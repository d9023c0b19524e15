(** Minimal JSON documents: builder, writer and a reader for what the
    writer emits.

    The observability artifacts — Chrome traces, run manifests, benchmark
    snapshots, event traces — are plain JSON files; this module avoids a
    dependency on an external JSON library. Non-finite floats serialise as
    [null] so the output is always standard-compliant. Integers and
    integral floats below 1e15 print through a digit loop and escape-free
    strings are copied whole, because event traces write hundreds of
    thousands of lines. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering. *)

val to_buffer : Buffer.t -> t -> unit

val to_file : string -> t -> unit
(** Write the document followed by a trailing newline. *)

val of_string : string -> (t, string) result
(** Parse one JSON document (the whole string). Numbers without a
    fractional part parse as [Int], everything else as [Float]; [\u]
    escapes decode to UTF-8. Intended for reading back the artifacts this
    module writes (e.g. workload trace files), not as a general-purpose
    JSON parser. *)

(** {2 Accessors} (total: [None] on a type mismatch) *)

val member : string -> t -> t option
(** Object field lookup; [None] on missing keys and non-objects. *)

val to_int : t -> int option
(** Also accepts integral floats (the writer prints [2.0] as [2]), but
    [None] for floats outside [[min_int, max_int]] such as [1e300]. *)

val to_float : t -> float option
(** Accepts [Int] too. *)

val to_str : t -> string option
val to_bool : t -> bool option
