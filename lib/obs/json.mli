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

(** {2 Value writers}

    The pieces {!to_buffer} is made of, for encoders that write a known
    shape straight into a buffer without building a {!t}. *)

val add_int : Buffer.t -> int -> unit

val add_float : Buffer.t -> float -> unit
(** Integral floats below 1e15 print as integers (-0.0 as [0]),
    non-finite ones as [null], the rest with the shortest of [%.15g],
    [%.16g], [%.17g] that reads back to the same double. *)

val add_quoted : Buffer.t -> string -> unit
(** A string literal: quotes, and escapes where needed. *)

val of_string : string -> (t, string) result
(** Parse one JSON document (the whole string). Numbers without a
    fractional part parse as [Int], everything else as [Float]; [\u]
    escapes decode to UTF-8. Intended for reading back the artifacts this
    module writes (e.g. workload trace files), not as a general-purpose
    JSON parser. *)

(** {2 Reading without a tree}

    For a decoder that knows the shape it reads: {!members} walks one
    document with the grammar of {!of_string}, handing the members of a
    top-level object to a callback that consumes each value with {!scan}.
    A scanned scalar is left in the cursor; nothing else is built. *)

type cursor

type kind = K_null | K_bool | K_int | K_float | K_string | K_list | K_obj

val members :
  string -> 'a -> ('a -> cursor -> string -> int -> int -> unit) ->
  (unit, string) result
(** [members s st f] checks that [s] is one JSON document, accepting and
    rejecting exactly what {!of_string} does, with the same error
    messages. If the document is an object, [f st c name off len] is called
    for each member in order: the member name is
    [name.[off .. off+len-1]] (a slice of [s] itself unless the name has
    escapes, so matching it copies nothing), and [c] is at the member's
    value, which [f] must consume with one {!scan}. Any other document
    has no members. Parse errors raised by [scan] inside [f] become the
    [Error]. *)

val scan : cursor -> kind
(** Consume one value. [K_int] is an integer literal (what {!of_string}
    reads as [Int]), its value in {!int_value}; [K_float] any other
    number, in {!float_value}; [K_bool] leaves 1 or 0 in {!int_value};
    [K_string] leaves the decoded string in {!string_value}. Lists and
    objects are checked and skipped. *)

val int_value : cursor -> int
val float_value : cursor -> float
val string_value : cursor -> string

val fits_int : float -> bool
(** An integral float inside [[min_int, max_int]]: the floats {!to_int}
    accepts. *)

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
