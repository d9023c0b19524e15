(** Benchmark gate: the simulated bench matrix must reproduce a committed
    baseline byte for byte.

    The simulator is deterministic, so an unchanged tree renders the
    baseline exactly, and a moved number, however small and in either
    direction, moves the paper's figures: the change that moves it
    regenerates the baseline ([bench --only bench_json]) and shows the
    moved leaves in its description. *)

type baseline = {
  text : string;  (** the file's bytes *)
  doc : Diva_obs.Json.t;  (** their parse *)
}

val load : string -> (baseline, string) result
(** Read and parse a committed baseline; [Error] carries a one-line
    message (unreadable file or malformed JSON). *)

val check : baseline -> Diva_obs.Json.t -> string list
(** [[]] iff the document, written as {!Diva_obs.Json.to_file} writes it,
    is the baseline's bytes. Otherwise one line per difference, in
    document order: [path: baseline X, current Y] for a leaf (both values
    as rendered), and a line naming each key only one side has. *)
