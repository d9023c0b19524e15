(** Deterministic fork/join over OCaml 5 domains.

    [map ~domains f xs] behaves exactly like [List.map f xs] — same
    results, same order — but deals the items of [xs] round-robin to up
    to [domains] domains (the calling domain counts as one), each of
    which maps its share in order. With [domains <= 1] it is literally
    [List.map]. If any [f x] raises, every domain is joined first and
    the earliest exception (by position in [xs]) is re-raised. Each
    spawned domain runs with the caller's minor heap size.

    [f] must be safe to run concurrently with itself on disjoint inputs:
    no shared mutable state, or only state guarded by the caller. The
    simulator's per-run state (networks, DSM instances, PRNG streams) is
    created inside each run, so whole-simulation runs qualify. *)

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
