(** The strategy registry.

    One table mapping canonical names to configured {!Strategy.spec}s, so
    every tool (divasim, bench, chaos, serve, analyze) and every test
    harness resolves contenders uniformly. Adding a strategy here
    automatically enrolls it in the qcheck conformance suite, the chaos
    oracle campaign, and the CI strategy-matrix smoke. *)

val names : unit -> string list
(** Every registered contender's canonical name ([a-z_], accepted by
    [--strategy]), in presentation order: [access_tree], [fixed_home],
    [adaptive_repl], [capacity_lru], [capacity_freq]. *)

val contenders : unit -> (string * Strategy.spec) list
(** {!names} with their specs. *)

val zoo : unit -> string list
(** {!names} without the paper's pair ([access_tree], [fixed_home]): the
    contenders that must earn their place in the shootout. *)

val find : string -> Strategy.spec option
(** Case-insensitive lookup; ['-'] and ['_'] are interchangeable, and the
    aliases [adaptive], [adaptive-home], [fixedhome], [home] resolve to
    their canonical entries. *)
