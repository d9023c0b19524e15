(** The strategy registry.

    One table mapping canonical names to configured {!Strategy.spec}s, so
    every tool (divasim, bench, chaos, serve, analyze) and every test
    harness resolves contenders uniformly. Adding a strategy here
    automatically enrolls it in the qcheck conformance suite, the chaos
    oracle campaign, and the CI strategy-matrix smoke. *)

type entry = {
  name : string;  (** canonical name, [a-z_] — accepted by [--strategy] *)
  spec : Strategy.spec;
  summary : string;  (** one line for [--help] and docs *)
}

val default_capacity : int
(** Per-processor memory bound (bytes) of the capacity contenders. *)

val entries : entry list
(** Every registered contender, in presentation order: [access_tree],
    [fixed_home], [adaptive_repl], [capacity_lru], [capacity_freq]. *)

val names : unit -> string list
val contenders : unit -> (string * Strategy.spec) list

val zoo : unit -> string list
(** {!names} without the paper's pair ([access_tree], [fixed_home]): the
    contenders that must earn their place in the shootout. *)

val find : string -> Strategy.spec option
(** Case-insensitive lookup; ['-'] and ['_'] are interchangeable, and the
    aliases [adaptive], [adaptive-home], [fixedhome], [home] resolve to
    their canonical entries. *)

type resolved = {
  inst : Strategy.instance;
  sync_deco : Diva_mesh.Decomposition.t;
      (** the tree barriers/reductions run on *)
  tree : Access_tree.t option;
      (** unpacked handle for tree-specific observability hooks *)
}

val instantiate : Diva_simnet.Network.t -> Strategy.spec -> resolved
(** Build the strategy's protocol state. Draws from the network RNG
    exactly as the pre-registry code did, so seeded runs stay
    bit-identical. *)
