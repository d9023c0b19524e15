(* The strategy registry: one table mapping canonical names to configured
   {!Strategy.spec}s, so divasim, bench, chaos, serve and analyze all
   resolve contenders uniformly — and so test harnesses (conformance,
   golden traces, CI smokes) can enumerate every contender by name. The
   table holds data only; [Dsm.create] builds the protocol a spec
   names. *)

(* 64 KiB per processor: small enough that the paper's applications
   actually pressure the eviction path, large enough that the protocol
   keeps working sets resident. *)
let default_capacity = 65536

(* Every contender in presentation order: its canonical name, [a-z_] and
   accepted by [--strategy], and its spec. *)
let table =
  [
    (* the paper's 4-ary access tree (FOCS'97), unbounded memory *)
    ("access_tree", Strategy.Access_tree Strategy.tree_defaults);
    (* CC-NUMA-style fixed random home with ownership *)
    ("fixed_home", Strategy.Fixed_home);
    (* frequency-adaptive replication with home migration (data grids) *)
    ("adaptive_repl", Strategy.Adaptive Strategy.adaptive_defaults);
    (* access tree under a 64 KiB/node memory bound, LRU eviction *)
    ( "capacity_lru",
      Strategy.Access_tree
        { Strategy.tree_defaults with capacity = Some default_capacity } );
    (* access tree under a 64 KiB/node memory bound, frequency eviction *)
    ( "capacity_freq",
      Strategy.Access_tree
        {
          Strategy.tree_defaults with
          capacity = Some default_capacity;
          eviction = Strategy.Freq;
        } );
  ]

let names () = List.map fst table

let zoo () =
  List.filter (fun n -> n <> "access_tree" && n <> "fixed_home") (names ())
let contenders () = table

let normalize s =
  String.map (function '-' -> '_' | c -> Char.lowercase_ascii c) s

let find name =
  let n =
    match normalize name with
    | "adaptive" | "adaptive_home" -> "adaptive_repl"
    | "fixedhome" | "home" -> "fixed_home"
    | n -> n
  in
  List.assoc_opt n table
