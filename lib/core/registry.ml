(* The strategy registry: one table mapping canonical names to configured
   {!Strategy.spec}s, so divasim, bench, chaos, serve and analyze all
   resolve contenders uniformly — and so test harnesses (conformance,
   golden traces, CI smokes) can enumerate every contender by name. The
   table holds data only; [Dsm.create] builds the protocol a spec
   names. *)

type entry = { name : string; spec : Strategy.spec; summary : string }

(* 64 KiB per processor: small enough that the paper's applications
   actually pressure the eviction path, large enough that the protocol
   keeps working sets resident. *)
let default_capacity = 65536

let entries =
  [
    {
      name = "access_tree";
      spec = Strategy.Access_tree Strategy.tree_defaults;
      summary = "the paper's 4-ary access tree (FOCS'97), unbounded memory";
    };
    {
      name = "fixed_home";
      spec = Strategy.Fixed_home;
      summary = "CC-NUMA-style fixed random home with ownership";
    };
    {
      name = "adaptive_repl";
      spec = Strategy.Adaptive Strategy.adaptive_defaults;
      summary =
        "frequency-adaptive replication with home migration (data grids)";
    };
    {
      name = "capacity_lru";
      spec =
        Strategy.Access_tree
          { Strategy.tree_defaults with capacity = Some default_capacity };
      summary = "access tree under a 64 KiB/node memory bound, LRU eviction";
    };
    {
      name = "capacity_freq";
      spec =
        Strategy.Access_tree
          {
            Strategy.tree_defaults with
            capacity = Some default_capacity;
            eviction = Strategy.Freq;
          };
      summary =
        "access tree under a 64 KiB/node memory bound, frequency eviction";
    };
  ]

let names () = List.map (fun e -> e.name) entries

let zoo () =
  List.filter (fun n -> n <> "access_tree" && n <> "fixed_home") (names ())
let contenders () = List.map (fun e -> (e.name, e.spec)) entries

let normalize s =
  String.map (function '-' -> '_' | c -> Char.lowercase_ascii c) s

let find name =
  let n =
    match normalize name with
    | "adaptive" | "adaptive_home" -> "adaptive_repl"
    | "fixedhome" | "home" -> "fixed_home"
    | n -> n
  in
  Option.map (fun e -> e.spec) (List.find_opt (fun e -> e.name = n) entries)
