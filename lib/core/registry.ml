(* The strategy registry: one table mapping canonical names to configured
   {!Strategy.spec}s, so divasim, bench, chaos, serve and analyze all
   resolve contenders uniformly — and so test harnesses (conformance,
   golden traces, CI smokes) can enumerate every contender without
   knowing any of them. *)

module Deco = Diva_mesh.Decomposition
module Network = Diva_simnet.Network

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

type resolved = {
  inst : Strategy.instance;
  sync_deco : Deco.t;
  tree : Access_tree.t option;
      (* kept unpacked for the tree-specific observability hooks *)
}

let default_deco net = Deco.build (Network.mesh net) ~arity:Deco.Four ~leaf_size:1

let instantiate net (spec : Strategy.spec) =
  match spec with
  | Strategy.Access_tree c ->
      let at = Access_tree.Impl.create net c in
      {
        inst = Strategy.Instance ((module Access_tree.Impl), at);
        sync_deco = Access_tree.deco at;
        tree = Some at;
      }
  | Strategy.Fixed_home | Strategy.Adaptive _ ->
      let c = match spec with Strategy.Adaptive c -> c | _ -> Home.fixed in
      let h = Home.Impl.create net c in
      {
        inst = Strategy.Instance ((module Home.Impl), h);
        sync_deco = default_deco net;
        tree = None;
      }
