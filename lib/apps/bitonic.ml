module Dsm = Diva_core.Dsm
module Network = Diva_simnet.Network
module Machine = Diva_simnet.Machine
module Deco = Diva_mesh.Decomposition
module Prng = Diva_util.Prng
module Stats = Diva_util.Stats

type config = { keys : int; compute : bool }

type t = {
  dsm : Dsm.t;
  cfg : config;
  nwires : int;
  logp : int;
  wire_to_proc : int array;  (* snake order *)
  proc_to_wire : int array;
  vars : int array Dsm.var array;  (* indexed by wire *)
}

(* The input keys, one block per wire: one fixed-seed stream, so [verify]
   regenerates what [setup] handed to the variables instead of keeping a
   second copy for the whole run. *)
let initial_keys ~nwires ~keys =
  let rng = Prng.create ~seed:5099 in
  Array.init nwires (fun _ -> Array.init keys (fun _ -> Prng.int rng 1_000_000))

let setup dsm cfg =
  let net = Dsm.net dsm in
  let nwires = Network.num_nodes net in
  if not (Stats.is_power_of_two nwires) then
    invalid_arg "Bitonic.setup: number of processors must be a power of two";
  let logp = Stats.ilog2 nwires in
  let wire_to_proc = Deco.snake_order (Network.mesh net) in
  let proc_to_wire = Array.make nwires 0 in
  Array.iteri (fun w p -> proc_to_wire.(p) <- w) wire_to_proc;
  let initial = initial_keys ~nwires ~keys:cfg.keys in
  let vars =
    Array.init nwires (fun w ->
        Dsm.create_var dsm
          ~name:(Printf.sprintf "K[%d]" w)
          ~owner:wire_to_proc.(w) ~size:(cfg.keys * 4)
          initial.(w))
  in
  { dsm; cfg; nwires; logp; wire_to_proc; proc_to_wire; vars }

let steps t = t.logp * (t.logp + 1) / 2

(* Merge two sorted blocks and keep the lower or upper half. *)
let merge_split ~keep_lower a b =
  let m = Array.length a in
  let out = Array.make m 0 in
  if keep_lower then begin
    let ia = ref 0 and ib = ref 0 in
    for o = 0 to m - 1 do
      if !ib >= m || (!ia < m && a.(!ia) <= b.(!ib)) then begin
        out.(o) <- a.(!ia);
        incr ia
      end
      else begin
        out.(o) <- b.(!ib);
        incr ib
      end
    done
  end
  else begin
    let ia = ref (m - 1) and ib = ref (m - 1) in
    for o = m - 1 downto 0 do
      if !ib < 0 || (!ia >= 0 && a.(!ia) > b.(!ib)) then begin
        out.(o) <- a.(!ia);
        decr ia
      end
      else begin
        out.(o) <- b.(!ib);
        decr ib
      end
    done
  end;
  out

let fiber t p =
  let dsm = t.dsm in
  let net = Dsm.net dsm in
  let machine = Network.machine net in
  let w = t.proc_to_wire.(p) in
  let m = t.cfg.keys in
  (* Initial local sort. *)
  let mine = ref (Dsm.read dsm p t.vars.(w)) in
  let sorted = Array.copy !mine in
  Array.sort compare sorted;
  mine := sorted;
  if t.cfg.compute then begin
    let ops = m * max 1 (Stats.ilog2 (max 2 m)) in
    Network.charge net p (float_of_int ops *. machine.Machine.int_op_time)
  end;
  Dsm.write dsm p t.vars.(w) !mine;
  Dsm.barrier dsm p;
  (* log P phases; phase i has i+1 merge&split steps. *)
  for i = 0 to t.logp - 1 do
    for j = i downto 0 do
      let partner = w lxor (1 lsl j) in
      let ascending = w land (1 lsl (i + 1)) = 0 || i = t.logp - 1 in
      let keep_lower = if ascending then w < partner else w > partner in
      let theirs = Dsm.read dsm p t.vars.(partner) in
      let merged = merge_split ~keep_lower !mine theirs in
      if t.cfg.compute then
        Network.charge net p
          (float_of_int (2 * m) *. machine.Machine.int_op_time);
      Dsm.barrier dsm p;
      mine := merged;
      Dsm.write dsm p t.vars.(w) merged;
      Dsm.barrier dsm p
    done
  done

let verify t =
  let all = Array.concat (Array.to_list (Array.map (fun v -> Dsm.peek v) t.vars)) in
  let sorted_input =
    Array.concat
      (Array.to_list (initial_keys ~nwires:t.nwires ~keys:t.cfg.keys))
  in
  Array.sort compare sorted_input;
  (* Per-wire blocks are sorted and globally ordered. *)
  let ok = ref (all = sorted_input) in
  for w = 0 to t.nwires - 2 do
    let a = Dsm.peek t.vars.(w) and b = Dsm.peek t.vars.(w + 1) in
    let m = Array.length a in
    if m > 0 && a.(m - 1) > b.(0) then ok := false
  done;
  !ok
