module Network = Diva_simnet.Network
module Machine = Diva_simnet.Machine
module Deco = Diva_mesh.Decomposition
module Stats = Diva_util.Stats

type config = { keys : int; compute : bool }

type Network.payload += Keys of { step : int; data : int array }

type t = {
  net : Network.t;
  cfg : config;
  nwires : int;
  logp : int;
  wire_to_proc : int array;
  proc_to_wire : int array;
  initial : int array array;
  result : int array array;
}

let setup net cfg =
  let nwires = Network.num_nodes net in
  if not (Stats.is_power_of_two nwires) then
    invalid_arg "Bitonic_handopt.setup: number of processors must be a power of two";
  let logp = Stats.ilog2 nwires in
  let wire_to_proc = Deco.snake_order (Network.mesh net) in
  let proc_to_wire = Array.make nwires 0 in
  Array.iteri (fun w p -> proc_to_wire.(p) <- w) wire_to_proc;
  let initial = Bitonic.initial_keys ~nwires ~keys:cfg.keys in
  { net; cfg; nwires; logp; wire_to_proc; proc_to_wire; initial;
    result = Array.make nwires [||] }

let fiber t p =
  let net = t.net in
  let machine = Network.machine net in
  let w = t.proc_to_wire.(p) in
  let m = t.cfg.keys in
  let mine = ref (Array.copy t.initial.(w)) in
  Array.sort compare !mine;
  if t.cfg.compute then begin
    let ops = m * max 1 (Stats.ilog2 (max 2 m)) in
    Network.compute net p (float_of_int ops *. machine.Machine.int_op_time)
  end;
  let step = ref 0 in
  for i = 0 to t.logp - 1 do
    for j = i downto 0 do
      let partner = w lxor (1 lsl j) in
      let ascending = w land (1 lsl (i + 1)) = 0 in
      let keep_lower = if ascending then w < partner else w > partner in
      let s = !step in
      (* Tagged send/recv: the exchange step number keys the selective
         receive, so matching is an O(1) per-tag queue pop instead of a
         predicate scan of the inbox. *)
      Network.send net ~tag:s ~src:p ~dst:t.wire_to_proc.(partner)
        ~size:((m * 4) + 16)
        (Keys { step = s; data = !mine });
      let msg = Network.recv net p ~tag:s () in
      let theirs =
        match msg.Network.m_payload with
        | Keys { data; _ } -> data
        | _ -> assert false
      in
      mine := Bitonic.merge_split ~keep_lower !mine theirs;
      if t.cfg.compute then
        Network.compute net p (float_of_int (2 * m) *. machine.Machine.int_op_time);
      incr step
    done
  done;
  t.result.(w) <- !mine

let verify t =
  let all = Array.concat (Array.to_list t.result) in
  let sorted_input = Array.concat (Array.to_list t.initial) in
  Array.sort compare sorted_input;
  all = sorted_input
