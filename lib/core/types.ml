(* Internal shared types of the data-management layer. *)

type proc = int

(* Per-variable protocol state a strategy hangs off the variable itself,
   so its hot paths reach it without a table lookup. Each strategy adds
   its own constructor; a variable belongs to the one strategy instance
   of the [Dsm] that created it. A slot is a network payload, so a
   strategy's messages can carry the variable's slot itself. *)
type slot = Diva_simnet.Network.payload = ..
type slot += No_slot

type var = {
  id : int;
  name : string;
  data_size : int;  (* bytes of the variable's contents *)
  owner : proc;  (* processor holding the initial (only) copy *)
  seed : int64;  (* determines the variable's random placements *)
  mutable value : Value.t;  (* current globally-consistent contents *)
  mutable slot : slot;  (* strategy state, [No_slot] until first use *)
}

(* Message header accounting: every protocol message carries a few words of
   type/variable/tree-node identification. Control messages are just the
   header; data messages add the variable contents. *)
let control_size = 16

let data_size var = var.data_size + control_size
