type dsm_op = Read | Write | Lock | Unlock | Barrier | Reduce

type drop_reason = Invalidated | Evicted

type loss_reason = Loss_random | Loss_link_down | Loss_crashed

type event =
  | Msg_send of {
      ts : float;
      id : int;
      parent : int;
      txn : int;
      inject : float;
      level : int;
      src : int;
      dst : int;
      size : int;
      local : bool;
    }
  | Msg_deliver of {
      ts : float;
      id : int;
      txn : int;
      handled : float;
      src : int;
      dst : int;
      size : int;
    }
  | Link_xfer of {
      start : float;
      finish : float;
      link : int;
      msg : int;
      txn : int;
      level : int;
      src : int;
      dst : int;
      size : int;
    }
  | Var_decl of {
      ts : float;
      var : int;
      var_name : string;
      size : int;
      owner : int;
    }
  | Dsm_access of {
      ts : float;
      dur : float;
      node : int;
      var : int;
      var_name : string;
      op : dsm_op;
      size : int;
      hit : bool;
      txn : int;
      completed_by : int;
    }
  | Copy_add of {
      ts : float;
      node : int;
      var : int;
      var_name : string;
      tnode : int;
      level : int;
    }
  | Copy_drop of {
      ts : float;
      node : int;
      var : int;
      var_name : string;
      tnode : int;
      level : int;
      reason : drop_reason;
    }
  | Remap of {
      ts : float;
      var : int;
      var_name : string;
      tnode : int;
      level : int;
      from_node : int;
      to_node : int;
    }
  | Msg_lost of {
      ts : float;
      msg : int;
      txn : int;
      src : int;
      dst : int;
      size : int;
      reason : loss_reason;
    }
  | Msg_retry of {
      ts : float;
      msg : int;
      txn : int;
      src : int;
      dst : int;
      size : int;
      attempt : int;
    }

let timestamp = function
  | Msg_send { ts; _ } -> ts
  | Msg_deliver { ts; _ } -> ts
  | Link_xfer { start; _ } -> start
  | Var_decl { ts; _ } -> ts
  | Dsm_access { ts; _ } -> ts
  | Copy_add { ts; _ } -> ts
  | Copy_drop { ts; _ } -> ts
  | Remap { ts; _ } -> ts
  | Msg_lost { ts; _ } -> ts
  | Msg_retry { ts; _ } -> ts

type sink = {
  on : bool;
  buffer : bool;
  mutable rev_events : event list;
  mutable n : int;
  on_event : (event -> unit) option;
}

let null = { on = false; buffer = false; rev_events = []; n = 0; on_event = None }
let create () = { on = true; buffer = true; rev_events = []; n = 0; on_event = None }

let stream f =
  { on = true; buffer = false; rev_events = []; n = 0; on_event = Some f }

let tee f =
  { on = true; buffer = true; rev_events = []; n = 0; on_event = Some f }

let enabled s = s.on

let emit s e =
  if s.on then begin
    if s.buffer then s.rev_events <- e :: s.rev_events;
    s.n <- s.n + 1;
    match s.on_event with Some f -> f e | None -> ()
  end

let count s = s.n
let events s = List.rev s.rev_events

(* A sink equal to [s] except that [f] also sees every event. Forcing [on]
   makes wrapping [null] yield a listener-only sink: emission turns on, but
   emission only constructs values — it never feeds back into the
   simulation (the flight recorder's armed-vs-disarmed identity test pins
   this down). The result is a fresh record; callers replace [s] with it
   wholesale, so the original's buffer is never read. *)
let with_listener s f =
  let on_event =
    match s.on_event with
    | Some g when s.on -> Some (fun e -> f e; g e)
    | _ -> Some f
  in
  { on = true; buffer = s.on && s.buffer; rev_events = []; n = 0; on_event }

(* ------------------------------------------------------------------ *)
(* JSONL event codec (writer half; the reader lives in Streaming)      *)
(* ------------------------------------------------------------------ *)

let op_code = function
  | Read -> "r"
  | Write -> "w"
  | Lock -> "l"
  | Unlock -> "u"
  | Barrier -> "b"
  | Reduce -> "x"

let op_of_code = function
  | "r" -> Some Read
  | "w" -> Some Write
  | "l" -> Some Lock
  | "u" -> Some Unlock
  | "b" -> Some Barrier
  | "x" -> Some Reduce
  | _ -> None

let drop_code = function Invalidated -> "inv" | Evicted -> "evict"

let drop_of_code = function
  | "inv" -> Some Invalidated
  | "evict" -> Some Evicted
  | _ -> None

let loss_code = function
  | Loss_random -> "rand"
  | Loss_link_down -> "down"
  | Loss_crashed -> "crash"

let loss_of_code = function
  | "rand" -> Some Loss_random
  | "down" -> Some Loss_link_down
  | "crash" -> Some Loss_crashed
  | _ -> None

(* Each member is a literal prefix — separator, quoted key, colon — then
   the value. Compact keys keep big traces small; the ["e"] tag
   discriminates. The field order is fixed so the writer is byte-stable
   (committed golden traces guard it). *)
let int b key v =
  Buffer.add_string b key;
  Json.add_int b v

let flt b key v =
  Buffer.add_string b key;
  Json.add_float b v

let str b key v =
  Buffer.add_string b key;
  Json.add_quoted b v

let boo b key v =
  Buffer.add_string b key;
  Buffer.add_string b (if v then "true" else "false")

let add_event b e =
  (match e with
  | Msg_send { ts; id; parent; txn; inject; level; src; dst; size; local } ->
      flt b {|{"e":"send","ts":|} ts;
      int b {|,"id":|} id;
      int b {|,"par":|} parent;
      int b {|,"txn":|} txn;
      flt b {|,"inj":|} inject;
      int b {|,"lv":|} level;
      int b {|,"src":|} src;
      int b {|,"dst":|} dst;
      int b {|,"sz":|} size;
      boo b {|,"loc":|} local
  | Msg_deliver { ts; id; txn; handled; src; dst; size } ->
      flt b {|{"e":"dlv","ts":|} ts;
      int b {|,"id":|} id;
      int b {|,"txn":|} txn;
      flt b {|,"h":|} handled;
      int b {|,"src":|} src;
      int b {|,"dst":|} dst;
      int b {|,"sz":|} size
  | Link_xfer { start; finish; link; msg; txn; level; src; dst; size } ->
      flt b {|{"e":"xfer","s":|} start;
      flt b {|,"f":|} finish;
      int b {|,"lk":|} link;
      int b {|,"msg":|} msg;
      int b {|,"txn":|} txn;
      int b {|,"lv":|} level;
      int b {|,"src":|} src;
      int b {|,"dst":|} dst;
      int b {|,"sz":|} size
  | Var_decl { ts; var; var_name; size; owner } ->
      flt b {|{"e":"var","ts":|} ts;
      int b {|,"v":|} var;
      str b {|,"name":|} var_name;
      int b {|,"sz":|} size;
      int b {|,"own":|} owner
  | Dsm_access { ts; dur; node; var; var_name; op; size; hit; txn;
                 completed_by } ->
      flt b {|{"e":"dsm","ts":|} ts;
      flt b {|,"dur":|} dur;
      int b {|,"n":|} node;
      int b {|,"v":|} var;
      str b {|,"name":|} var_name;
      str b {|,"op":|} (op_code op);
      int b {|,"sz":|} size;
      boo b {|,"hit":|} hit;
      int b {|,"txn":|} txn;
      int b {|,"cb":|} completed_by
  | Copy_add { ts; node; var; var_name; tnode; level } ->
      flt b {|{"e":"cadd","ts":|} ts;
      int b {|,"n":|} node;
      int b {|,"v":|} var;
      str b {|,"name":|} var_name;
      int b {|,"tn":|} tnode;
      int b {|,"lv":|} level
  | Copy_drop { ts; node; var; var_name; tnode; level; reason } ->
      flt b {|{"e":"cdrop","ts":|} ts;
      int b {|,"n":|} node;
      int b {|,"v":|} var;
      str b {|,"name":|} var_name;
      int b {|,"tn":|} tnode;
      int b {|,"lv":|} level;
      str b {|,"why":|} (drop_code reason)
  | Remap { ts; var; var_name; tnode; level; from_node; to_node } ->
      flt b {|{"e":"remap","ts":|} ts;
      int b {|,"v":|} var;
      str b {|,"name":|} var_name;
      int b {|,"tn":|} tnode;
      int b {|,"lv":|} level;
      int b {|,"from":|} from_node;
      int b {|,"to":|} to_node
  | Msg_lost { ts; msg; txn; src; dst; size; reason } ->
      flt b {|{"e":"lost","ts":|} ts;
      int b {|,"msg":|} msg;
      int b {|,"txn":|} txn;
      int b {|,"src":|} src;
      int b {|,"dst":|} dst;
      int b {|,"sz":|} size;
      str b {|,"why":|} (loss_code reason)
  | Msg_retry { ts; msg; txn; src; dst; size; attempt } ->
      flt b {|{"e":"retry","ts":|} ts;
      int b {|,"msg":|} msg;
      int b {|,"txn":|} txn;
      int b {|,"src":|} src;
      int b {|,"dst":|} dst;
      int b {|,"sz":|} size;
      int b {|,"att":|} attempt);
  Buffer.add_char b '}'

(* The buffer belongs to the partial application [write_event oc]: a sink
   built from it reuses one buffer for every line, and sinks on different
   domains never share one. *)
let write_event oc =
  let b = Buffer.create 256 in
  fun e ->
    Buffer.clear b;
    add_event b e;
    Buffer.add_char b '\n';
    Buffer.output_buffer oc b
