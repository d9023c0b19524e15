(* The reference event-line decoder, on the tree path: [Json.of_string]
   builds the line's document, its members are filed into one slot per
   known name (the first of duplicate names wins, as with [Json.member])
   and the fields are read back through [Json.to_int], [to_float],
   [to_str] and [to_bool]. Tests hold [Streaming.event_of_line] to it on
   every input: the same event, or an error where it errs. *)

module Json = Diva_obs.Json
module Trace = Diva_obs.Trace

(* Slot of every member name an event line can carry; [-1] for the rest. *)
let event_slot = function
  | "e" -> 0 | "ts" -> 1 | "id" -> 2 | "par" -> 3 | "txn" -> 4 | "inj" -> 5
  | "lv" -> 6 | "src" -> 7 | "dst" -> 8 | "sz" -> 9 | "loc" -> 10 | "h" -> 11
  | "s" -> 12 | "f" -> 13 | "lk" -> 14 | "msg" -> 15 | "v" -> 16
  | "name" -> 17 | "own" -> 18 | "dur" -> 19 | "n" -> 20 | "op" -> 21
  | "hit" -> 22 | "cb" -> 23 | "tn" -> 24 | "why" -> 25 | "from" -> 26
  | "to" -> 27 | "att" -> 28
  | _ -> -1

exception Bad_event of string

let bad_event fmt = Printf.ksprintf (fun msg -> raise (Bad_event msg)) fmt

(* One pass over the line's members files each known one into its slot;
   the first occurrence wins, as with [Json.member]. *)
let rec fill_slots slots seen = function
  | [] -> ()
  | (k, v) :: kvs ->
      let i = event_slot k in
      if i >= 0 && seen land (1 lsl i) = 0 then begin
        slots.(i) <- v;
        fill_slots slots (seen lor (1 lsl i)) kvs
      end
      else fill_slots slots seen kvs

let slot conv slots key =
  match conv slots.(event_slot key) with
  | Some v -> v
  | None -> bad_event "event: missing or malformed %S field" key

let int = slot Json.to_int
let flt = slot Json.to_float
let str = slot Json.to_str
let boo = slot Json.to_bool

(* The decoders read slots in the order they always checked fields, so the
   first missing or malformed one is the one reported. *)
let decode_event sl =
  match str sl "e" with
  | "send" ->
      let ts = flt sl "ts" in
      let id = int sl "id" in
      let parent = int sl "par" in
      let txn = int sl "txn" in
      let inject = flt sl "inj" in
      let level = int sl "lv" in
      let src = int sl "src" in
      let dst = int sl "dst" in
      let size = int sl "sz" in
      let local = boo sl "loc" in
      Trace.Msg_send { ts; id; parent; txn; inject; level; src; dst; size; local }
  | "dlv" ->
      let ts = flt sl "ts" in
      let id = int sl "id" in
      let txn = int sl "txn" in
      let handled = flt sl "h" in
      let src = int sl "src" in
      let dst = int sl "dst" in
      let size = int sl "sz" in
      Trace.Msg_deliver { ts; id; txn; handled; src; dst; size }
  | "xfer" ->
      let start = flt sl "s" in
      let finish = flt sl "f" in
      let link = int sl "lk" in
      let msg = int sl "msg" in
      let txn = int sl "txn" in
      let level = int sl "lv" in
      let src = int sl "src" in
      let dst = int sl "dst" in
      let size = int sl "sz" in
      Trace.Link_xfer { start; finish; link; msg; txn; level; src; dst; size }
  | "var" ->
      let ts = flt sl "ts" in
      let var = int sl "v" in
      let var_name = str sl "name" in
      let size = int sl "sz" in
      let owner = int sl "own" in
      Trace.Var_decl { ts; var; var_name; size; owner }
  | "dsm" ->
      let ts = flt sl "ts" in
      let dur = flt sl "dur" in
      let node = int sl "n" in
      let var = int sl "v" in
      let var_name = str sl "name" in
      let code = str sl "op" in
      let op =
        match Trace.op_of_code code with
        | Some op -> op
        | None -> bad_event "event: unknown op code %S" code
      in
      let size = int sl "sz" in
      let hit = boo sl "hit" in
      let txn = int sl "txn" in
      let completed_by = int sl "cb" in
      Trace.Dsm_access
        { ts; dur; node; var; var_name; op; size; hit; txn; completed_by }
  | "cadd" ->
      let ts = flt sl "ts" in
      let node = int sl "n" in
      let var = int sl "v" in
      let var_name = str sl "name" in
      let tnode = int sl "tn" in
      let level = int sl "lv" in
      Trace.Copy_add { ts; node; var; var_name; tnode; level }
  | "cdrop" ->
      let ts = flt sl "ts" in
      let node = int sl "n" in
      let var = int sl "v" in
      let var_name = str sl "name" in
      let tnode = int sl "tn" in
      let level = int sl "lv" in
      let code = str sl "why" in
      let reason =
        match Trace.drop_of_code code with
        | Some r -> r
        | None -> bad_event "event: unknown drop reason %S" code
      in
      Trace.Copy_drop { ts; node; var; var_name; tnode; level; reason }
  | "remap" ->
      let ts = flt sl "ts" in
      let var = int sl "v" in
      let var_name = str sl "name" in
      let tnode = int sl "tn" in
      let level = int sl "lv" in
      let from_node = int sl "from" in
      let to_node = int sl "to" in
      Trace.Remap { ts; var; var_name; tnode; level; from_node; to_node }
  | "lost" ->
      let ts = flt sl "ts" in
      let msg = int sl "msg" in
      let txn = int sl "txn" in
      let src = int sl "src" in
      let dst = int sl "dst" in
      let size = int sl "sz" in
      let code = str sl "why" in
      let reason =
        match Trace.loss_of_code code with
        | Some r -> r
        | None -> bad_event "event: unknown loss reason %S" code
      in
      Trace.Msg_lost { ts; msg; txn; src; dst; size; reason }
  | "retry" ->
      let ts = flt sl "ts" in
      let msg = int sl "msg" in
      let txn = int sl "txn" in
      let src = int sl "src" in
      let dst = int sl "dst" in
      let size = int sl "sz" in
      let attempt = int sl "att" in
      Trace.Msg_retry { ts; msg; txn; src; dst; size; attempt }
  | other -> bad_event "event: unknown tag %S" other

let event_of_json j =
  let slots = Array.make 29 Json.Null in
  (match j with Json.Obj kvs -> fill_slots slots 0 kvs | _ -> ());
  match decode_event slots with e -> Ok e | exception Bad_event msg -> Error msg

let decode line = Result.bind (Json.of_string line) event_of_json
