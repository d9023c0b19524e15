open Json

(* Thread ids inside a node's process. *)
let tid_msgs = 0
let tid_dsm = 1

let op_name = function
  | Trace.Read -> "read"
  | Trace.Write -> "write"
  | Trace.Lock -> "lock"
  | Trace.Unlock -> "unlock"
  | Trace.Barrier -> "barrier"
  | Trace.Reduce -> "reduce"

let reason_name = function
  | Trace.Invalidated -> "invalidated"
  | Trace.Evicted -> "evicted"

let loss_name = function
  | Trace.Loss_random -> "random"
  | Trace.Loss_link_down -> "link-down"
  | Trace.Loss_crashed -> "crashed"

let ev ~name ~cat ~ph ~ts ~pid ~tid extra =
  Obj
    ([
       ("name", String name);
       ("cat", String cat);
       ("ph", String ph);
       ("ts", Float ts);
       ("pid", Int pid);
       ("tid", Int tid);
     ]
    @ extra)

let instant ~name ~cat ~ts ~pid ~tid args =
  (* "s":"t" scopes the instant to its thread row. *)
  ev ~name ~cat ~ph:"i" ~ts ~pid ~tid [ ("s", String "t"); ("args", Obj args) ]

let span ~name ~cat ~ts ~dur ~pid ~tid args =
  ev ~name ~cat ~ph:"X" ~ts ~pid ~tid
    [ ("dur", Float dur); ("args", Obj args) ]

let meta ~name ~pid ~tid display =
  ev ~name ~cat:"__metadata" ~ph:"M" ~ts:0.0 ~pid ~tid
    [ ("args", Obj [ ("name", String display) ]) ]

let of_event ~net_pid = function
  | Trace.Msg_send { ts; id; parent; txn; inject; level; src; dst; size; local }
    ->
      instant
        ~name:(if local then "send (local)" else Printf.sprintf "send -> %d" dst)
        ~cat:"net" ~ts ~pid:src ~tid:tid_msgs
        [ ("id", Int id); ("parent", Int parent); ("txn", Int txn);
          ("inject", Float inject); ("level", Int level); ("dst", Int dst);
          ("size", Int size); ("local", Bool local) ]
  | Trace.Msg_deliver { ts; id; txn; handled; src; dst; size } ->
      instant
        ~name:(Printf.sprintf "recv <- %d" src)
        ~cat:"net" ~ts ~pid:dst ~tid:tid_msgs
        [ ("id", Int id); ("txn", Int txn); ("handled", Float handled);
          ("src", Int src); ("size", Int size) ]
  | Trace.Link_xfer { start; finish; link; msg; txn; level = _; src; dst; size } ->
      span
        ~name:(Printf.sprintf "%d -> %d" src dst)
        ~cat:"link" ~ts:start ~dur:(finish -. start) ~pid:net_pid ~tid:link
        [ ("msg", Int msg); ("txn", Int txn); ("size", Int size) ]
  | Trace.Var_decl { ts; var; var_name; size; owner } ->
      instant
        ~name:(Printf.sprintf "decl %s" var_name)
        ~cat:"dsm" ~ts ~pid:owner ~tid:tid_dsm
        [ ("var", Int var); ("size", Int size) ]
  | Trace.Dsm_access
      { ts; dur; node; var; var_name; op; size; hit; txn; completed_by } ->
      span
        ~name:
          (if var < 0 then op_name op
           else Printf.sprintf "%s %s%s" (op_name op) var_name
                  (if hit then " (hit)" else ""))
        ~cat:"dsm" ~ts ~dur ~pid:node ~tid:tid_dsm
        [ ("var", Int var); ("size", Int size); ("hit", Bool hit);
          ("txn", Int txn); ("completed_by", Int completed_by) ]
  | Trace.Copy_add { ts; node; var; var_name; tnode; level } ->
      instant
        ~name:(Printf.sprintf "copy+ %s" var_name)
        ~cat:"copies" ~ts ~pid:node ~tid:tid_dsm
        [ ("var", Int var); ("tnode", Int tnode); ("level", Int level) ]
  | Trace.Copy_drop { ts; node; var; var_name; tnode; level; reason } ->
      instant
        ~name:(Printf.sprintf "copy- %s (%s)" var_name (reason_name reason))
        ~cat:"copies" ~ts ~pid:node ~tid:tid_dsm
        [ ("var", Int var); ("tnode", Int tnode); ("level", Int level) ]
  | Trace.Remap { ts; var; var_name; tnode; level; from_node; to_node } ->
      instant
        ~name:(Printf.sprintf "remap %s@%d" var_name tnode)
        ~cat:"remap" ~ts ~pid:from_node ~tid:tid_dsm
        [ ("var", Int var); ("level", Int level); ("to", Int to_node) ]
  | Trace.Msg_lost { ts; msg; txn; src; dst; size; reason } ->
      instant
        ~name:(Printf.sprintf "lost -> %d (%s)" dst (loss_name reason))
        ~cat:"faults" ~ts ~pid:src ~tid:tid_msgs
        [ ("msg", Int msg); ("txn", Int txn); ("dst", Int dst);
          ("size", Int size); ("reason", String (loss_name reason)) ]
  | Trace.Msg_retry { ts; msg; txn; src; dst; size; attempt } ->
      instant
        ~name:(Printf.sprintf "retry -> %d (#%d)" dst attempt)
        ~cat:"faults" ~ts ~pid:src ~tid:tid_msgs
        [ ("msg", Int msg); ("txn", Int txn); ("dst", Int dst);
          ("size", Int size); ("attempt", Int attempt) ]

(* One Perfetto counter track: fold signed deltas into a running value and
   emit a "C" event at each distinct change point (same-timestamp deltas
   coalesce into the final value). *)
let counter_events ~name ~key ~pid deltas =
  let sorted =
    List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) deltas
  in
  let rec go acc cur = function
    | [] -> List.rev acc
    | (ts, d) :: rest -> (
        let cur = cur + d in
        match rest with
        | (ts', _) :: _ when Float.equal ts' ts -> go acc cur rest
        | _ ->
            go
              (( ts,
                 ev ~name ~cat:"counter" ~ph:"C" ~ts ~pid ~tid:0
                   [ ("args", Obj [ (key, Int cur) ]) ] )
              :: acc)
              cur rest)
  in
  go [] 0 sorted

(* Host-profiler counter tracks from a prof.json document: one "C" event
   per sample row on a dedicated "profiler" process. Values are host-side
   measurements (throughput, heap) plotted against simulated time, which
   is exactly what makes a slow window visually pop in Perfetto. *)
let prof_counters ~pid prof =
  List.concat_map
    (fun (sim_us, rate, heap_words) ->
      [
        ( sim_us,
          ev ~name:"host events/sec" ~cat:"prof" ~ph:"C" ~ts:sim_us ~pid
            ~tid:0
            [ ("args", Obj [ ("events_per_sec", Float rate) ]) ] );
        ( sim_us,
          ev ~name:"host heap MB" ~cat:"prof" ~ph:"C" ~ts:sim_us ~pid ~tid:0
            [ ("args", Obj [ ("mb", Float (heap_words *. 8e-6)) ]) ] );
      ])
    (Prof.series_rows prof)

let to_json ?(metadata = []) ?prof ~num_nodes events =
  let net_pid = num_nodes in
  let prof_pid = num_nodes + 1 in
  let sorted =
    List.stable_sort
      (fun a b -> Float.compare (Trace.timestamp a) (Trace.timestamp b))
      events
  in
  (* Name only the processes/threads that actually appear. *)
  let node_used = Array.make (max 1 num_nodes) false in
  let links = Hashtbl.create 64 in
  List.iter
    (fun e ->
      match e with
      | Trace.Link_xfer { link; _ } -> Hashtbl.replace links link ()
      | Trace.Msg_send { src; _ } -> node_used.(src) <- true
      | Trace.Msg_deliver { dst; _ } -> node_used.(dst) <- true
      | Trace.Dsm_access { node; _ }
      | Trace.Copy_add { node; _ }
      | Trace.Copy_drop { node; _ } ->
          node_used.(node) <- true
      | Trace.Var_decl { owner; _ } -> node_used.(owner) <- true
      | Trace.Remap { from_node; _ } -> node_used.(from_node) <- true
      | Trace.Msg_lost { src; _ } | Trace.Msg_retry { src; _ } ->
          node_used.(src) <- true)
    sorted;
  (* Counter tracks on the network process. In-flight counts a message from
     its issue to the time its handler ran; retransmission duplicates keep
     the first delivery, and delivers without a matching send (acks) are
     ignored so the counter cannot go negative. *)
  let send_ids = Hashtbl.create 256 in
  List.iter
    (function
      | Trace.Msg_send { id; local = false; _ } -> Hashtbl.replace send_ids id ()
      | _ -> ())
    sorted;
  let delivered = Hashtbl.create 256 in
  let msg_deltas = ref [] and link_deltas = ref [] and copy_deltas = ref [] in
  List.iter
    (fun e ->
      match e with
      | Trace.Msg_send { ts; local = false; _ } ->
          msg_deltas := (ts, 1) :: !msg_deltas
      | Trace.Msg_deliver { id; handled; _ }
        when Hashtbl.mem send_ids id && not (Hashtbl.mem delivered id) ->
          Hashtbl.add delivered id ();
          msg_deltas := (handled, -1) :: !msg_deltas
      | Trace.Link_xfer { start; finish; _ } ->
          link_deltas := (start, 1) :: (finish, -1) :: !link_deltas
      | Trace.Var_decl { ts; _ } | Trace.Copy_add { ts; _ } ->
          copy_deltas := (ts, 1) :: !copy_deltas
      | Trace.Copy_drop { ts; _ } -> copy_deltas := (ts, -1) :: !copy_deltas
      | _ -> ())
    sorted;
  let counters =
    counter_events ~name:"in-flight messages" ~key:"messages" ~pid:net_pid
      (List.rev !msg_deltas)
    @ counter_events ~name:"busy links" ~key:"links" ~pid:net_pid
        (List.rev !link_deltas)
    @ counter_events ~name:"copies held" ~key:"copies" ~pid:net_pid
        (List.rev !copy_deltas)
  in
  (* Flow arrows: one flow per causal transaction, from the issuing DSM
     slice through each link slice its messages occupied. The flow id is
     the transaction id; "s"/"t"/"f" events bind to the slice sharing their
     (pid, tid, ts). *)
  let accesses = Hashtbl.create 64 in
  List.iter
    (function
      | Trace.Dsm_access { ts; node; txn; hit = false; _ } when txn >= 0 ->
          if not (Hashtbl.mem accesses txn) then Hashtbl.add accesses txn (ts, node)
      | _ -> ())
    sorted;
  let xfers = Hashtbl.create 64 in
  List.iter
    (function
      | Trace.Link_xfer { start; link; txn; _ } when txn >= 0 ->
          Hashtbl.replace xfers txn
            ((start, link)
            :: Option.value ~default:[] (Hashtbl.find_opt xfers txn))
      | _ -> ())
    sorted;
  let txn_ids =
    List.sort compare (Hashtbl.fold (fun txn _ acc -> txn :: acc) accesses [])
  in
  let flows =
    List.concat_map
      (fun txn ->
        match Hashtbl.find_opt xfers txn with
        | None -> []
        | Some xs ->
            let t0, node = Hashtbl.find accesses txn in
            let flow ph ?(extra = []) ~ts ~pid ~tid () =
              ( ts,
                ev ~name:"txn" ~cat:"flow" ~ph ~ts ~pid ~tid
                  (("id", Int txn) :: extra) )
            in
            let rec steps = function
              | [] -> []
              | [ (ts, link) ] ->
                  [ flow "f"
                      ~extra:[ ("bp", String "e") ]
                      ~ts ~pid:net_pid ~tid:link () ]
              | (ts, link) :: rest ->
                  flow "t" ~ts ~pid:net_pid ~tid:link () :: steps rest
            in
            flow "s" ~ts:t0 ~pid:node ~tid:tid_dsm () :: steps (List.sort compare xs))
      txn_ids
  in
  let profs =
    match prof with None -> [] | Some p -> prof_counters ~pid:prof_pid p
  in
  let link_ids =
    List.sort compare (Hashtbl.fold (fun link () acc -> link :: acc) links [])
  in
  let metas =
    (if link_ids = [] && counters = [] then []
     else meta ~name:"process_name" ~pid:net_pid ~tid:0 "network" :: [])
    @ (if profs = [] then []
       else [ meta ~name:"process_name" ~pid:prof_pid ~tid:0 "profiler" ])
    @ List.map
        (fun link ->
          meta ~name:"thread_name" ~pid:net_pid ~tid:link
            (Printf.sprintf "link %d" link))
        link_ids
    @ List.concat
        (List.mapi
           (fun node used ->
             if used then
               [
                 meta ~name:"process_name" ~pid:node ~tid:0
                   (Printf.sprintf "node %d" node);
                 meta ~name:"thread_name" ~pid:node ~tid:tid_msgs "messages";
                 meta ~name:"thread_name" ~pid:node ~tid:tid_dsm "dsm";
               ]
             else [])
           (Array.to_list node_used))
  in
  (* Merge slices, counters and flows into one timestamp-sorted stream
     (stable, so same-timestamp events keep a deterministic order). *)
  let stamped =
    List.map (fun e -> (Trace.timestamp e, of_event ~net_pid e)) sorted
    @ counters @ flows @ profs
  in
  let trace_events =
    metas
    @ List.map snd
        (List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) stamped)
  in
  Obj
    ([
       ("traceEvents", List trace_events);
       ("displayTimeUnit", String "ms");
     ]
    @ if metadata = [] then [] else [ ("metadata", Obj metadata) ])

let write_file ?metadata ?prof ~num_nodes ~path events =
  Json.to_file path (to_json ?metadata ?prof ~num_nodes events)
