type snapshot = {
  sn_wall : float;
  sn_sim_us : float;
  sn_events : int;
  sn_pending : int;
  sn_fibers : int;
  sn_inflight : int;
  sn_reissues : int;
}

(* Two independent rings (events are high-frequency, snapshots periodic)
   plus the dump-once latch. Option arrays avoid manufacturing dummy
   values for the empty slots. *)
type t = {
  f_path : string;
  f_dump_on_watchdog : bool;
  ev_ring : Trace.event option array;
  mutable ev_pos : int;
  mutable ev_total : int;
  sn_ring : snapshot option array;
  mutable sn_pos : int;
  mutable sn_total : int;
  mutable f_dumped : bool;
}

let create ?(snapshots = 64) ?(dump_on_watchdog = true) ~path () =
  if snapshots <= 0 then
    invalid_arg "Flight.create: snapshots must be positive";
  {
    f_path = path;
    f_dump_on_watchdog = dump_on_watchdog;
    ev_ring = Array.make 512 None;
    ev_pos = 0;
    ev_total = 0;
    sn_ring = Array.make snapshots None;
    sn_pos = 0;
    sn_total = 0;
    f_dumped = false;
  }

let path t = t.f_path
let dump_on_watchdog t = t.f_dump_on_watchdog

let record t e =
  t.ev_ring.(t.ev_pos) <- Some e;
  t.ev_pos <- (t.ev_pos + 1) mod Array.length t.ev_ring;
  t.ev_total <- t.ev_total + 1

let wrap t sink = Trace.with_listener sink (record t)

let snapshot t s =
  t.sn_ring.(t.sn_pos) <- Some s;
  t.sn_pos <- (t.sn_pos + 1) mod Array.length t.sn_ring;
  t.sn_total <- t.sn_total + 1

let ring_list ring pos =
  let n = Array.length ring in
  let out = ref [] in
  for i = n - 1 downto 0 do
    match ring.((pos + i) mod n) with
    | Some v -> out := v :: !out
    | None -> ()
  done;
  !out

let events t = ring_list t.ev_ring t.ev_pos
let snapshots t = ring_list t.sn_ring t.sn_pos
let dumped t = t.f_dumped

let schema = "diva-flight/1"

let snapshot_json s =
  let open Json in
  Obj
    [
      ("wall", Float s.sn_wall);
      ("sim_us", Float s.sn_sim_us);
      ("events", Int s.sn_events);
      ("pending", Int s.sn_pending);
      ("fibers", Int s.sn_fibers);
      ("inflight", Int s.sn_inflight);
      ("reissues", Int s.sn_reissues);
    ]

(* The dump is a cold path: each event goes through the one line encoder
   and is read back as a document of its own. *)
let event_json b e =
  Buffer.clear b;
  Trace.add_event b e;
  Result.get_ok (Json.of_string (Buffer.contents b))

let to_json t ~reason =
  let evs = List.map (event_json (Buffer.create 256)) (events t) in
  let open Json in
  Obj
    [
      ("schema", String schema);
      ("reason", String reason);
      ("wall_unix", Float (Unix.gettimeofday ()));
      ("events_recorded", Int t.ev_total);
      ("ring_capacity", Int (Array.length t.ev_ring));
      ("events", List evs);
      ("snapshots", List (List.map snapshot_json (snapshots t)));
    ]

let dump t ~reason =
  if not t.f_dumped then begin
    t.f_dumped <- true;
    try Json.to_file t.f_path (to_json t ~reason)
    with Sys_error e ->
      Printf.eprintf "flight recorder: cannot write %s: %s\n%!" t.f_path e
  end

let dump_on_error t ~label = function
  | Ok _ -> ()
  | Error e -> dump t ~reason:(Printf.sprintf "%s: %s" label e)

(* ------------------------------------------------------------------ *)
(* Report rendering (divasim profile)                                   *)
(* ------------------------------------------------------------------ *)

let get_i j k = Option.bind (Json.member k j) Json.to_int
let get_f j k = Option.bind (Json.member k j) Json.to_float

let report j =
  match Option.bind (Json.member "schema" j) Json.to_str with
  | Some s when s = schema ->
      let b = Buffer.create 1024 in
      Printf.bprintf b "flight recorder dump (%s)\n" schema;
      Printf.bprintf b "  reason           %s\n"
        (Option.value ~default:"?"
           (Option.bind (Json.member "reason" j) Json.to_str));
      let recorded = Option.value ~default:0 (get_i j "events_recorded") in
      let cap = Option.value ~default:0 (get_i j "ring_capacity") in
      let kept =
        match Json.member "events" j with
        | Some (Json.List l) -> List.length l
        | _ -> 0
      in
      Printf.bprintf b
        "  events           %d recorded, last %d kept (ring capacity %d)\n"
        recorded kept cap;
      (match Json.member "snapshots" j with
      | Some (Json.List snaps) ->
          Printf.bprintf b "  snapshots        %d\n" (List.length snaps);
          (* The last snapshot is the health of the system just before the
             trigger — the first thing a post-mortem wants. *)
          (match List.rev snaps with
          | last :: _ ->
              Printf.bprintf b
                "  last health      sim %.1f us: %d events, %d pending, %d \
                 fibers, %d in-flight envelopes, %d watchdog trips\n"
                (Option.value ~default:0.0 (get_f last "sim_us"))
                (Option.value ~default:0 (get_i last "events"))
                (Option.value ~default:0 (get_i last "pending"))
                (Option.value ~default:0 (get_i last "fibers"))
                (Option.value ~default:0 (get_i last "inflight"))
                (Option.value ~default:0 (get_i last "reissues"))
          | [] -> ())
      | _ -> ());
      (match Json.member "events" j with
      | Some (Json.List evs) when evs <> [] ->
          Printf.bprintf b "  tail of the event ring:\n";
          let tail =
            let n = List.length evs in
            if n <= 8 then evs
            else List.filteri (fun i _ -> i >= n - 8) evs
          in
          List.iter
            (fun e -> Printf.bprintf b "    %s\n" (Json.to_string e))
            tail
      | _ -> ());
      Ok (Buffer.contents b)
  | Some s -> Error (Printf.sprintf "not a flight dump (schema %S)" s)
  | None -> Error "not a flight dump (no \"schema\" field)"
