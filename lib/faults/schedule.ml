module Json = Diva_obs.Json
module Prng = Diva_util.Prng

type window = { t0 : float; t1 : float }

type event =
  | Link_slow of { link : int option; w : window; factor : float }
  | Link_down of { link : int option; w : window }
  | Msg_drop of { prob : float; w : window }
  | Node_pause of { node : int; w : window }
  | Node_crash of { node : int; w : window }

type t = {
  version : int;
  seed : int;
  rto_us : float;
  patience_us : float;
  events : event list;
}

let current_version = 1
let format_name = "diva-faults"

let make ?(seed = 1) ?(rto_us = 20_000.0) ?(patience_us = 100_000.0) events =
  { version = current_version; seed; rto_us; patience_us; events }

let empty = make []
let is_empty t = t.events = []

let validate t =
  let check cond msg rest = if cond then rest () else Error msg in
  let win w rest =
    check
      (Float.is_finite w.t0 && Float.is_finite w.t1 && w.t0 >= 0.0
     && w.t0 <= w.t1)
      "fault windows need finite 0 <= from <= until" rest
  in
  check (t.version <= current_version)
    (Printf.sprintf "unsupported fault-schedule version %d (max %d)" t.version
       current_version)
  @@ fun () ->
  check
    (Float.is_finite t.rto_us && t.rto_us > 0.0)
    "rto_us must be a positive number"
  @@ fun () ->
  check
    (Float.is_finite t.patience_us && t.patience_us > 0.0)
    "patience_us must be a positive number"
  @@ fun () ->
  let rec events = function
    | [] -> Ok ()
    | Link_slow { link; w; factor } :: rest ->
        win w @@ fun () ->
        check
          (Float.is_finite factor && factor >= 1.0)
          "link_slow factor must be >= 1"
        @@ fun () ->
        check (match link with Some l -> l >= 0 | None -> true)
          "link ids must be >= 0"
        @@ fun () -> events rest
    | Link_down { link; w } :: rest ->
        win w @@ fun () ->
        check (match link with Some l -> l >= 0 | None -> true)
          "link ids must be >= 0"
        @@ fun () -> events rest
    | Msg_drop { prob; w } :: rest ->
        win w @@ fun () ->
        check
          (Float.is_finite prob && prob >= 0.0 && prob <= 1.0)
          "drop prob must be in [0,1]"
        @@ fun () -> events rest
    | Node_pause { node; w } :: rest | Node_crash { node; w } :: rest ->
        win w @@ fun () ->
        check (node >= 0) "node ids must be >= 0" @@ fun () -> events rest
  in
  events t.events

(* ------------------------------------------------------------------ *)
(* Seeded generation                                                   *)
(* ------------------------------------------------------------------ *)

let generate ~seed ~num_nodes ~num_links () =
  let horizon = 30_000.0 in
  let rng = Prng.create ~seed in
  let window max_len =
    let len = Prng.float rng max_len in
    let t0 = Prng.float rng (Float.max 1.0 (horizon -. len)) in
    { t0; t1 = t0 +. len }
  in
  let link () =
    (* Mostly single links; sometimes the whole network degrades. *)
    if num_links > 0 && Prng.chance rng 0.8 then
      Some (Prng.int rng num_links)
    else None
  in
  let events = ref [] in
  let add e = events := e :: !events in
  for _ = 1 to 1 + Prng.int rng 3 do
    add
      (Link_slow
         { link = link (); w = window (horizon /. 3.0);
           factor = 2.0 +. Prng.float rng 6.0 })
  done;
  for _ = 1 to Prng.int rng 3 do
    add (Link_down { link = link (); w = window (horizon /. 10.0) })
  done;
  add
    (Msg_drop
       { prob = 0.05 +. Prng.float rng 0.2; w = window (horizon /. 2.0) });
  for _ = 1 to Prng.int rng 3 do
    add (Node_pause { node = Prng.int rng num_nodes; w = window (horizon /. 10.0) })
  done;
  if Prng.bool rng then
    add (Node_crash { node = Prng.int rng num_nodes; w = window (horizon /. 8.0) });
  make ~seed (List.rev !events)

let describe t =
  let slow = ref 0 and down = ref 0 and pause = ref 0 and crash = ref 0 in
  let drop = ref 0.0 in
  List.iter
    (function
      | Link_slow _ -> incr slow
      | Link_down _ -> incr down
      | Msg_drop { prob; _ } -> drop := Float.max !drop prob
      | Node_pause _ -> incr pause
      | Node_crash _ -> incr crash)
    t.events;
  if is_empty t then "no faults"
  else
    String.concat ", "
      (List.filter
         (fun s -> s <> "")
         [
           (if !slow > 0 then Printf.sprintf "%d slow" !slow else "");
           (if !down > 0 then Printf.sprintf "%d down" !down else "");
           (if !drop > 0.0 then Printf.sprintf "drop<=%.2f" !drop else "");
           (if !pause > 0 then Printf.sprintf "%d pause" !pause else "");
           (if !crash > 0 then Printf.sprintf "%d crash" !crash else "");
         ])

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let json_of_link = function Some l -> Json.Int l | None -> Json.Null

let json_of_event e =
  let base kind w rest =
    Json.Obj
      (("kind", Json.String kind)
       :: rest
      @ [ ("from", Json.Float w.t0); ("until", Json.Float w.t1) ])
  in
  match e with
  | Link_slow { link; w; factor } ->
      base "link_slow" w
        [ ("link", json_of_link link); ("factor", Json.Float factor) ]
  | Link_down { link; w } -> base "link_down" w [ ("link", json_of_link link) ]
  | Msg_drop { prob; w } -> base "drop" w [ ("prob", Json.Float prob) ]
  | Node_pause { node; w } -> base "node_pause" w [ ("node", Json.Int node) ]
  | Node_crash { node; w } -> base "node_crash" w [ ("node", Json.Int node) ]

let to_json t =
  Json.Obj
    [
      ("format", Json.String format_name);
      ("version", Json.Int t.version);
      ("seed", Json.Int t.seed);
      ("rto_us", Json.Float t.rto_us);
      ("patience_us", Json.Float t.patience_us);
      ("events", Json.List (List.map json_of_event t.events));
    ]

let event_of_json j =
  let ( let* ) r f = Result.bind r f in
  let field name conv what =
    match Option.bind (Json.member name j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "fault event needs %s %S" what name)
  in
  let* kind = field "kind" Json.to_str "a string" in
  let* t0 = field "from" Json.to_float "a numeric" in
  let* t1 = field "until" Json.to_float "a numeric" in
  let w = { t0; t1 } in
  let link () =
    match Json.member "link" j with
    | None | Some Json.Null -> Ok None
    | Some l -> (
        match Json.to_int l with
        | Some l -> Ok (Some l)
        | None -> Error "fault event field \"link\" must be an int or null")
  in
  match kind with
  | "link_slow" ->
      let* link = link () in
      let* factor = field "factor" Json.to_float "a numeric" in
      Ok (Link_slow { link; w; factor })
  | "link_down" ->
      let* link = link () in
      Ok (Link_down { link; w })
  | "drop" ->
      let* prob = field "prob" Json.to_float "a numeric" in
      Ok (Msg_drop { prob; w })
  | "node_pause" ->
      let* node = field "node" Json.to_int "an integer" in
      Ok (Node_pause { node; w })
  | "node_crash" ->
      let* node = field "node" Json.to_int "an integer" in
      Ok (Node_crash { node; w })
  | k -> Error (Printf.sprintf "unknown fault event kind %S" k)

let of_json j =
  let ( let* ) r f = Result.bind r f in
  let* () =
    match Option.bind (Json.member "format" j) Json.to_str with
    | Some f when f = format_name -> Ok ()
    | Some f -> Error (Printf.sprintf "not a fault schedule (format %S)" f)
    | None -> Error "not a fault schedule (no \"format\" field)"
  in
  let* version =
    match Option.bind (Json.member "version" j) Json.to_int with
    | Some v when v <= current_version -> Ok v
    | Some v ->
        Error
          (Printf.sprintf "unsupported fault-schedule version %d (max %d)" v
             current_version)
    | None -> Error "fault schedule has no \"version\""
  in
  let int_field name default =
    Option.value ~default (Option.bind (Json.member name j) Json.to_int)
  in
  let float_field name default =
    Option.value ~default (Option.bind (Json.member name j) Json.to_float)
  in
  let* events =
    match Json.member "events" j with
    | Some (Json.List l) ->
        List.fold_left
          (fun acc e ->
            let* acc = acc in
            let* e = event_of_json e in
            Ok (e :: acc))
          (Ok []) l
        |> Result.map List.rev
    | Some _ -> Error "fault schedule \"events\" must be a list"
    | None -> Ok []
  in
  let t =
    {
      version;
      seed = int_field "seed" 1;
      rto_us = float_field "rto_us" 20_000.0;
      patience_us = float_field "patience_us" 100_000.0;
      events;
    }
  in
  let* () = validate t in
  Ok t

let read path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> Result.bind (Json.of_string s) of_json
  | exception Sys_error e -> Error e
