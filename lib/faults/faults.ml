module Json = Diva_obs.Json
module Trace = Diva_obs.Trace
module Prng = Diva_util.Prng

type t = {
  sched : Schedule.t;
  drop_rng : Prng.t;
  mutable lost_random : int;
  mutable lost_link_down : int;
  mutable lost_crashed : int;
  mutable retransmits : int;
  mutable acks_received : int;
  mutable enveloped : int;
  mutable dsm_reissues : int;
  (* Observe-only notification on each watchdog trip; the flight recorder
     hooks this to dump on the first trip. *)
  mutable on_dsm_reissue : (unit -> unit) option;
}

let create sched =
  (match Schedule.validate sched with
  | Ok () -> ()
  | Error e -> invalid_arg ("Diva_faults.Faults.create: " ^ e));
  {
    sched;
    (* Independent of the network's root PRNG on purpose: installing a
       schedule must not perturb any other stream's draws. *)
    drop_rng = Prng.create ~seed:(sched.Schedule.seed lxor 0x5eedfa17);
    lost_random = 0;
    lost_link_down = 0;
    lost_crashed = 0;
    retransmits = 0;
    acks_received = 0;
    enveloped = 0;
    dsm_reissues = 0;
    on_dsm_reissue = None;
  }

let active t = not (Schedule.is_empty t.sched)
let rto t = t.sched.Schedule.rto_us
let patience t = t.sched.Schedule.patience_us
let ack_size = 8

let in_window (w : Schedule.window) now = now >= w.Schedule.t0 && now < w.Schedule.t1

let link_matches sel link =
  match sel with None -> true | Some l -> l = link

let link_factor t ~link ~now =
  List.fold_left
    (fun acc e ->
      match e with
      | Schedule.Link_slow { link = sel; w; factor }
        when link_matches sel link && in_window w now ->
          acc *. factor
      | _ -> acc)
    1.0 t.sched.Schedule.events

let link_down t ~link ~now =
  List.exists
    (function
      | Schedule.Link_down { link = sel; w } ->
          link_matches sel link && in_window w now
      | _ -> false)
    t.sched.Schedule.events

let draw_drop t ~now =
  let survive =
    List.fold_left
      (fun acc e ->
        match e with
        | Schedule.Msg_drop { prob; w } when in_window w now && prob > 0.0 ->
            acc *. (1.0 -. prob)
        | _ -> acc)
      1.0 t.sched.Schedule.events
  in
  survive < 1.0 && not (Prng.chance t.drop_rng survive)

let stall_window node time = function
  | Schedule.Node_pause { node = n; w } | Schedule.Node_crash { node = n; w } ->
      if n = node && in_window w time then Some w.Schedule.t1 else None
  | _ -> None

let defer t ~node time =
  (* Fixpoint over (possibly overlapping) pause/crash windows. *)
  let rec go time =
    let pushed =
      List.fold_left
        (fun acc e ->
          match stall_window node acc e with
          | Some t1 -> Float.max acc t1
          | None -> acc)
        time t.sched.Schedule.events
    in
    if pushed > time then go pushed else time
  in
  go time

let crashed t ~node ~now =
  List.exists
    (function
      | Schedule.Node_crash { node = n; w } -> n = node && in_window w now
      | _ -> false)
    t.sched.Schedule.events

let count_lost t = function
  | Trace.Loss_random -> t.lost_random <- t.lost_random + 1
  | Trace.Loss_link_down -> t.lost_link_down <- t.lost_link_down + 1
  | Trace.Loss_crashed -> t.lost_crashed <- t.lost_crashed + 1

let count_retransmit t = t.retransmits <- t.retransmits + 1
let count_ack t = t.acks_received <- t.acks_received + 1
let count_enveloped t = t.enveloped <- t.enveloped + 1
let count_dsm_reissue t =
  t.dsm_reissues <- t.dsm_reissues + 1;
  match t.on_dsm_reissue with Some f -> f () | None -> ()

let set_on_dsm_reissue t f = t.on_dsm_reissue <- Some f

let lost_random t = t.lost_random
let lost_link_down t = t.lost_link_down
let lost_crashed t = t.lost_crashed
let lost_total t = t.lost_random + t.lost_link_down + t.lost_crashed
let retransmits t = t.retransmits
let dsm_reissues t = t.dsm_reissues

let report_fields t =
  [
    ("schedule", Json.String (Schedule.describe t.sched));
    ("schedule_seed", Json.Int t.sched.Schedule.seed);
    ("rto_us", Json.Float (rto t));
    ("patience_us", Json.Float (patience t));
    ("enveloped_msgs", Json.Int t.enveloped);
    ("lost_random", Json.Int t.lost_random);
    ("lost_link_down", Json.Int t.lost_link_down);
    ("lost_crashed", Json.Int t.lost_crashed);
    ("lost_total", Json.Int (lost_total t));
    ("retransmits", Json.Int t.retransmits);
    ("acks_received", Json.Int t.acks_received);
    ("dsm_reissues", Json.Int t.dsm_reissues);
  ]
