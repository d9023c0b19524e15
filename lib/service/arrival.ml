module Prng = Diva_util.Prng

type shape =
  | Poisson
  | Bursty of { mult : float; mean_on_us : float; mean_off_us : float }
  | Diurnal of { trough : float; period_us : float }

let shape_name = function
  | Poisson -> "poisson"
  | Bursty { mult; mean_on_us; mean_off_us } ->
      Printf.sprintf "bursty x%g (on %g us / off %g us)" mult mean_on_us
        mean_off_us
  | Diurnal { trough; period_us } ->
      Printf.sprintf "diurnal %g:1 (period %g us)" (1.0 /. trough) period_us

let validate ~rate shape =
  let pos x = Float.is_finite x && x > 0.0 in
  if not (pos rate) then Error "arrival rate must be > 0 requests/second"
  else
    match shape with
    | Poisson -> Ok ()
    | Bursty { mult; mean_on_us; mean_off_us } ->
        if not (Float.is_finite mult && mult >= 1.0) then
          Error "bursty multiplier must be >= 1"
        else if not (pos mean_on_us && pos mean_off_us) then
          Error "bursty dwell times must be > 0 microseconds"
        else Ok ()
    | Diurnal { trough; period_us } ->
        if not (trough > 0.0 && trough <= 1.0) then
          Error "diurnal trough fraction must be in (0,1]"
        else if not (pos period_us) then
          Error "diurnal period must be > 0 microseconds"
        else Ok ()

type gen = {
  g_shape : shape;
  g_lam : float;  (* mean arrivals per microsecond *)
  g_rng : Prng.t;
  mutable g_t : float;
  (* two-state modulation (bursty only) *)
  mutable g_on : bool;
  mutable g_switch : float;
}

(* Inverse-CDF exponential draw. [Prng.float] is in [0,1), so the argument
   of [log] is in (0,1] and the draw is finite and >= 0. *)
let exp_draw rng lam = -.Float.log (1.0 -. Prng.float rng 1.0) /. lam

let make ~seed ~rate shape =
  (match validate ~rate shape with
  | Ok () -> ()
  | Error e -> invalid_arg ("Diva_service.Arrival.make: " ^ e));
  let rng = Prng.create ~seed in
  let g =
    { g_shape = shape; g_lam = rate /. 1e6; g_rng = rng; g_t = 0.0;
      g_on = false; g_switch = 0.0 }
  in
  (match shape with
  | Bursty { mean_off_us; _ } ->
      (* The stream starts in the quiet state. *)
      g.g_switch <- exp_draw rng (1.0 /. mean_off_us)
  | Poisson | Diurnal _ -> ());
  g

let pi = 4.0 *. Float.atan 1.0

let rec next g =
  match g.g_shape with
  | Poisson ->
      g.g_t <- g.g_t +. exp_draw g.g_rng g.g_lam;
      g.g_t
  | Bursty { mult; mean_on_us; mean_off_us } ->
      (* Exact simulation of the two-state modulated Poisson process: draw
         within the current state's rate; a draw that crosses the next
         state switch is discarded (memorylessness makes that exact) and
         the clock restarts at the switch under the new rate. *)
      let lam = if g.g_on then g.g_lam *. mult else g.g_lam in
      let dt = exp_draw g.g_rng lam in
      if g.g_t +. dt <= g.g_switch then begin
        g.g_t <- g.g_t +. dt;
        g.g_t
      end
      else begin
        g.g_t <- g.g_switch;
        g.g_on <- not g.g_on;
        let mean = if g.g_on then mean_on_us else mean_off_us in
        g.g_switch <- g.g_t +. exp_draw g.g_rng (1.0 /. mean);
        next g
      end
  | Diurnal { trough; period_us } ->
      (* Lewis-Shedler thinning against the peak rate: the configured rate
         is the peak, the trough is [trough] of it, and the intensity
         follows a raised cosine over [period_us]. *)
      g.g_t <- g.g_t +. exp_draw g.g_rng g.g_lam;
      let frac =
        trough
        +. (1.0 -. trough) *. 0.5
           *. (1.0 -. Float.cos (2.0 *. pi *. g.g_t /. period_us))
      in
      if Prng.chance g.g_rng frac then g.g_t else next g
