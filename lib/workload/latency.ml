module Stats = Diva_util.Stats

type t = {
  ops : int;
  duration_us : float;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;
}

let of_samples ~duration_us samples =
  {
    ops = Array.length samples;
    duration_us;
    mean = Stats.mean samples;
    p50 = Stats.percentile 50.0 samples;
    p95 = Stats.percentile 95.0 samples;
    p99 = Stats.percentile 99.0 samples;
    max = (if Array.length samples = 0 then 0.0 else Stats.maxf samples);
  }

let ops_per_sec t =
  if t.duration_us <= 0.0 then 0.0
  else float_of_int t.ops /. (t.duration_us /. 1e6)

let quad t = (t.p50, t.p95, t.p99, t.max)

let render t =
  Printf.sprintf
    "ops                  %d (%.0f ops/sim-second)\n\
     latency p50/p95/p99  %.1f / %.1f / %.1f us (max %.1f, mean %.1f)\n"
    t.ops (ops_per_sec t) t.p50 t.p95 t.p99 t.max t.mean
