module Stats = Diva_util.Stats

type t = {
  n : int;
  mean_us : float;
  p50_us : float;
  p95_us : float;
  p99_us : float;
  p999_us : float option;
  max_us : float;
}

let min_p999_samples = 1000

let of_samples samples =
  let n = Array.length samples in
  let sorted = Stats.sorted samples in
  let p q = Stats.sorted_percentile q sorted in
  {
    n;
    mean_us = Stats.mean samples;
    p50_us = p 50.0;
    p95_us = p 95.0;
    p99_us = p 99.0;
    (* Below 1000 samples the 99.9th rank is just the maximum wearing a
       costume, so it is withheld entirely rather than reported as if
       meaningful. *)
    p999_us = (if n >= min_p999_samples then Some (p 99.9) else None);
    max_us = (if n = 0 then 0.0 else sorted.(n - 1));
  }

let ops_per_sec ~duration_us t =
  if duration_us <= 0.0 then 0.0 else float_of_int t.n /. (duration_us /. 1e6)

let render_ops ~duration_us t =
  Printf.sprintf
    "ops                  %d (%.0f ops/sim-second)\n\
     latency p50/p95/p99  %.1f / %.1f / %.1f us (max %.1f, mean %.1f)\n"
    t.n (ops_per_sec ~duration_us t) t.p50_us t.p95_us t.p99_us t.max_us
    t.mean_us

let request_fields t =
  let open Diva_obs.Json in
  [
    ("requests", Int t.n);
    ("lat_mean_us", Float t.mean_us);
    ("lat_p50_us", Float t.p50_us);
    ("lat_p99_us", Float t.p99_us);
  ]
  @ (match t.p999_us with
    | Some v -> [ ("lat_p999_us", Float v) ]
    | None -> [])
  @ [ ("lat_max_us", Float t.max_us) ]

let render_requests t =
  Printf.sprintf
    "requests              %d\n\
     latency p50/p99/p999  %.1f / %.1f / %s us (max %.1f, mean %.1f)\n"
    t.n t.p50_us t.p99_us
    (match t.p999_us with
    | Some v -> Printf.sprintf "%.1f" v
    | None -> Printf.sprintf "n/a (<%d samples)" min_p999_samples)
    t.max_us t.mean_us
