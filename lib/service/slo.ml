module Stats = Diva_util.Stats

type t = {
  n : int;
  mean_us : float;
  p50_us : float;
  p99_us : float;
  p999_us : float option;
  max_us : float;
}

let min_p999_samples = 1000

let of_samples samples =
  let n = Array.length samples in
  let sorted = Stats.sorted samples in
  {
    n;
    mean_us = Stats.mean samples;
    p50_us = Stats.sorted_percentile 50.0 sorted;
    p99_us = Stats.sorted_percentile 99.0 sorted;
    (* Exact nearest-rank order statistic, never interpolation — and below
       1000 samples the 99.9th rank is just the maximum wearing a costume,
       so it is withheld entirely rather than reported as if meaningful. *)
    p999_us =
      (if n >= min_p999_samples then Some (Stats.sorted_percentile 99.9 sorted)
       else None);
    max_us = (if n = 0 then 0.0 else Stats.maxf samples);
  }

let to_fields t =
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

let p999_str t =
  match t.p999_us with
  | Some v -> Printf.sprintf "%.1f" v
  | None -> Printf.sprintf "n/a (<%d samples)" min_p999_samples

let render t =
  Printf.sprintf
    "requests              %d\n\
     latency p50/p99/p999  %.1f / %.1f / %s us (max %.1f, mean %.1f)\n"
    t.n t.p50_us t.p99_us (p999_str t) t.max_us t.mean_us
