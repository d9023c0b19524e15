(* rss_cap FILE LIMIT: FILE is the stdout of a single-workload
   benchmark/run.exe run, whose last line is the result JSON. Exits 1
   unless that line reports metrics.rss_peak_mb.value at most LIMIT MB. *)

module Json = Diva_obs.Json

let () =
  let file, limit =
    match Sys.argv with
    | [| _; f; l |] -> (f, float_of_string l)
    | _ ->
        prerr_endline "usage: rss_cap FILE LIMIT_MB";
        exit 2
  in
  let last =
    In_channel.with_open_bin file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
    |> List.rev
    |> function l :: _ -> l | [] -> ""
  in
  let rss =
    let ( let* ) = Option.bind in
    let* j = Result.to_option (Json.of_string last) in
    let* m = Json.member "metrics" j in
    let* r = Json.member "rss_peak_mb" m in
    let* v = Json.member "value" r in
    Json.to_float v
  in
  match rss with
  | Some r when r <= limit -> Printf.printf "%s: rss_peak_mb %g MB (limit %g)\n" file r limit
  | Some r ->
      Printf.eprintf "%s: rss_peak_mb %g MB is above the limit of %g MB\n" file r limit;
      exit 1
  | None ->
      Printf.eprintf "%s: no rss_peak_mb in the last line %S\n" file last;
      exit 1
