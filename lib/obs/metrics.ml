type t = {
  mutable rev_cols : (string * (unit -> float)) list;
  mutable rev_rows : (float * float array) list;
  mutable nrows : int;
}

let create () = { rev_cols = []; rev_rows = []; nrows = 0 }
let gauge t name f = t.rev_cols <- (name, f) :: t.rev_cols

let cols t = List.rev t.rev_cols
let columns t = List.map fst (cols t)

let sample t ~ts =
  let stale =
    match t.rev_rows with (prev, _) :: _ -> ts <= prev | [] -> false
  in
  if not stale then begin
    let row = Array.of_list (List.map (fun (_, f) -> f ()) (cols t)) in
    t.rev_rows <- (ts, row) :: t.rev_rows;
    t.nrows <- t.nrows + 1
  end

let rows t = List.rev t.rev_rows
let num_rows t = t.nrows

let cell v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6f" v

let to_csv t =
  let b = Buffer.create 1024 in
  Buffer.add_string b (String.concat "," ("ts_us" :: columns t));
  Buffer.add_char b '\n';
  List.iter
    (fun (ts, row) ->
      Buffer.add_string b (cell ts);
      Array.iter
        (fun v ->
          Buffer.add_char b ',';
          Buffer.add_string b (cell v))
        row;
      Buffer.add_char b '\n')
    (rows t);
  Buffer.contents b

(* Prometheus metric names allow [a-zA-Z0-9_:]; everything else maps to
   '_' (and a leading digit gets one prepended). *)
let sanitize name =
  let b = Buffer.create (String.length name) in
  String.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | ':' -> Buffer.add_char b c
      | '0' .. '9' ->
          if i = 0 then Buffer.add_char b '_';
          Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

(* Label values escape per the exposition format: backslash, double quote
   and newline. Label names share the metric charset minus ':'. *)
let escape_label_value v =
  let b = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let render_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) ->
               Printf.sprintf "%s=\"%s\"" (sanitize k)
                 (escape_label_value v))
             labels)
      ^ "}"

let to_prometheus ?(labels = []) t =
  match t.rev_rows with
  | [] -> ""
  | (ts, row) :: _ ->
      let b = Buffer.create 1024 in
      (* Sanitizing folds '-' (and every other unsupported character) to
         '_', so distinct series names can collide after the fold — e.g.
         "host-heap-words" vs "host_heap_words" — and a duplicate metric
         name makes the whole exposition invalid. Deduplicate
         deterministically with a numeric suffix. *)
      let seen = Hashtbl.create 16 in
      let unique metric =
        match Hashtbl.find_opt seen metric with
        | None ->
            Hashtbl.add seen metric 1;
            metric
        | Some n ->
            Hashtbl.replace seen metric (n + 1);
            Printf.sprintf "%s_%d" metric (n + 1)
      in
      let lbl = render_labels labels in
      let line name kind value =
        let metric = unique (sanitize ("diva_" ^ name)) in
        Printf.bprintf b "# TYPE %s %s\n%s%s %s\n" metric kind metric lbl
          (cell value)
      in
      List.iteri (fun i (name, _) -> line name "gauge" row.(i)) (cols t);
      line "sample_ts_us" "gauge" ts;
      Buffer.contents b

let to_json t =
  Json.Obj
    [
      ("columns", Json.List (List.map (fun c -> Json.String c) (columns t)));
      ( "rows",
        Json.List
          (List.map
             (fun (ts, row) ->
               Json.List
                 (Json.Float ts
                 :: Array.to_list (Array.map (fun v -> Json.Float v) row)))
             (rows t)) );
    ]
