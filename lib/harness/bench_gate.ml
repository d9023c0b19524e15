module Json = Diva_obs.Json

type baseline = { text : string; doc : Json.t }

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> (
      match Json.of_string text with
      | Ok doc -> Ok { text; doc }
      | Error e -> Error (Printf.sprintf "cannot parse %s: %s" path e))

(* Walk both documents in lockstep, comparing every leaf by its rendered
   text, so a leaf that moved by one ulp reads as two distinct numbers. *)
let diff ~baseline ~current =
  let lines = ref [] in
  let add fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
  let rec walk path b c =
    match (b, c) with
    | Json.Obj bs, Json.Obj cs ->
        let sub k = if path = "" then k else path ^ "/" ^ k in
        List.iter
          (fun (k, bv) ->
            match List.assoc_opt k cs with
            | Some cv -> walk (sub k) bv cv
            | None ->
                add "%s: in the baseline, missing from the current run" (sub k))
          bs;
        List.iter
          (fun (k, _) ->
            if not (List.mem_assoc k bs) then
              add "%s: in the current run, absent from the baseline" (sub k))
          cs
    | _ ->
        let b = Json.to_string b and c = Json.to_string c in
        if b <> c then add "%s: baseline %s, current %s" path b c
  in
  walk "" baseline current;
  List.rev !lines

(* [Json.to_file] writes the document and a newline. *)
let check b current =
  if Json.to_string current ^ "\n" = b.text then []
  else
    match diff ~baseline:b.doc ~current with
    | [] -> [ "every leaf is equal, but the key order or the spelling differs" ]
    | lines -> lines
