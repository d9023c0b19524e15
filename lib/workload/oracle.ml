type op = { o_proc : int; o_value : int; o_t0 : float; o_t1 : float }

type var_log = { mutable writes : op list; mutable reads : op list }
(* Both newest-first; reversed once in [check]. *)

type t = {
  vars : (int, var_log) Hashtbl.t;
  mutable next_val : int;
  mutable n_ops : int;
}

let create () = { vars = Hashtbl.create 64; next_val = 1; n_ops = 0 }

let log t var =
  match Hashtbl.find_opt t.vars var with
  | Some l -> l
  | None ->
      let l = { writes = []; reads = [] } in
      Hashtbl.add t.vars var l;
      l

let init_var t ~var ~value =
  let l = log t var in
  l.writes <-
    { o_proc = -1; o_value = value; o_t0 = Float.neg_infinity;
      o_t1 = Float.neg_infinity }
    :: l.writes

let next_write_value t =
  let v = t.next_val in
  t.next_val <- v + 1;
  v

let record t ~var ~proc ~value ~t0 ~t1 side =
  if t1 < t0 then invalid_arg "Oracle.record: interval ends before it starts";
  let l = log t var in
  let o = { o_proc = proc; o_value = value; o_t0 = t0; o_t1 = t1 } in
  (match side with `R -> l.reads <- o :: l.reads | `W -> l.writes <- o :: l.writes);
  t.n_ops <- t.n_ops + 1

let record_read t ~var ~proc ~value ~t0 ~t1 = record t ~var ~proc ~value ~t0 ~t1 `R
let record_write t ~var ~proc ~value ~t0 ~t1 = record t ~var ~proc ~value ~t0 ~t1 `W

let ops t = t.n_ops

(* Strict real-time precedence: a finished entirely before b began.
   Overlapping intervals are concurrent and never "precede". *)
let precedes a b = a.o_t1 < b.o_t0

let pp_op var what o =
  if o.o_t0 = Float.neg_infinity then
    Printf.sprintf "initial value %d of v%d" o.o_value var
  else
    Printf.sprintf "%s of %d on v%d by p%d in [%.1f, %.1f]" what o.o_value var
      o.o_proc o.o_t0 o.o_t1

let check_var var l =
  let writes = List.rev l.writes in
  let reads = List.rev l.reads in
  let exception Violation of string in
  let fail fmt = Printf.ksprintf (fun s -> raise (Violation s)) fmt in
  try
    (* Every read names its (unique-valued) candidate write; the write
       must not be definitely overwritten before the read began. *)
    let source r =
      match List.filter (fun w -> w.o_value = r.o_value) writes with
      | [] ->
          fail "%s: value was never written to this variable"
            (pp_op var "read" r)
      | ws ->
          if
            List.for_all
              (fun w ->
                List.exists
                  (fun w2 -> w2 != w && precedes w w2 && precedes w2 r)
                  writes)
              ws
          then
            fail "%s is stale: %s, but a later write finished before the read \
                  began"
              (pp_op var "read" r)
              (pp_op var "write" (List.hd ws));
          ws
    in
    let sources = List.map (fun r -> (r, source r)) reads in
    (* Read inversion: reads in disjoint real time must observe writes in
       an order consistent with real time. Only flagged when every
       candidate pair is strictly inverted. *)
    List.iter
      (fun (r1, ws1) ->
        List.iter
          (fun (r2, ws2) ->
            if precedes r1 r2 && r1.o_value <> r2.o_value then
              if
                List.for_all
                  (fun w2 -> List.for_all (fun w1 -> precedes w2 w1) ws1)
                  ws2
              then
                fail "%s, then %s: the second read observes the older write"
                  (pp_op var "read" r1) (pp_op var "read" r2))
          sources)
      sources;
    Ok ()
  with Violation msg -> Error msg

(* Variables in ascending id order, so the violation reported first does
   not depend on hash order. *)
let check t =
  Hashtbl.fold (fun var l acc -> (var, l) :: acc) t.vars []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.fold_left
       (fun acc (var, l) -> Result.bind acc (fun () -> check_var var l))
       (Ok ())
