module Network = Diva_simnet.Network
module Dsm = Diva_core.Dsm
module Runner = Diva_harness.Runner

(* The samples buffer grows as operations complete; fibers are
   cooperative, so there is no concurrency, only an unknown completion
   order. *)
type t = {
  net : Network.t;
  dsm : Dsm.t;
  oracle : Oracle.t option;
  mutable samples : float array;
  mutable n : int;
}

let add_sample t x =
  if t.n = Array.length t.samples then begin
    let buf = Array.make (max 1024 (2 * Array.length t.samples)) 0.0 in
    Array.blit t.samples 0 buf 0 t.n;
    t.samples <- buf
  end;
  t.samples.(t.n) <- x;
  t.n <- t.n + 1

let run ~obs ~on_net ~oracle ~seed ~dims ~strategy ~capacity source =
  Runner.simulate ~seed ~obs ?on_net ~dims (fun net ->
      let dsm = Dsm.create net ~strategy () in
      let t = { net; dsm; oracle; samples = Array.make capacity 0.0; n = 0 } in
      ( source t,
        fun () ->
          let m = Runner.collect net (Some dsm) in
          (m, Latency.of_samples (Array.sub t.samples 0 t.n)) ))

let net t = t.net
let dsm t = t.dsm

let var t ~key ~name ~owner ~size =
  (match t.oracle with
  | Some o -> Oracle.init_var o ~var:key ~value:0
  | None -> ());
  Dsm.create_var t.dsm ~name ~owner ~size 0

let key_vars t ~prefix ~size n =
  let procs = Network.num_nodes t.net in
  Array.init n (fun k ->
      var t ~key:k ~name:(prefix ^ string_of_int k) ~owner:(k mod procs) ~size)

(* Apart from [issue], so that the unchecked path's stack frame, which
   every blocked fiber holds, stays small. *)
let checked t o p ~key v ~read =
  let t0 = Network.now t.net in
  if read then begin
    let x = Dsm.read t.dsm p v in
    Oracle.record_read o ~var:key ~proc:p ~value:x ~t0 ~t1:(Network.now t.net)
  end
  else begin
    let value = Oracle.next_write_value o in
    Dsm.write t.dsm p v value;
    Oracle.record_write o ~var:key ~proc:p ~value ~t0 ~t1:(Network.now t.net)
  end

let issue t p ~key v ~t0 ~read ~value =
  (match t.oracle with
  | None ->
      if read then ignore (Dsm.read t.dsm p v : int)
      else Dsm.write t.dsm p v value
  | Some o -> checked t o p ~key v ~read);
  add_sample t (Network.now t.net -. t0)
