(* Deterministic fork/join over OCaml 5 domains.

   The work list is dealt round-robin into [domains] parts; each part is
   mapped in order inside one spawned domain, and the results are
   reassembled in the original order, so the output is identical to
   [List.map f xs] regardless of domain count or scheduling. Exceptions
   propagate: if any item raises, the earliest (by position in [xs])
   exception is re-raised after every domain has been joined, so no
   domain is leaked.

   This is deliberately a one-shot pool, not a work-stealing scheduler:
   its one caller is Run_spec.campaign, the driver of every run-level
   campaign (bench cells, chaos campaigns, rate sweeps, the CLI smokes),
   where each work item is seconds of simulation. Dealing rather than
   cutting contiguous chunks keeps a run of similar, expensive items (a
   figure's largest meshes, one app's cells) spread over every domain.
   A spawned domain starts with OCaml's default minor heap, so each
   worker first takes the caller's size. *)

let deal n xs =
  let parts = Array.make n [] in
  List.iteri (fun i x -> parts.(i mod n) <- x :: parts.(i mod n)) xs;
  Array.map List.rev parts

let map ?(domains = 1) f xs =
  let len = List.length xs in
  if domains <= 1 || len <= 1 then List.map f xs
  else
    let n = min domains len in
    let run part =
      Array.of_list (List.map (fun x -> try Ok (f x) with e -> Error e) part)
    in
    let parts = deal n xs in
    (* Part 0 runs on the calling domain: [domains] means total
       parallelism, not extra helper threads. *)
    let minor_heap_size = (Gc.get ()).Gc.minor_heap_size in
    let worker part () =
      Gc.set { (Gc.get ()) with Gc.minor_heap_size };
      run part
    in
    let handles =
      Array.init (n - 1) (fun i -> Domain.spawn (worker parts.(i + 1)))
    in
    let r0 = run parts.(0) in
    let results = Array.append [| r0 |] (Array.map Domain.join handles) in
    List.init len (fun i -> results.(i mod n).(i / n))
    |> List.map (function Ok y -> y | Error e -> raise e)
