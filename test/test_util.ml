(* Unit and property tests for lib/util. *)

module Prng = Diva_util.Prng
module Heap = Diva_util.Event_queue
module Stats = Diva_util.Stats
module Table = Diva_util.Table

(* Remove and return the minimum entry, or [None] on an empty queue. *)
let pop_min h =
  if Heap.is_empty h then None
  else
    let p = Heap.min_priority_exn h in
    Some (p, Heap.pop_exn h)

let test_prng_determinism () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:1 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 a = Prng.bits64 b then incr same
  done;
  Alcotest.(check int) "different seeds diverge" 0 !same

let test_prng_split_independence () =
  let a = Prng.create ~seed:1 in
  let c = Prng.split a in
  let xs = List.init 32 (fun _ -> Prng.bits64 a) in
  let ys = List.init 32 (fun _ -> Prng.bits64 c) in
  Alcotest.(check bool) "split streams differ" false (xs = ys)

let test_prng_int_range () =
  let a = Prng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Prng.int a 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_prng_int_coverage () =
  let a = Prng.create ~seed:4 in
  let seen = Array.make 8 false in
  for _ = 1 to 500 do
    seen.(Prng.int a 8) <- true
  done;
  Alcotest.(check bool) "all buckets hit" true (Array.for_all Fun.id seen)

let test_prng_float_range () =
  let a = Prng.create ~seed:5 in
  for _ = 1 to 1000 do
    let v = Prng.float a 2.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 2.5)
  done

let test_hash2_deterministic () =
  Alcotest.(check int64) "stable" (Prng.hash2 42L 7) (Prng.hash2 42L 7);
  Alcotest.(check bool) "distinct inputs" true (Prng.hash2 42L 7 <> Prng.hash2 42L 8)

let test_hash2_int_range () =
  for i = 0 to 999 do
    let v = Prng.hash2_int 99L i ~bound:13 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 13)
  done

(* Known answers: the streams are part of every golden, so the first
   outputs of each entry point are pinned. *)
let test_prng_known_answers () =
  let a = Prng.create ~seed:17 in
  Alcotest.(check (list int64)) "create ~seed:17"
    [ 3676530691901710540L; -349246886236428807L; 7999293385397306638L ]
    (List.init 3 (fun _ -> Prng.bits64 a));
  let a = Prng.create ~seed:17 in
  let c = Prng.split a in
  Alcotest.(check int64) "split child" 76815928076556714L (Prng.bits64 c);
  Alcotest.(check int64) "split parent" (-349246886236428807L) (Prng.bits64 a);
  let a = Prng.create ~seed:17 in
  Alcotest.(check (list int)) "int" [ 635; 702; 659; 123; 939 ]
    (List.init 5 (fun _ -> Prng.int a 1000));
  let a = Prng.create ~seed:17 in
  Alcotest.(check (list (float 0.0))) "float"
    [ 0x1.982d497b44fbp-3; 0x1.f64e739d5deecp-1; 0x1.bc0ccbcecaf4p-2 ]
    (List.init 3 (fun _ -> Prng.float a 1.0));
  Alcotest.(check int64) "hash2" (-3507465477338358395L) (Prng.hash2 42L 7);
  Alcotest.(check int) "hash2_int" 305 (Prng.hash2_int 42L 7 ~bound:1000)

let test_prng_alloc_free () =
  let a = Prng.create ~seed:17 in
  let sum = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    sum := !sum + Prng.int a 100
  done;
  let words = Gc.minor_words () -. w0 in
  ignore (Sys.opaque_identity !sum);
  Alcotest.(check (float 0.0)) "minor words for 10 000 draws" 0.0 words

(* [chance] is the [float r 1.0 < p] draw without boxing the drawn float:
   no minor words over 10 000 draws, and the same answers as a second
   stream on the same seed drawing [float r 1.0 < p]. *)
let chances r p n =
  let hits = ref 0 in
  for _ = 1 to n do
    if Prng.chance r p then incr hits
  done;
  !hits

let test_prng_chance () =
  let a = Prng.create ~seed:17 in
  let w0 = Gc.minor_words () in
  let hits =
    chances a 0.0 2000 + chances a 0.2 2000 + chances a 0.5 2000
    + chances a 0.8 2000 + chances a 1.0 2000
  in
  let words = Gc.minor_words () -. w0 in
  ignore (Sys.opaque_identity hits);
  Alcotest.(check (float 0.0)) "minor words for 10 000 draws" 0.0 words;
  let a = Prng.create ~seed:17 and b = Prng.create ~seed:17 in
  List.iter
    (fun p ->
      for i = 1 to 2000 do
        if Prng.chance a p <> (Prng.float b 1.0 < p) then
          Alcotest.failf "draw %d (p = %g): chance disagrees with float" i p
      done)
    [ 0.0; 0.2; 0.5; 0.8; 1.0 ]

let test_heap_ordering () =
  let h = Heap.create () in
  let rng = Prng.create ~seed:11 in
  let n = 500 in
  for i = 0 to n - 1 do
    Heap.insert h (Prng.float rng 100.0) i
  done;
  let last = ref neg_infinity in
  let count = ref 0 in
  let continue = ref true in
  while !continue do
    match pop_min h with
    | None -> continue := false
    | Some (p, _) ->
        Alcotest.(check bool) "non-decreasing" true (p >= !last);
        last := p;
        incr count
  done;
  Alcotest.(check int) "all popped" n !count

let test_heap_fifo_ties () =
  let h = Heap.create () in
  for i = 0 to 9 do
    Heap.insert h 1.0 i
  done;
  for i = 0 to 9 do
    match pop_min h with
    | Some (_, v) -> Alcotest.(check int) "fifo among ties" i v
    | None -> Alcotest.fail "heap empty early"
  done

let test_heap_interleaved () =
  let h = Heap.create () in
  Heap.insert h 5.0 `A;
  Heap.insert h 1.0 `B;
  Alcotest.(check bool) "min priority" true (Heap.min_priority_exn h = 1.0);
  (match pop_min h with
  | Some (_, `B) -> ()
  | _ -> Alcotest.fail "expected B");
  Heap.insert h 0.5 `C;
  (match pop_min h with
  | Some (_, `C) -> ()
  | _ -> Alcotest.fail "expected C");
  (match pop_min h with
  | Some (_, `A) -> ()
  | _ -> Alcotest.fail "expected A");
  Alcotest.(check bool) "empty" true (Heap.is_empty h)

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops sorted" ~count:200
    QCheck.(list (pair (float_bound_inclusive 1000.0) small_int))
    (fun items ->
      let h = Heap.create () in
      List.iter (fun (p, v) -> Heap.insert h p v) items;
      let rec drain acc =
        match pop_min h with
        | None -> List.rev acc
        | Some (p, _) -> drain (p :: acc)
      in
      let popped = drain [] in
      popped = List.sort compare popped)

(* Full reference-model check: the pop sequence must equal a stable sort
   of the insertions by priority — value identity included, so FIFO order
   among equal priorities is verified, not just priority order. Priorities
   are drawn from a handful of values to force plenty of ties. *)
let prop_heap_reference_model =
  QCheck.Test.make ~name:"heap matches stable-sorted reference" ~count:300
    QCheck.(list (pair (int_bound 7) small_int))
    (fun items ->
      let items = List.map (fun (p, v) -> (float_of_int p, v)) items in
      let h = Heap.create () in
      List.iter (fun (p, v) -> Heap.insert h p v) items;
      let rec drain acc =
        match pop_min h with
        | None -> List.rev acc
        | Some (p, v) -> drain ((p, v) :: acc)
      in
      (* List.stable_sort on the priority alone = insertion order among
         ties, which is exactly the queue's documented contract. *)
      let expect =
        List.stable_sort (fun (a, _) (b, _) -> compare a b) items
      in
      drain [] = expect)

(* Interleaved inserts and pops against the same reference, exercising the
   hole-based sift-up/down paths mid-stream rather than only on a full
   drain. *)
let prop_heap_interleaved_model =
  QCheck.Test.make ~name:"heap interleaved ops match reference" ~count:300
    QCheck.(list (pair (option (int_bound 7)) small_int))
    (fun script ->
      let h = Heap.create () in
      let model = ref [] (* (prio, seq, value), kept sorted *) in
      let seq = ref 0 in
      let ok = ref true in
      List.iter
        (fun (op, v) ->
          match op with
          | Some p ->
              let p = float_of_int p in
              Heap.insert h p v;
              (* [seq] is unique, so merging the one new entry into the
                 sorted model gives the list a full sort would. *)
              model :=
                List.merge
                  (fun (a, sa, _) (b, sb, _) -> compare (a, sa) (b, sb))
                  !model [ (p, !seq, v) ];
              incr seq
          | None -> (
              match (pop_min h, !model) with
              | None, [] -> ()
              | Some (p, v), (mp, _, mv) :: rest ->
                  if p <> mp || v <> mv then ok := false else model := rest
              | _ -> ok := false))
        script;
      !ok && Heap.size h = List.length !model)

(* Growth far past the initial capacity: 20k pseudo-random insertions must
   still drain in exact (priority, insertion) order. *)
let test_heap_growth () =
  let h = Heap.create () in
  let r = Diva_util.Prng.create ~seed:9 in
  let items =
    Array.init 20_000 (fun i -> (float_of_int (Diva_util.Prng.int r 1000), i))
  in
  Array.iter (fun (p, v) -> Heap.insert h p v) items;
  Alcotest.(check int) "size" 20_000 (Heap.size h);
  let expect =
    let a = Array.copy items in
    Array.stable_sort (fun (a, _) (b, _) -> compare a b) a;
    a
  in
  Array.iter
    (fun (ep, ev) ->
      let p = Heap.min_priority_exn h in
      let v = Heap.pop_exn h in
      if p <> ep || v <> ev then
        Alcotest.failf "drain mismatch: got (%g, %d), want (%g, %d)" p v ep ev)
    expect;
  Alcotest.(check bool) "drained" true (Heap.is_empty h)

let test_heap_exn_and_limits () =
  let h = Heap.create () in
  (try
     ignore (Heap.min_priority_exn h);
     Alcotest.fail "min_priority_exn on empty should raise"
   with Invalid_argument _ -> ());
  (try
     ignore (Heap.pop_exn h);
     Alcotest.fail "pop_exn on empty should raise"
   with Invalid_argument _ -> ());
  Heap.insert h 3.0 "x";
  Heap.insert h 1.0 "y";
  Alcotest.(check (float 0.0)) "min_priority_exn" 1.0 (Heap.min_priority_exn h);
  Alcotest.(check string) "pop_exn" "y" (Heap.pop_exn h);
  Alcotest.(check string) "pop_exn last" "x" (Heap.pop_exn h);
  Alcotest.(check bool) "drained" true (Heap.is_empty h);
  (* A key packs the sequence number above the slot index: 24 bits of
     slot, the 38 bits up to the sign bit of sequence. *)
  Heap.check_fits ~pending:(1 lsl 24) ~inserts:(1 lsl 38);
  Alcotest.check_raises "slot limit"
    (Invalid_argument
       "Event_queue: 16777217 pending entries exceed the 24-bit slot field \
        (at most 16777216)")
    (fun () -> Heap.check_fits ~pending:((1 lsl 24) + 1) ~inserts:0);
  Alcotest.check_raises "sequence limit"
    (Invalid_argument
       "Event_queue: 274877906945 insertions exceed the 38-bit sequence \
        field (at most 274877906944)")
    (fun () -> Heap.check_fits ~pending:0 ~inserts:((1 lsl 38) + 1))

(* Popped values must not stay reachable from the queue: each
   value's slot is emptied when it leaves. [churn] runs in its own frame so
   that no register or stack slot of the checking code holds a value. *)
let churn w h =
  let n = Weak.length w / 2 in
  let fill base =
    for i = 0 to n - 1 do
      let v = ref (base + i) in
      Weak.set w (base + i) (Some v);
      Heap.insert h (float_of_int (i mod 3)) v
    done
  in
  fill 0;
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Heap.pop_exn h))
  done;
  fill n;
  for _ = 1 to n do
    ignore (Sys.opaque_identity (pop_min h))
  done

let test_heap_releases_values () =
  let w = Weak.create 20 in
  let h = Heap.create () in
  churn w h;
  Gc.full_major ();
  for i = 0 to Weak.length w - 1 do
    if Weak.check w i then
      Alcotest.failf "value %d is still reachable after leaving the queue" i
  done;
  Alcotest.(check bool) "queue still usable" true (Heap.is_empty h)

(* Float values are stored boxed beside the unboxed priorities. *)
let test_heap_float_values () =
  let h = Heap.create () in
  List.iter (fun x -> Heap.insert h x (x *. 0.5)) [ 3.0; 1.0; 2.0; 1.0 ];
  let popped = List.init 4 (fun _ -> Heap.pop_exn h) in
  Alcotest.(check (list (float 0.0))) "values" [ 0.5; 0.5; 1.0; 1.5 ] popped

(* Interleaved insert / pop / drain against a stable-sorted list model:
   slots freed by pops are reused without disturbing the (priority,
   insertion) order. Entries carry two values, a function and its
   argument, as the simulator's events do; each pop must hand back the two
   that went in together. The script ends with a drain and enough inserts
   to grow the queue past any capacity the script reached, then drains
   again: an empty queue must leave the free-slot stack whole for the
   growth that follows. *)
let prop_heap_drain_model =
  QCheck.Test.make ~count:300 ~name:"heap with drains matches model"
    QCheck.(list (pair (int_range 0 9) small_nat))
    (fun script ->
      let h = Heap.create () in
      let model = ref [] (* (prio, seq, value), kept sorted *) in
      let seq = ref 0 in
      let ok = ref true in
      let insert v =
        let p = float_of_int (v mod 7) in
        Heap.insert2 h p (fun x -> (v, x)) (string_of_int v);
        model :=
          List.merge
            (fun (a, sa, _) (b, sb, _) -> compare (a, sa) (b, sb))
            !model [ (p, !seq, v) ];
        incr seq
      in
      let pop () =
        match (!model, Heap.is_empty h) with
        | [], true -> ()
        | (mp, _, mv) :: rest, false ->
            let p = Heap.min_priority_exn h in
            let x = Heap.min_snd_exn h in
            let f = Heap.pop_exn h in
            if p <> mp || f x <> (mv, string_of_int mv) then ok := false
            else model := rest
        | _ -> ok := false
      in
      let drain () =
        while !ok && not (Heap.is_empty h) do
          pop ()
        done
      in
      List.iter
        (fun (op, v) ->
          if op = 0 then drain () else if op <= 3 then pop () else insert v)
        script;
      let mid = !ok && Heap.size h = List.length !model in
      drain ();
      for v = 0 to 299 do
        insert v
      done;
      for _ = 0 to 299 do
        pop ()
      done;
      mid && !ok && Heap.is_empty h && !model = [])

(* Allocation gate: a steady-depth insert + pop allocates only the test
   loop's own two boxed floats (the priority passed to [insert] and the one
   [min_priority_exn] returns), 4 words. The queue itself must add none. *)
let test_heap_alloc_gate () =
  let depth = 64 and ops = 200_000 in
  let incs =
    Array.init 4096 (fun i -> float_of_int (1 + (i * 7919 mod 97)) /. 10.0)
  in
  let q = Heap.create () in
  for i = 0 to depth - 1 do
    Heap.insert q incs.(i) i
  done;
  let w0 = Gc.minor_words () in
  for i = 0 to ops - 1 do
    let now = Heap.min_priority_exn q in
    let v = Heap.pop_exn q in
    Heap.insert q (now +. incs.(i land 4095)) v
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int ops in
  if words > 4.0 then
    Alcotest.failf "insert + pop allocates %.3f words, over the gate of 4" words

let test_stats () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean [| 1.0; 2.0; 3.0 |]);
  Alcotest.(check (float 1e-9)) "percent" 50.0 (Stats.percent 1.0 2.0);
  Alcotest.(check (float 1e-9)) "ratio zero den" 0.0 (Stats.ratio 1.0 0.0);
  Alcotest.(check int) "ilog2 exact" 5 (Stats.ilog2 32);
  Alcotest.(check int) "ilog2 floor" 5 (Stats.ilog2 63);
  Alcotest.(check bool) "pow2 yes" true (Stats.is_power_of_two 64);
  Alcotest.(check bool) "pow2 no" false (Stats.is_power_of_two 48);
  Alcotest.(check bool) "pow2 zero" false (Stats.is_power_of_two 0)

let test_percentile () =
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Stats.percentile 50.0 [||]);
  let one = [| 7.5 |] in
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "single element, p%g" p)
        7.5 (Stats.percentile p one))
    [ 0.0; 50.0; 100.0 ];
  (* Unsorted input; nearest rank on the sorted copy. *)
  let a = [| 30.0; 10.0; 50.0; 20.0; 40.0 |] in
  Alcotest.(check (float 1e-9)) "p0 = min" 10.0 (Stats.percentile 0.0 a);
  Alcotest.(check (float 1e-9)) "p50 = median" 30.0 (Stats.percentile 50.0 a);
  Alcotest.(check (float 1e-9)) "p100 = max" 50.0 (Stats.percentile 100.0 a);
  Alcotest.(check (float 1e-9)) "p95 -> max of 5" 50.0 (Stats.percentile 95.0 a);
  Alcotest.(check (float 1e-9)) "p20 -> 1st of 5" 10.0 (Stats.percentile 20.0 a);
  Alcotest.(check (float 1e-9)) "p21 -> 2nd of 5" 20.0 (Stats.percentile 21.0 a);
  (* Input is left untouched. *)
  Alcotest.(check (array (float 0.0))) "input unmodified"
    [| 30.0; 10.0; 50.0; 20.0; 40.0 |] a;
  (* Out-of-range p clamps rather than raising. *)
  Alcotest.(check (float 1e-9)) "p<0 clamps" 10.0 (Stats.percentile (-3.0) a);
  Alcotest.(check (float 1e-9)) "p>100 clamps" 50.0 (Stats.percentile 140.0 a)

(* Basic Event_queue behaviour (the canonical name; the historical
   [Pairing_heap] alias is gone). *)
let test_event_queue_basics () =
  let h = Diva_util.Event_queue.create () in
  Diva_util.Event_queue.insert h 2.0 "b";
  Diva_util.Event_queue.insert h 1.0 "a";
  (match pop_min h with
  | Some (_, "a") -> ()
  | _ -> Alcotest.fail "min-heap order violated");
  Alcotest.(check int) "size after pop" 1 (Diva_util.Event_queue.size h)

let contains_substring s needle =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_table_render () =
  let t = Table.create ~header:[ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "333"; "4" ];
  let s = Table.render t in
  Alcotest.(check bool) "contains rule" true (String.contains s '-');
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains_substring s needle))
    [ "a"; "bb"; "1"; "2"; "333"; "4" ];
  Alcotest.(check string) "fstr small" "3.14" (Table.fstr 3.14159);
  Alcotest.(check string) "fstr mid" "1234.5" (Table.fstr 1234.5);
  Alcotest.(check string) "fstr large" "123457" (Table.fstr 123456.7)

let suite =
  [
    Alcotest.test_case "prng determinism" `Quick test_prng_determinism;
    Alcotest.test_case "prng seed sensitivity" `Quick test_prng_seed_sensitivity;
    Alcotest.test_case "prng split independence" `Quick test_prng_split_independence;
    Alcotest.test_case "prng int range" `Quick test_prng_int_range;
    Alcotest.test_case "prng int coverage" `Quick test_prng_int_coverage;
    Alcotest.test_case "prng float range" `Quick test_prng_float_range;
    Alcotest.test_case "hash2 deterministic" `Quick test_hash2_deterministic;
    Alcotest.test_case "hash2 int range" `Quick test_hash2_int_range;
    Alcotest.test_case "prng known answers" `Quick test_prng_known_answers;
    Alcotest.test_case "prng draws allocate nothing" `Quick test_prng_alloc_free;
    Alcotest.test_case "prng chance is the float draw" `Quick test_prng_chance;
    Alcotest.test_case "heap ordering" `Quick test_heap_ordering;
    Alcotest.test_case "heap fifo ties" `Quick test_heap_fifo_ties;
    Alcotest.test_case "heap interleaved" `Quick test_heap_interleaved;
    QCheck_alcotest.to_alcotest prop_heap_sorted;
    QCheck_alcotest.to_alcotest prop_heap_reference_model;
    QCheck_alcotest.to_alcotest prop_heap_interleaved_model;
    Alcotest.test_case "heap growth past 10k" `Quick test_heap_growth;
    Alcotest.test_case "heap exn ops and limits" `Quick test_heap_exn_and_limits;
    Alcotest.test_case "heap releases popped values" `Quick
      test_heap_releases_values;
    Alcotest.test_case "heap float values" `Quick test_heap_float_values;
    QCheck_alcotest.to_alcotest prop_heap_drain_model;
    Alcotest.test_case "heap allocation gate" `Quick test_heap_alloc_gate;
    Alcotest.test_case "stats helpers" `Quick test_stats;
    Alcotest.test_case "stats percentile" `Quick test_percentile;
    Alcotest.test_case "event_queue basics" `Quick test_event_queue_basics;
    Alcotest.test_case "table render" `Quick test_table_render;
  ]

(* --- Value (universal payloads) and Machine -------------------------- *)

let test_value_embedding () =
  let inj_i, proj_i = Diva_core.Value.embed () in
  let inj_s, proj_s = Diva_core.Value.embed () in
  Alcotest.(check int) "roundtrip int" 42 (proj_i (inj_i 42));
  Alcotest.(check string) "roundtrip string" "x" (proj_s (inj_s "x"));
  (* Projecting through the wrong embedding is a type error at runtime. *)
  match proj_i (inj_s "boom") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "wrong embedding accepted"

let test_machine_model () =
  let m = Diva_simnet.Machine.gcel in
  Alcotest.(check (float 1e-9)) "1 byte per us" 1024.0
    (Diva_simnet.Machine.transfer_time m 1024);
  (* The paper's link/processor speed ratio of ~0.86 for 4-byte words. *)
  let word_transfer = Diva_simnet.Machine.transfer_time m 4 in
  let word_adds = 1.0 /. m.Diva_simnet.Machine.int_op_time *. word_transfer in
  Alcotest.(check bool)
    (Printf.sprintf "link/cpu ratio ~0.86 (got %.2f)" word_adds)
    true
    (word_adds > 0.8 && word_adds < 1.4)

let suite =
  suite
  @ [
      Alcotest.test_case "value embedding" `Quick test_value_embedding;
      Alcotest.test_case "machine model" `Quick test_machine_model;
    ]
