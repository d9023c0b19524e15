(* Unit and property tests for lib/util. *)

module Prng = Diva_util.Prng
module Heap = Diva_util.Event_queue
module Stats = Diva_util.Stats
module Table = Diva_util.Table

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

let test_shuffle_permutation () =
  let a = Prng.create ~seed:6 in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle a arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

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
    match Heap.pop_min h with
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
    match Heap.pop_min h with
    | Some (_, v) -> Alcotest.(check int) "fifo among ties" i v
    | None -> Alcotest.fail "heap empty early"
  done

let test_heap_interleaved () =
  let h = Heap.create () in
  Heap.insert h 5.0 `A;
  Heap.insert h 1.0 `B;
  Alcotest.(check bool) "min priority" true (Heap.min_priority h = Some 1.0);
  (match Heap.pop_min h with
  | Some (_, `B) -> ()
  | _ -> Alcotest.fail "expected B");
  Heap.insert h 0.5 `C;
  (match Heap.pop_min h with
  | Some (_, `C) -> ()
  | _ -> Alcotest.fail "expected C");
  (match Heap.pop_min h with
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
        match Heap.pop_min h with
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
        match Heap.pop_min h with
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
      let model = ref [] (* (prio, seq, value), kept stable-sorted *) in
      let seq = ref 0 in
      let ok = ref true in
      List.iter
        (fun (op, v) ->
          match op with
          | Some p ->
              let p = float_of_int p in
              Heap.insert h p v;
              model :=
                List.stable_sort
                  (fun (a, sa, _) (b, sb, _) -> compare (a, sa) (b, sb))
                  ((p, !seq, v) :: !model);
              incr seq
          | None -> (
              match (Heap.pop_min h, !model) with
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

let test_heap_exn_and_clear () =
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
  Heap.insert h 2.0 "z";
  Heap.clear h;
  Alcotest.(check bool) "cleared" true (Heap.is_empty h);
  Alcotest.(check int) "cleared size" 0 (Heap.size h);
  (* FIFO tie-break spans a clear: sequence numbers keep advancing. *)
  Heap.insert h 1.0 "after";
  Alcotest.(check string) "usable after clear" "after" (Heap.pop_exn h)

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
  (match Diva_util.Event_queue.pop_min h with
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
    Alcotest.test_case "shuffle is permutation" `Quick test_shuffle_permutation;
    Alcotest.test_case "heap ordering" `Quick test_heap_ordering;
    Alcotest.test_case "heap fifo ties" `Quick test_heap_fifo_ties;
    Alcotest.test_case "heap interleaved" `Quick test_heap_interleaved;
    QCheck_alcotest.to_alcotest prop_heap_sorted;
    QCheck_alcotest.to_alcotest prop_heap_reference_model;
    QCheck_alcotest.to_alcotest prop_heap_interleaved_model;
    Alcotest.test_case "heap growth past 10k" `Quick test_heap_growth;
    Alcotest.test_case "heap exn ops and clear" `Quick test_heap_exn_and_clear;
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

(* --- Int_table against Stdlib.Hashtbl --------------------------------- *)

module Int_table = Diva_util.Int_table

type it_op = Add of int * int | Find of int | Mem of int | Iter | Reset

let it_op_print = function
  | Add (k, v) -> Printf.sprintf "add %d %d" k v
  | Find k -> Printf.sprintf "find %d" k
  | Mem k -> Printf.sprintf "mem %d" k
  | Iter -> "iter"
  | Reset -> "reset"

(* Keys up to 400 and 60% adds grow the table through several doublings
   (it starts at 8 slots); about one op in a hundred is a reset, so the
   table regrows after one. *)
let it_op_gen =
  QCheck.Gen.(
    frequency
      [
        (60, map2 (fun k v -> Add (k, v)) (int_bound 400) small_int);
        (20, map (fun k -> Find k) (int_bound 400));
        (15, map (fun k -> Mem k) (int_bound 400));
        (4, pure Iter);
        (1, pure Reset);
      ])

let prop_int_table_model =
  QCheck.Test.make ~name:"int_table matches Hashtbl model" ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map it_op_print ops))
       QCheck.Gen.(list_size (int_range 0 600) it_op_gen))
    (fun ops ->
      let t = Int_table.create ~dummy:(-1) 4 and m = Hashtbl.create 8 in
      let bindings iter =
        let acc = ref [] in
        iter (fun k v -> acc := (k, v) :: !acc);
        List.sort compare !acc
      in
      List.for_all
        (fun op ->
          (match op with
          | Add (k, v) ->
              Int_table.add t k v;
              Hashtbl.replace m k v
          | Reset ->
              Int_table.reset t;
              Hashtbl.reset m
          | Find _ | Mem _ | Iter -> ());
          let agrees =
            match op with
            | Find k ->
                (match Int_table.find t k with
                | v -> Some v
                | exception Not_found -> None)
                = Hashtbl.find_opt m k
            | Mem k -> Int_table.mem t k = Hashtbl.mem m k
            | Iter ->
                bindings (fun f -> Int_table.iter f t)
                = bindings (fun f -> Hashtbl.iter f m)
            | Add _ | Reset -> true
          in
          agrees && Int_table.length t = Hashtbl.length m)
        ops
      && bindings (fun f -> Int_table.iter f t) = bindings (fun f -> Hashtbl.iter f m))

let test_int_table_edges () =
  let t = Int_table.create ~dummy:"" 0 in
  Alcotest.(check bool) "negative key absent" false (Int_table.mem t (-1));
  Alcotest.check_raises "negative key not found" Not_found (fun () ->
      ignore (Int_table.find t (-1)));
  Alcotest.check_raises "negative key rejected"
    (Invalid_argument "Int_table.add: negative key") (fun () ->
      Int_table.add t (-1) "x");
  for k = 0 to 9999 do
    Int_table.add t (k * 7) (string_of_int k)
  done;
  Alcotest.(check int) "length after growth" 10000 (Int_table.length t);
  Alcotest.(check string) "find after growth" "1234" (Int_table.find t (1234 * 7));
  Alcotest.(check bool) "absent key" false (Int_table.mem t 3);
  Int_table.reset t;
  Alcotest.(check int) "empty after reset" 0 (Int_table.length t);
  Alcotest.(check bool) "gone after reset" false (Int_table.mem t 0)

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_int_table_model;
      Alcotest.test_case "int_table edges" `Quick test_int_table_edges;
    ]
