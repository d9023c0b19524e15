type 'a t = {
  mutable keys : int array;  (* -1 marks an empty slot *)
  mutable vals : 'a array;
  mutable shift : int;  (* 63 - log2 (capacity) *)
  mutable size : int;
  init_bits : int;
  dummy : 'a;
}

(* Fibonacci hashing: the top [log2 capacity] bits of [k * golden]
   (2^64 / phi cut to its top 60 bits, an odd number) spread runs of
   small keys such as tree-node ids over the whole table. *)
let golden = 0x9E3779B97F4A7C1

let rec bits_for n b = if 1 lsl b >= 2 * n then b else bits_for n (b + 1)

let create ~dummy n =
  let b = bits_for (max n 4) 3 in
  { keys = Array.make (1 lsl b) (-1); vals = Array.make (1 lsl b) dummy;
    shift = 63 - b; size = 0; init_bits = b; dummy }

let length t = t.size

(* The slot holding [k], or the empty slot where it would go. The table
   is never more than half full, so the scan always ends. *)
let rec probe keys mask k i =
  let x = Array.unsafe_get keys i in
  if x = k || x < 0 then i else probe keys mask k ((i + 1) land mask)

let index t k =
  let keys = t.keys in
  probe keys (Array.length keys - 1) k ((k * golden) lsr t.shift)

let find t k =
  let i = index t k in
  if k >= 0 && Array.unsafe_get t.keys i = k then Array.unsafe_get t.vals i
  else raise Not_found

let mem t k = k >= 0 && t.keys.(index t k) = k

let grow t =
  let keys = t.keys and vals = t.vals in
  let cap = 2 * Array.length keys in
  t.keys <- Array.make cap (-1);
  t.vals <- Array.make cap t.dummy;
  t.shift <- t.shift - 1;
  Array.iteri
    (fun j k ->
      if k >= 0 then begin
        let i = index t k in
        t.keys.(i) <- k;
        t.vals.(i) <- vals.(j)
      end)
    keys

let add t k v =
  if k < 0 then invalid_arg "Int_table.add: negative key";
  let i = index t k in
  if t.keys.(i) = k then t.vals.(i) <- v
  else begin
    t.keys.(i) <- k;
    t.vals.(i) <- v;
    t.size <- t.size + 1;
    if 2 * t.size > Array.length t.keys then grow t
  end

let iter f t =
  let keys = t.keys and vals = t.vals in
  for i = 0 to Array.length keys - 1 do
    let k = keys.(i) in
    if k >= 0 then f k vals.(i)
  done

let reset t =
  let cap = 1 lsl t.init_bits in
  if Array.length t.keys = cap then begin
    Array.fill t.keys 0 cap (-1);
    Array.fill t.vals 0 cap t.dummy
  end
  else begin
    t.keys <- Array.make cap (-1);
    t.vals <- Array.make cap t.dummy;
    t.shift <- 63 - t.init_bits
  end;
  t.size <- 0
