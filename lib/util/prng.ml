(* The splitmix64 state as 8 raw bytes: a mutable [int64] field would box
   every new state, these are read and written unboxed. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create ~seed = of_state (mix64 (Int64.of_int seed))

let[@inline] bits64 t =
  let s = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 s;
  mix64 s

let split t = of_state (bits64 t)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection-free modulo is fine here: bounds are tiny relative to 2^62. *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  v mod bound

(* A uniform draw from [0, 1): the top 53 bits over 2^53. *)
let[@inline] unit_float t =
  Int64.to_float (Int64.shift_right_logical (bits64 t) 11)
  /. 9007199254740992.0

let float t bound = bound *. unit_float t

let[@inline] chance t p = unit_float t < p

let bool t = Int64.logand (bits64 t) 1L = 1L

let hash2 seed x =
  mix64 (Int64.add (mix64 (Int64.add seed (Int64.of_int x))) golden_gamma)

let hash2_int seed x ~bound =
  if bound <= 0 then invalid_arg "Prng.hash2_int: bound must be positive";
  let v = Int64.to_int (Int64.shift_right_logical (hash2 seed x) 2) in
  v mod bound
