let sumf a = Array.fold_left ( +. ) 0.0 a

let mean a = if Array.length a = 0 then 0.0 else sumf a /. float_of_int (Array.length a)


let percent num den = if den = 0.0 then 0.0 else 100.0 *. num /. den
let ratio num den = if den = 0.0 then 0.0 else num /. den

let sorted_percentile p s =
  let n = Array.length s in
  if n = 0 then 0.0
  else begin
    let p = Float.max 0.0 (Float.min 100.0 p) in
    (* The epsilon keeps float noise in p/100*n from pushing the rank past
       an exact integer product (e.g. 99.9% of 1000 must rank 999, but the
       double product lands a hair above 999 and would ceil to 1000). *)
    let rank =
      int_of_float (Float.ceil ((p /. 100.0 *. float_of_int n) -. 1e-9))
    in
    s.(max 0 (min (n - 1) (rank - 1)))
  end

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let percentile p a = sorted_percentile p (sorted a)

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let ilog2 n =
  if n < 1 then invalid_arg "Stats.ilog2";
  let rec go acc n = if n = 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n
