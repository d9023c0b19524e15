type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

(* Strings without a character to escape (every key and nearly every value
   we write) are appended whole. *)
let rec escape_free s i =
  i >= String.length s || ((not (needs_escape s.[i])) && escape_free s (i + 1))

let escape b s =
  if escape_free s 0 then Buffer.add_string b s
  else
    for i = 0 to String.length s - 1 do
      match s.[i] with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c
    done

(* Decimal digits of [m <= 0], most significant first: the recursion
   orders them, so there is no intermediate string, and dividing by the
   constant 10 compiles to a multiplication. Working on the non-positive
   value lets [min_int] through without a special case. *)
let rec add_digits b m =
  if m <= -10 then add_digits b (m / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (m mod 10)))

let add_int b n =
  if n < 0 then begin
    Buffer.add_char b '-';
    add_digits b n
  end
  else add_digits b (-n)

(* Integral floats print without an exponent (Chrome's trace viewer rejects
   timestamps like [1e+06] in some versions) through the integer digit
   loop; everything else uses the shortest %g precision in {15,16,17} that
   parses back to the same double, so writing and re-reading a trace is
   lossless (the offline analyzer depends on this for bit-identical
   reports). *)
let add_float b f =
  if not (Float.is_finite f) then Buffer.add_string b "null"
  else if f = 0.0 then Buffer.add_char b '0' (* covers -0.0: one canonical spelling *)
  else if Float.is_integer f && Float.abs f < 1e15 then add_int b (int_of_float f)
  else
    let s15 = Printf.sprintf "%.15g" f in
    if float_of_string s15 = f then Buffer.add_string b s15
    else
      let s16 = Printf.sprintf "%.16g" f in
      Buffer.add_string b
        (if float_of_string s16 = f then s16 else Printf.sprintf "%.17g" f)

let add_quoted b s =
  Buffer.add_char b '"';
  escape b s;
  Buffer.add_char b '"'

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int v -> add_int b v
  | Float v -> add_float b v
  | String s -> add_quoted b s
  | List [] -> Buffer.add_string b "[]"
  | List (x :: xs) ->
      Buffer.add_char b '[';
      to_buffer b x;
      add_items b xs;
      Buffer.add_char b ']'
  | Obj [] -> Buffer.add_string b "{}"
  | Obj ((k, v) :: kvs) ->
      Buffer.add_char b '{';
      add_member b k v;
      add_members b kvs;
      Buffer.add_char b '}'

and add_items b = function
  | [] -> ()
  | x :: xs ->
      Buffer.add_char b ',';
      to_buffer b x;
      add_items b xs

and add_member b k v =
  add_quoted b k;
  Buffer.add_char b ':';
  to_buffer b v

and add_members b = function
  | [] -> ()
  | (k, v) :: kvs ->
      Buffer.add_char b ',';
      add_member b k v;
      add_members b kvs

let to_string j =
  let b = Buffer.create 256 in
  to_buffer b j;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

let num_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

(* The parser is a set of top-level functions over one cursor, so a parse
   allocates only the values it returns. *)
type cursor = { s : string; n : int; mutable pos : int }

let fail c msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.pos))
let at c ch = c.pos < c.n && c.s.[c.pos] = ch

let skip_ws c =
  while
    c.pos < c.n && (match c.s.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  if at c ch then c.pos <- c.pos + 1 else fail c (Printf.sprintf "expected '%c'" ch)

let rec matches c word i =
  i = String.length word || (c.s.[c.pos + i] = word.[i] && matches c word (i + 1))

let literal c word v =
  let l = String.length word in
  if c.pos + l <= c.n && matches c word 0 then begin
    c.pos <- c.pos + l;
    v
  end
  else fail c (Printf.sprintf "expected %s" word)

(* Decode the rest of a string with escapes into [b], up to and including
   the closing quote. *)
let rec unescape c b =
  if c.pos >= c.n then fail c "unterminated string";
  match c.s.[c.pos] with
  | '"' -> c.pos <- c.pos + 1
  | '\\' ->
      c.pos <- c.pos + 1;
      if c.pos >= c.n then fail c "unterminated escape";
      (match c.s.[c.pos] with
      | '"' -> Buffer.add_char b '"'
      | '\\' -> Buffer.add_char b '\\'
      | '/' -> Buffer.add_char b '/'
      | 'n' -> Buffer.add_char b '\n'
      | 'r' -> Buffer.add_char b '\r'
      | 't' -> Buffer.add_char b '\t'
      | 'b' -> Buffer.add_char b '\b'
      | 'f' -> Buffer.add_char b '\012'
      | 'u' ->
          if c.pos + 4 >= c.n then fail c "truncated \\u escape";
          let hex = String.sub c.s (c.pos + 1) 4 in
          let code =
            match int_of_string_opt ("0x" ^ hex) with
            | Some code -> code
            | None -> fail c "bad \\u escape"
          in
          (* Our writer only emits \u00xx; decode the BMP subset as
             UTF-8 so round-trips of control characters work. *)
          if code < 0x80 then Buffer.add_char b (Char.chr code)
          else if code < 0x800 then begin
            Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
            Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
          end
          else begin
            Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
            Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
          end;
          c.pos <- c.pos + 4
      | ch -> fail c (Printf.sprintf "bad escape '\\%c'" ch));
      c.pos <- c.pos + 1;
      unescape c b
  | ch ->
      Buffer.add_char b ch;
      c.pos <- c.pos + 1;
      unescape c b

(* Escape-free strings are cut out of the input in place; the first
   backslash switches to decoding through a buffer. *)
let parse_string c =
  expect c '"';
  let start = c.pos in
  while c.pos < c.n && c.s.[c.pos] <> '"' && c.s.[c.pos] <> '\\' do
    c.pos <- c.pos + 1
  done;
  if at c '"' then begin
    c.pos <- c.pos + 1;
    String.sub c.s start (c.pos - 1 - start)
  end
  else begin
    let b = Buffer.create ((2 * (c.pos - start)) + 16) in
    Buffer.add_substring b c.s start (c.pos - start);
    unescape c b;
    Buffer.contents b
  end

(* A plain integer — an optional minus and at most 18 digits, too few to
   overflow — is accumulated in place. Anything else (fractions,
   exponents, longer literals) is cut out and handed to the library
   conversions. *)
let parse_number c =
  let start = c.pos in
  let neg = at c '-' in
  if neg then c.pos <- c.pos + 1;
  let digits = c.pos in
  let v = ref 0 in
  while
    c.pos < c.n && c.pos - digits < 18
    && match c.s.[c.pos] with '0' .. '9' -> true | _ -> false
  do
    v := (10 * !v) + (Char.code c.s.[c.pos] - 48);
    c.pos <- c.pos + 1
  done;
  if c.pos > digits && not (c.pos < c.n && num_char c.s.[c.pos]) then
    Int (if neg then - !v else !v)
  else begin
    c.pos <- start;
    while c.pos < c.n && num_char c.s.[c.pos] do
      c.pos <- c.pos + 1
    done;
    let lit = String.sub c.s start (c.pos - start) in
    match int_of_string_opt lit with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt lit with
        | Some f -> Float f
        | None -> fail c (Printf.sprintf "bad number %S" lit))
  end

let rec parse_value c =
  skip_ws c;
  if c.pos >= c.n then fail c "unexpected end of input";
  match c.s.[c.pos] with
  | '"' -> String (parse_string c)
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | 'n' -> literal c "null" Null
  | '[' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if at c ']' then begin
        c.pos <- c.pos + 1;
        List []
      end
      else begin
        let items = ref [ parse_value c ] in
        skip_ws c;
        while at c ',' do
          c.pos <- c.pos + 1;
          items := parse_value c :: !items;
          skip_ws c
        done;
        expect c ']';
        List (Stdlib.List.rev !items)
      end
  | '{' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if at c '}' then begin
        c.pos <- c.pos + 1;
        Obj []
      end
      else begin
        let items = ref [ parse_member c ] in
        skip_ws c;
        while at c ',' do
          c.pos <- c.pos + 1;
          items := parse_member c :: !items;
          skip_ws c
        done;
        expect c '}';
        Obj (Stdlib.List.rev !items)
      end
  | _ -> parse_number c

and parse_member c =
  skip_ws c;
  let k = parse_string c in
  skip_ws c;
  expect c ':';
  let v = parse_value c in
  (k, v)

let of_string s =
  let c = { s; n = String.length s; pos = 0 } in
  match
    let v = parse_value c in
    skip_ws c;
    if c.pos <> c.n then fail c "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

let rec assoc key = function
  | [] -> None
  | (k, v) :: kvs -> if String.equal k key then Some v else assoc key kvs

let member key = function Obj kvs -> assoc key kvs | _ -> None

(* [min_int] is -2^62 and [max_int] + 1 is 2^62, both exact doubles. *)
let int_lo = Float.of_int min_int

let to_int = function
  | Int i -> Some i
  | Float f when Float.is_integer f && f >= int_lo && f < -.int_lo ->
      Some (int_of_float f)
  | _ -> None
let to_float = function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None
let to_str = function String s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None

let to_file path j =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let b = Buffer.create 4096 in
      to_buffer b j;
      Buffer.add_char b '\n';
      Buffer.output_buffer oc b)
