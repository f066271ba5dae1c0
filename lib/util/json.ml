type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Error of string

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* --- printing --- *)

(* 2^53: beyond it consecutive integers are no longer representable, and
   "%.0f" would print misleading exact-looking digits. *)
let max_plain_int = 9007199254740992.

let float_repr f =
  if Float.is_nan f || Float.abs f = infinity then
    invalid_arg "Json.float_repr: nan/infinity have no JSON encoding"
  else if Float.is_integer f && Float.abs f < max_plain_int then
    Printf.sprintf "%.0f" f
  else
    (* Shortest of the round-trippable decimal forms. *)
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s
    else
      let s = Printf.sprintf "%.16g" f in
      if float_of_string s = f then s else Printf.sprintf "%.17g" f

let escape_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let to_buffer ?(indent = 0) b v =
  let nl depth =
    if indent > 0 then begin
      Buffer.add_char b '\n';
      Buffer.add_string b (String.make (indent * depth) ' ')
    end
  in
  let rec go depth = function
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Number f -> Buffer.add_string b (float_repr f)
    | String s -> escape_string b s
    | List [] -> Buffer.add_string b "[]"
    | List items ->
        Buffer.add_char b '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char b ',';
            nl (depth + 1);
            go (depth + 1) item)
          items;
        nl depth;
        Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj members ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, item) ->
            if i > 0 then Buffer.add_char b ',';
            nl (depth + 1);
            escape_string b k;
            Buffer.add_char b ':';
            if indent > 0 then Buffer.add_char b ' ';
            go (depth + 1) item)
          members;
        nl depth;
        Buffer.add_char b '}'
  in
  go 0 v

let to_string ?indent v =
  let b = Buffer.create 256 in
  to_buffer ?indent b v;
  Buffer.contents b

let to_channel ?indent oc v = output_string oc (to_string ?indent v)

(* --- parsing --- *)

type parser_state = { input : string; mutable pos : int }

let peek st = if st.pos < String.length st.input then Some st.input.[st.pos] else None

let fail st fmt =
  Printf.ksprintf
    (fun msg -> error "JSON parse error at offset %d: %s" st.pos msg)
    fmt

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  while
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance st;
        true
    | _ -> false
  do
    ()
  done

let expect st c =
  match peek st with
  | Some d when d = c -> advance st
  | Some d -> fail st "expected %C, found %C" c d
  | None -> fail st "expected %C, found end of input" c

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.input
    && String.sub st.input st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st "invalid literal (expected %s)" word

let parse_number st =
  let start = st.pos in
  let consume_while p =
    while (match peek st with Some c -> p c | None -> false) do
      advance st
    done
  in
  if peek st = Some '-' then advance st;
  consume_while (function '0' .. '9' -> true | _ -> false);
  if peek st = Some '.' then begin
    advance st;
    consume_while (function '0' .. '9' -> true | _ -> false)
  end;
  (match peek st with
  | Some ('e' | 'E') ->
      advance st;
      (match peek st with Some ('+' | '-') -> advance st | _ -> ());
      consume_while (function '0' .. '9' -> true | _ -> false)
  | _ -> ());
  let text = String.sub st.input start (st.pos - start) in
  match float_of_string_opt text with
  | Some f -> Number f
  | None -> fail st "malformed number %S" text

let utf8_of_code b code =
  (* Encode one Unicode scalar value as UTF-8. *)
  if code < 0x80 then Buffer.add_char b (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end

let hex4 st =
  let digit () =
    match peek st with
    | Some c -> begin
        advance st;
        match c with
        | '0' .. '9' -> Char.code c - Char.code '0'
        | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
        | _ -> fail st "invalid hex digit %C in \\u escape" c
      end
    | None -> fail st "truncated \\u escape"
  in
  let a = digit () in
  let b = digit () in
  let c = digit () in
  let d = digit () in
  (a lsl 12) lor (b lsl 8) lor (c lsl 4) lor d

let parse_string st =
  expect st '"';
  let b = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> begin
        advance st;
        (match peek st with
        | None -> fail st "unterminated escape"
        | Some c ->
            advance st;
            (match c with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'n' -> Buffer.add_char b '\n'
            | 'r' -> Buffer.add_char b '\r'
            | 't' -> Buffer.add_char b '\t'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'u' ->
                let code = hex4 st in
                (* Surrogate pair: a high surrogate must be followed by
                   \uDC00-\uDFFF; combine them into one scalar value. *)
                if code >= 0xD800 && code <= 0xDBFF then begin
                  expect st '\\';
                  expect st 'u';
                  let low = hex4 st in
                  if low < 0xDC00 || low > 0xDFFF then
                    fail st "unpaired surrogate \\u%04X" code;
                  utf8_of_code b
                    (0x10000
                    + ((code - 0xD800) lsl 10)
                    + (low - 0xDC00))
                end
                else if code >= 0xDC00 && code <= 0xDFFF then
                  fail st "unpaired surrogate \\u%04X" code
                else utf8_of_code b code
            | c -> fail st "invalid escape \\%C" c));
        loop ()
      end
    | Some c ->
        advance st;
        Buffer.add_char b c;
        loop ()
  in
  loop ();
  Buffer.contents b

(* Every array or object costs a stack frame per nesting level, and the
   daemon parses request bodies of up to 8 MB: without a cap a body of
   '[' characters would recurse millions deep. *)
let max_depth = 512

let rec parse_value st depth =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some 'n' -> literal st "null" Null
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some '"' -> String (parse_string st)
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some ('[' | '{') when depth >= max_depth ->
      fail st "arrays and objects nested deeper than %d" max_depth
  | Some '[' -> begin
      advance st;
      skip_ws st;
      match peek st with
      | Some ']' ->
          advance st;
          List []
      | _ ->
          let rec items acc =
            let v = parse_value st (depth + 1) in
            skip_ws st;
            match peek st with
            | Some ',' ->
                advance st;
                items (v :: acc)
            | Some ']' ->
                advance st;
                List (List.rev (v :: acc))
            | _ -> fail st "expected ',' or ']' in array"
          in
          items []
    end
  | Some '{' -> begin
      advance st;
      skip_ws st;
      match peek st with
      | Some '}' ->
          advance st;
          Obj []
      | _ ->
          let member () =
            skip_ws st;
            let k = parse_string st in
            skip_ws st;
            expect st ':';
            (k, parse_value st (depth + 1))
          in
          let rec members acc =
            let kv = member () in
            skip_ws st;
            match peek st with
            | Some ',' ->
                advance st;
                members (kv :: acc)
            | Some '}' ->
                advance st;
                Obj (List.rev (kv :: acc))
            | _ -> fail st "expected ',' or '}' in object"
          in
          members []
    end
  | Some c -> fail st "unexpected character %C" c

let of_string s =
  let st = { input = s; pos = 0 } in
  let v = parse_value st 0 in
  skip_ws st;
  (match peek st with
  | Some c -> fail st "trailing input starting with %C" c
  | None -> ());
  v

let of_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))

(* --- builders --- *)

let int i = Number (float_of_int i)
let float f = Number f
let string s = String s
let bool b = Bool b
let list f xs = List (List.map f xs)
let option f = function None -> Null | Some x -> f x
let obj members = Obj (List.filter (fun (_, v) -> v <> Null) members)

(* --- accessors --- *)

let type_name = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Number _ -> "number"
  | String _ -> "string"
  | List _ -> "array"
  | Obj _ -> "object"

let member k = function
  | Obj members -> ( match List.assoc_opt k members with Some v -> v | None -> Null)
  | v -> error "expected an object with field %S, found %s" k (type_name v)

let mem k = function
  | Obj members -> List.mem_assoc k members
  | _ -> false

let to_bool = function
  | Bool b -> b
  | v -> error "expected a bool, found %s" (type_name v)

let to_float = function
  | Number f -> f
  | v -> error "expected a number, found %s" (type_name v)

let to_int = function
  | Number f when Float.is_integer f && Float.abs f <= max_plain_int ->
      int_of_float f
  | Number f -> error "expected an integer, found %s" (float_repr f)
  | v -> error "expected an integer, found %s" (type_name v)

let to_str = function
  | String s -> s
  | v -> error "expected a string, found %s" (type_name v)

let to_list = function
  | List items -> items
  | v -> error "expected an array, found %s" (type_name v)

let to_option f = function Null -> None | v -> Some (f v)
