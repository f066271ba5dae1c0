module Json = Acs_util.Json

exception Bad_request of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad_request s)) fmt

(* Requests and responses cross a local socket between cooperating
   processes, but cap the body anyway so a corrupt length header cannot
   ask the server to allocate gigabytes. *)
let max_body = 8 * 1024 * 1024

(* --- EINTR-safe primitives --- *)

let rec write_all fd s pos len =
  if len > 0 then begin
    let n =
      try Unix.write_substring fd s pos len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd s (pos + n) (len - n)
  end

let send fd s = write_all fd s 0 (String.length s)

(* --- buffered reader --- *)

type reader = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable pos : int;  (* next unread byte *)
  mutable len : int;  (* valid bytes in [buf] *)
  mutable eof : bool;
}

let reader fd = { fd; buf = Bytes.create 8192; pos = 0; len = 0; eof = false }

let refill r =
  if r.pos >= r.len && not r.eof then begin
    let n =
      try Unix.read r.fd r.buf 0 (Bytes.length r.buf)
      with Unix.Unix_error (Unix.EINTR, _, _) -> -1
    in
    if n = 0 then r.eof <- true
    else if n > 0 then begin
      r.pos <- 0;
      r.len <- n
    end
  end

let read_byte r =
  refill r;
  if r.pos >= r.len then None
  else begin
    let c = Bytes.get r.buf r.pos in
    r.pos <- r.pos + 1;
    Some c
  end

(* One CRLF-terminated line, tolerant of a bare LF; [None] on EOF before
   any byte. *)
let read_line r =
  let b = Buffer.create 64 in
  let rec go () =
    match read_byte r with
    | None -> if Buffer.length b = 0 then None else Some (Buffer.contents b)
    | Some '\n' ->
        let s = Buffer.contents b in
        let n = String.length s in
        Some (if n > 0 && s.[n - 1] = '\r' then String.sub s 0 (n - 1) else s)
    | Some c ->
        if Buffer.length b > 16384 then bad "header line too long";
        Buffer.add_char b c;
        go ()
  in
  go ()

let read_exact r n =
  if n > max_body then bad "body too large (%d bytes, max %d)" n max_body;
  let out = Bytes.create n in
  let rec go filled =
    if filled >= n then Bytes.unsafe_to_string out
    else begin
      refill r;
      if r.pos >= r.len then bad "unexpected EOF in body (%d/%d bytes)" filled n;
      let take = min (n - filled) (r.len - r.pos) in
      Bytes.blit r.buf r.pos out filled take;
      r.pos <- r.pos + take;
      go (filled + take)
    end
  in
  go 0

let read_to_eof r =
  let b = Buffer.create 256 in
  let rec go () =
    refill r;
    if r.pos < r.len then begin
      if Buffer.length b + (r.len - r.pos) > max_body then bad "body too large";
      Buffer.add_subbytes b r.buf r.pos (r.len - r.pos);
      r.pos <- r.len;
      go ()
    end
  in
  go ();
  Buffer.contents b

(* --- shared header machinery --- *)

(* [read_line] caps each line; these cap the section, so a peer cannot
   grow the header list without bound. *)
let max_header_lines = 100
let max_header_bytes = 64 * 1024

let read_headers r =
  let rec go acc lines bytes =
    match read_line r with
    | None -> bad "unexpected EOF in headers"
    | Some "" -> List.rev acc
    | Some line -> (
        let lines = lines + 1 and bytes = bytes + String.length line in
        if lines > max_header_lines then
          bad "more than %d header lines" max_header_lines;
        if bytes > max_header_bytes then
          bad "header section over %d bytes" max_header_bytes;
        match String.index_opt line ':' with
        | None -> bad "malformed header line %S" line
        | Some i ->
            let name = String.lowercase_ascii (String.sub line 0 i) in
            let value =
              String.trim (String.sub line (i + 1) (String.length line - i - 1))
            in
            go ((name, value) :: acc) lines bytes)
  in
  go [] 0 0

let lookup headers name = List.assoc_opt (String.lowercase_ascii name) headers

let content_length headers =
  match lookup headers "content-length" with
  | None -> 0
  | Some v -> (
      match int_of_string_opt (String.trim v) with
      | Some n when n >= 0 -> n
      | Some _ | None -> bad "malformed Content-Length %S" v)

(* --- server side --- *)

type request = {
  meth : string;
  path : string;
  query : (string * string) list;
  headers : (string * string) list;
  body : string;
}

let parse_query s =
  if s = "" then []
  else
    String.split_on_char '&' s
    |> List.filter_map (fun kv ->
           if kv = "" then None
           else
             match String.index_opt kv '=' with
             | None -> Some (kv, "")
             | Some i ->
                 Some
                   ( String.sub kv 0 i,
                     String.sub kv (i + 1) (String.length kv - i - 1) ))

let read_request r =
  match read_line r with
  | None -> None
  | Some line ->
      let meth, target =
        match String.split_on_char ' ' line with
        | [ m; t; v ] when v = "HTTP/1.1" || v = "HTTP/1.0" ->
            (String.uppercase_ascii m, t)
        | _ -> bad "malformed request line %S" line
      in
      let path, query =
        match String.index_opt target '?' with
        | None -> (target, [])
        | Some i ->
            ( String.sub target 0 i,
              parse_query
                (String.sub target (i + 1) (String.length target - i - 1)) )
      in
      let headers = read_headers r in
      let body = read_exact r (content_length headers) in
      Some { meth; path; query; headers; body }

let header req name = lookup req.headers name
let query_param req name = List.assoc_opt name req.query

let status_reason = function
  | 200 -> "OK"
  | 202 -> "Accepted"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 409 -> "Conflict"
  | 429 -> "Too Many Requests"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | c -> if c < 300 then "OK" else "Error"

let head_string ~status ~content_type extra =
  Printf.sprintf "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nConnection: close\r\n%s\r\n"
    status (status_reason status) content_type extra

let respond ?(content_type = "application/json") ~status fd body =
  send fd
    (head_string ~status ~content_type
       (Printf.sprintf "Content-Length: %d\r\n" (String.length body)));
  send fd body

let respond_json ~status fd j = respond ~status fd (Json.to_string j ^ "\n")
let error_json msg = Json.obj [ ("error", Json.string msg) ]

let start_chunked ?(content_type = "application/x-ndjson") ~status fd =
  send fd (head_string ~status ~content_type "Transfer-Encoding: chunked\r\n")

let write_chunk fd s =
  if s <> "" then
    send fd (Printf.sprintf "%x\r\n%s\r\n" (String.length s) s)

let finish_chunked fd = send fd "0\r\n\r\n"

(* --- client side --- *)

let write_request ?(body = "") ~meth ~target fd =
  let head =
    Printf.sprintf
      "%s %s HTTP/1.1\r\nHost: acs-daemon\r\nConnection: close\r\n%s\r\n"
      meth target
      (if body = "" && meth <> "POST" then ""
       else Printf.sprintf "Content-Length: %d\r\n" (String.length body))
  in
  send fd head;
  if body <> "" then send fd body

type head = {
  status : int;
  reason : string;
  resp_headers : (string * string) list;
}

let read_head r =
  match read_line r with
  | None -> bad "unexpected EOF before status line"
  | Some line ->
      let status, reason =
        match String.split_on_char ' ' line with
        | version :: code :: rest
          when String.length version >= 5 && String.sub version 0 5 = "HTTP/"
          -> (
            match int_of_string_opt code with
            | Some c -> (c, String.concat " " rest)
            | None -> bad "malformed status line %S" line)
        | _ -> bad "malformed status line %S" line
      in
      { status; reason; resp_headers = read_headers r }

let chunked h =
  match lookup h.resp_headers "transfer-encoding" with
  | Some v -> String.lowercase_ascii (String.trim v) = "chunked"
  | None -> false

let iter_chunks r f =
  let rec go () =
    match read_line r with
    | None -> bad "unexpected EOF in chunked body"
    | Some size_line -> (
        let size =
          (* Chunk extensions (";...") are allowed by the grammar. *)
          let s =
            match String.index_opt size_line ';' with
            | None -> size_line
            | Some i -> String.sub size_line 0 i
          in
          match int_of_string_opt ("0x" ^ String.trim s) with
          | Some n when n >= 0 -> n
          | Some _ | None -> bad "malformed chunk size %S" size_line
        in
        if size = 0 then
          (* Trailer section: lines until the final blank. *)
          let rec trailers () =
            match read_line r with
            | None | Some "" -> ()
            | Some _ -> trailers ()
          in
          trailers ()
        else begin
          f (read_exact r size);
          (match read_line r with
          | Some "" -> ()
          | _ -> bad "missing CRLF after chunk");
          go ()
        end)
  in
  go ()

let read_body r h =
  if chunked h then begin
    let b = Buffer.create 256 in
    iter_chunks r (Buffer.add_string b);
    Buffer.contents b
  end
  else
    match lookup h.resp_headers "content-length" with
    | Some _ -> read_exact r (content_length h.resp_headers)
    | None -> read_to_eof r
