(** Minimal HTTP/1.1 over file descriptors, hand-rolled on the [unix]
    stdlib library.

    Just enough protocol for the evaluation daemon and its thin client:
    one request per connection ([Connection: close] semantics),
    [Content-Length] bodies both ways, and [Transfer-Encoding: chunked]
    responses for streaming job progress. No TLS, no keep-alive, no
    content negotiation - the transport is a Unix-domain socket between
    processes on one machine. *)

exception Bad_request of string
(** Malformed request or response framing. The server maps it to a 400;
    the client surfaces it as a protocol error. *)

(** {2 Buffered reading} *)

type reader
(** A buffered reader over a file descriptor (CRLF line framing needs
    lookahead that raw [Unix.read] cannot give). *)

val reader : Unix.file_descr -> reader

(** {2 Server side} *)

type request = {
  meth : string;  (** verb, uppercased: GET, POST, DELETE, ... *)
  path : string;  (** request target without the query string *)
  query : (string * string) list;  (** decoded [k=v] pairs, in order *)
  headers : (string * string) list;  (** names lowercased *)
  body : string;  (** [Content-Length] bytes; "" when absent *)
}

val read_request : reader -> request option
(** [None] on a clean EOF before any byte of a request (client closed an
    idle connection). Raises {!Bad_request} on framing errors, header
    lines over 16 KiB, header sections over 100 lines or 64 KiB, and
    bodies over 8 MB; [Unix.Unix_error] on transport failures. *)

val header : request -> string -> string option
(** Case-insensitive header lookup. *)

val query_param : request -> string -> string option

val respond :
  ?content_type:string -> status:int -> Unix.file_descr -> string -> unit
(** Write a complete response with [Content-Length]. The default content
    type is [application/json] - every daemon payload is JSON. *)

val respond_json : status:int -> Unix.file_descr -> Acs_util.Json.t -> unit

val error_json : string -> Acs_util.Json.t
(** [{"error": msg}] - the uniform error payload shape. *)

(** {2 Chunked streaming (server)} *)

val start_chunked :
  ?content_type:string -> status:int -> Unix.file_descr -> unit
(** Write the response head with [Transfer-Encoding: chunked]. Follow
    with {!write_chunk} calls and exactly one {!finish_chunked}. *)

val write_chunk : Unix.file_descr -> string -> unit
(** One chunk (empty strings are skipped: an empty chunk would terminate
    the stream). *)

val finish_chunked : Unix.file_descr -> unit

(** {2 Client side} *)

val write_request :
  ?body:string -> meth:string -> target:string -> Unix.file_descr -> unit

type head = {
  status : int;
  reason : string;
  resp_headers : (string * string) list;  (** names lowercased *)
}

val read_head : reader -> head

val chunked : head -> bool

val read_body : reader -> head -> string
(** The full body: [Content-Length] bytes, a de-chunked stream, or
    read-to-EOF when neither framing header is present. *)

val iter_chunks : reader -> (string -> unit) -> unit
(** Decode a chunked body, invoking the callback once per chunk, until
    the terminating zero-length chunk. *)

val status_reason : int -> string
(** Canonical reason phrase ("OK", "Too Many Requests", ...). *)
