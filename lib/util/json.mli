(** Dependency-free JSON: a small AST, a round-trip-stable printer and a
    recursive-descent parser.

    This is the serialization substrate of the scenario layer
    ({!Acs_dse.Scenario}): experiment manifests must survive
    [parse (print v) = v] exactly, so the printer chooses the shortest
    decimal representation that reads back to the same float, and object
    member order is preserved on both sides. No opam dependency is pulled
    in ([dune-project] stays lang-only). *)

type t =
  | Null
  | Bool of bool
  | Number of float
      (** Integral values within 2^53 print without a decimal point. *)
  | String of string
  | List of t list
  | Obj of (string * t) list  (** member order is preserved *)

exception Error of string
(** Raised by the parser on malformed input and by the accessors on a
    type/shape mismatch. The payload says what was expected where. *)

(** {2 Printing} *)

val float_repr : float -> string
(** Shortest decimal string [s] with [float_of_string s = f]. Integral
    floats of magnitude below 2^53 render as plain integers ("4800", not
    "4800."). Raises [Invalid_argument] on nan/infinity - JSON has no
    literal for them and a manifest must never contain one silently. *)

val to_string : ?indent:int -> t -> string
(** Serialize. [indent > 0] pretty-prints with that step ([indent = 0],
    the default, is compact one-line output). *)

val to_channel : ?indent:int -> out_channel -> t -> unit

(** {2 Parsing} *)

val max_depth : int
(** 512: the deepest nesting of arrays and objects {!of_string} accepts
    (a top-level [[]] is depth 1). *)

val of_string : string -> t
(** Parse one JSON value (surrounding whitespace allowed; trailing
    non-space input is an error). Numbers follow RFC 8259; strings decode
    the standard escapes including [\uXXXX] (encoded back as UTF-8).
    Raises {!Error} with a character position on malformed input,
    including arrays and objects nested deeper than {!max_depth}. *)

val of_file : string -> t
(** [of_string] over a whole file's contents; raises [Sys_error] if the
    file cannot be read. *)

(** {2 Builders} *)

val int : int -> t
val float : float -> t
val string : string -> t
val bool : bool -> t
val list : ('a -> t) -> 'a list -> t
val option : ('a -> t) -> 'a option -> t
(** [option f None = Null]. *)

val obj : (string * t) list -> t
(** [Obj] with [Null]-valued members dropped, so optional fields vanish
    from manifests instead of printing as "field": null. *)

(** {2 Accessors} *)

val member : string -> t -> t
(** Field of an object; [Null] when absent. Raises {!Error} on
    non-objects. *)

val mem : string -> t -> bool
(** Does the object have this field (with any value, including null)? *)

val to_bool : t -> bool
val to_float : t -> float
(** Accepts any [Number]. *)

val to_int : t -> int
(** Accepts only integral [Number]s (raises {!Error} on 2.5). *)

val to_str : t -> string
(** The payload of a [String] (not a serialization). *)

val to_list : t -> t list
val to_option : (t -> 'a) -> t -> 'a option
(** [Null] maps to [None]. *)
