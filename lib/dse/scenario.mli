(** First-class experiment scenarios: typed, serializable manifests.

    Every experiment in the reproduction is "one evaluation context run
    over one design target": a workload model and request shape, optional
    calibration and tensor-parallel overrides, the TPP target and memory
    capacity, a design space (or a single design point), and the policy
    regime the results are judged under. Until this module existed that
    7-tuple was threaded as ad-hoc optional arguments through
    [Design.evaluate], [Eval.evaluate]/[Eval.sweep], twenty bench sections
    and the CLI - and duplicated once more as the memo-cache key inside
    [Eval]. A {!t} is that tuple as one value: the bench sections draw
    their contexts from the {!registry} of canonical paper scenarios,
    [acs run] executes a manifest loaded from JSON, and {!Eval}'s cache is
    keyed on scenarios directly.

    Scenarios serialize with {!to_json}/{!of_json}, and the round trip is
    exact: [of_json (to_json s) = s] structurally, for every value
    (the test suite asserts it for the whole registry and for generated
    scenarios). *)

module Model = Acs_workload.Model
module Request = Acs_workload.Request
module Calib = Acs_perfmodel.Calib
module Regime = Acs_policy.Regime

type target =
  | Space of Space.sweep  (** evaluate every point of the sweep *)
  | Point of Space.params  (** evaluate one design *)

type t = {
  name : string;  (** registry/manifest identifier; "" for anonymous *)
  description : string;
  model : Model.t;
  request : Request.t option;  (** [None]: the engine's default request *)
  calib : Calib.t option;  (** [None]: {!Calib.default} *)
  tp : int option;  (** tensor-parallel degree; [None]: engine default *)
  tpp_target : float;
  memory_gb : float option;  (** HBM capacity; [None]: 80 GB *)
  target : target;
  regime : Regime.t;
      (** the sanction regime the results are judged under — any
          {!Acs_policy.Regime} value, not just the shipped eras *)
}

val make :
  ?description:string ->
  ?request:Request.t ->
  ?calib:Calib.t ->
  ?tp:int ->
  ?memory_gb:float ->
  ?regime:Regime.t ->
  name:string ->
  model:Model.t ->
  tpp_target:float ->
  target ->
  t
(** [regime] defaults to {!Acs_policy.Regime.acr_2023} (the rules in
    force). Raises
    [Invalid_argument] on a non-positive/non-finite [tpp_target],
    [memory_gb] or [tp]. *)

val size : t -> int
(** Number of design points the scenario evaluates (1 for a [Point]). *)

val compliant : t -> Design.t -> bool
(** Compliance of a design under the scenario's {!field-regime}
    ([Design.compliant], data-center market): fully unregulated. Under
    [Regime.pre_acr] everything is compliant. *)

(** {2 Context equality and hashing (the [Eval] cache key)}

    [equal]/[hash] compare the {e evaluation context} only - [name],
    [description] and [regime] are ignored (none of them changes what
    [Design.evaluate] computes), so e.g. the [table4] scenario hits cache
    entries populated by [fig7-gpt3-2400] (same sweep, same context).
    Floats compare by [Float.compare]: nan {e equals} nan and [-0.]
    equals [0.], unlike the polymorphic [(=)] (under which a nan-bearing
    key could never be found again); hashing normalizes accordingly
    (all nans hash alike, [-0.] hashes as [0.]), keeping [hash]
    consistent with [equal]. *)

val equal : t -> t -> bool

val hash : t -> int
(** A table hash: {!context_hash} with the target folded in, passed
    through {!Space.mix} so that every bit of the key reaches the low
    bits a [Hashtbl] buckets on. *)

val context_equal : t -> t -> bool
(** {!equal} without the target: the part of the key shared by every point
    of one sweep. [equal a b] is [context_equal a b] plus target
    equality. *)

val context_hash : t -> int
(** The raw hash of everything but the target. {!hash} and {!point_hash}
    extend it with the target before finalizing, so a sweep's points can
    reuse one context hash. Not finalized: {!Disk_cache} names its files
    with it, so its value is part of the on-disk format. *)

val point_hash : context_hash:int -> Space.params -> int
(** [point_hash ~context_hash:(context_hash s) p
    = hash { s with target = Point p }], computed without allocating the
    scenario - the [Eval] memo keys sweep points with it. Finalized like
    {!hash}: without {!Space.mix}, a sweep round's 14,832 distinct keys
    fall into 112 distinct low-16-bit values. *)

module Key : Hashtbl.HashedType with type t = t
(** The above pair, packaged for [Hashtbl.Make]. *)

(** {2 JSON manifests} *)

val to_json : t -> Acs_util.Json.t
(** Models matching a preset and the three paper sweeps serialize by
    name; [None] fields are omitted. *)

val of_json : Acs_util.Json.t -> t
(** Accepts the {!to_json} form: required members [model], [tpp_target]
    and exactly one of [space] (a name or full axes) / [point]; optional
    [name], [description], [request], [calib] (partial - missing knobs
    keep their defaults), [tp], [memory_gb], [regime] (a registry name
    such as "acr-2023" — the legacy tokens "pre-acr"/"oct2022"/"oct2023"
    still resolve — or an inline {!Acs_policy.Regime} object; default
    [Regime.acr_2023]). Raises {!Acs_util.Json.Error} on malformed
    manifests. *)

val regime_token : Regime.t -> string
(** The regime's registry/manifest name ("acr-2023"), or "custom" for an
    anonymous value. *)

(** {2 The registry of canonical paper scenarios} *)

val registry : t list
(** Named manifests for the paper's sweep-driven sections: [fig6-*],
    [fig7-*] (per TPP target, with [fig7-gpt3]/[fig7-llama3] as the
    2400-TPP headlines), [fig8-*], [fig11-*], [fig12-*], [table4],
    [table5], [scorecard], and the [a100-proxy] single-point scenario.
    Names are unique. *)

val find : string -> t option
(** Case-insensitive registry lookup. *)

val names : unit -> string list
(** Registry names, in registry order. *)

val pp : Format.formatter -> t -> unit
(** One-line summary: name, model, target size, TPP target, regime. *)
