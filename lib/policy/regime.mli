(** Sanction regimes as first-class values.

    Every rule this library models — the October 2022 and October 2023
    Advanced Computing Rules, the December 2024 HBM control, the January
    2025 diffusion framework's order tiers, and the paper's Sec. 5
    architecture-first proposals — is a composition of threshold
    predicates over a handful of device quantities, mapped to a tiered
    verdict. This module makes that composition explicit: a regime is a
    {e value} built from atomic predicates ([at_least]/[above]) over a
    unified subject, combined with [all_of]/[any_of]/[not_], carrying a
    market filter, a tiered verdict, an effective date, and a per-die vs
    per-package evaluation scope (the Whack-a-Chip chiplet-aggregation
    lever).

    Regimes are pure data — no closures — so structural equality,
    hashing, and the JSON codec ({!to_json}/{!of_json}, exact
    round-trip) all apply. The registry values below are the only place
    the published rules are written down: every verdict the library
    reports is {!verdict} over one of them, and {!verdict_to_string} is
    the one label vocabulary. The test suite pins them against inline
    transcriptions of the historical rules. *)

(** {2 Dates} *)

type date = { year : int; month : int }

val date : int -> int -> date
(** [date year month]; raises [Invalid_argument] on a month outside
    1-12. *)

val compare_date : date -> date -> int
val pp_date : Format.formatter -> date -> unit

(** {2 Markets and verdicts} *)

type market = Data_center | Non_data_center

type verdict = Unregulated | Nac | License
(** Ordered by severity. [Nac] covers both the 2023 rule's "NAC
    eligible" tier and the HBM rule's license-exception tier: restricted,
    but short of a hard license requirement. *)

val compare_verdict : verdict -> verdict -> int

val verdict_to_string : verdict -> string
(** The paper's Table 1 wording: "Not Applicable", "NAC Eligible",
    "License Required". *)

val market_to_string : market -> string

(** {2 Quantities and subjects} *)

(** The device quantities regimes predicate on. The first five derive
    from a {!Spec.t}; the rest are architectural quantities only some
    subjects carry (a predicate over a quantity the subject does not
    report is false — absence of evidence never regulates). *)
type quantity =
  | Tpp
  | Performance_density  (** TPP / applicable die area; 0 when planar *)
  | Device_bw_gb_s
  | Die_area_mm2
  | Bw_density_gb_s_mm2
      (** the Dec 2024 HBM metric: memory bandwidth over die area when
          the subject reports memory bandwidth, falling back to the
          spec's device bandwidth over die area otherwise *)
  | Memory_bw_tb_s
  | Memory_gb
  | Systolic_dim  (** largest systolic-array dimension *)
  | L1_kb
  | L2_mb

val quantity_to_string : quantity -> string

type subject = {
  spec : Spec.t;
  memory_bw_tb_s : float option;
  memory_gb : float option;
  systolic_dim : int option;
  l1_kb : float option;
  l2_mb : float option;
}

val of_spec : Spec.t -> subject
(** Spec-only subject: the architectural quantities are unreported. *)

val subject :
  ?memory_bw_tb_s:float ->
  ?memory_gb:float ->
  ?systolic_dim:int ->
  ?l1_kb:float ->
  ?l2_mb:float ->
  Spec.t ->
  subject

val of_device : ?area_mm2:float -> ?memory_gb:float -> Acs_hardware.Device.t -> subject
(** Full subject of a simulated design: spec via {!Spec.of_device} (area
    defaults to the {!Acs_area.Area_model} estimate), architectural
    quantities from the template. [memory_gb] overrides the template's
    HBM capacity, mirroring {!Proposals.violations}. *)

val of_package : ?device_bw_gb_s:float -> Acs_hardware.Package.t -> subject
(** Package-level subject: spec via {!Spec.of_package} (TPP and area
    aggregated over dies); memory capacity and bandwidth summed over
    compute dies; per-core quantities (systolic, L1, L2) from the
    compute die. *)

val measure : subject -> quantity -> float option

(** {2 Predicates} *)

type pred =
  | At_least of quantity * float
  | Above of quantity * float
  | All_of of pred list  (** [All_of []] is true *)
  | Any_of of pred list  (** [Any_of []] is false *)
  | Not of pred

val at_least : quantity -> float -> pred
val above : quantity -> float -> pred

val at_most : quantity -> float -> pred
(** [Not (Above _)]. On a subject missing the quantity this holds
    vacuously: an upper bound cannot be exceeded by nothing. *)

val below : quantity -> float -> pred
(** [Not (At_least _)]. *)

val all_of : pred list -> pred
val any_of : pred list -> pred
val not_ : pred -> pred
val always : pred
val never : pred

(** Thresholds must be finite and non-negative (every regulated quantity
    is physically non-negative); the smart constructors and the JSON
    decoder raise otherwise. *)

val holds : pred -> subject -> bool
val pp_pred : Format.formatter -> pred -> unit

(** {2 Rules and regimes} *)

type rule = {
  market : market option;  (** [None]: applies to every market *)
  verdict : verdict;
  requires : pred;
}

val rule : ?market:market -> verdict -> pred -> rule

type scope =
  | Per_die  (** each compute die judged alone — the evasion reading *)
  | Per_package  (** TPP and area aggregated over the package, per the rules *)

type t = {
  name : string;
  description : string;
  effective : date option;
  scope : scope;
  rules : rule list;
}

val make :
  ?description:string -> ?effective:date -> ?scope:scope -> string -> rule list -> t
(** [make name rules]. [scope] defaults to [Per_package] (what the
    published rules do). Raises [Invalid_argument] on an empty name. *)

val with_scope : scope -> t -> t
val renamed : ?description:string -> string -> t -> t

val verdict : ?market:market -> t -> subject -> verdict
(** Most severe verdict among rules whose market filter matches and
    whose predicate holds; [Unregulated] when none fire. [market]
    defaults to [Data_center] (the conservative reading the DSE
    applies to simulated designs). *)

val regulated : ?market:market -> t -> subject -> bool
(** Any verdict above [Unregulated] — the paper treats NAC devices as
    restricted, since NAC licenses may be denied. *)

val classify_package :
  ?market:market ->
  ?device_bw_gb_s:float ->
  t ->
  Acs_hardware.Package.t ->
  verdict
(** Honors the regime's scope: [Per_package] evaluates the aggregated
    {!of_package} subject; [Per_die] judges a single compute die on its
    own TPP and area (dies are identical, so one die's verdict is the
    package-wide maximum). [device_bw_gb_s] overrides the interconnect
    figure in both scopes. *)

val active_at : date -> t -> bool
(** Whether the regime is in force at [date] ([effective = None] means
    always). *)

val threshold : ?verdict:verdict -> t -> quantity -> float option
(** The lowest bound on [quantity] among positive-position atoms of the
    rules (optionally only rules carrying [verdict]) — "where does this
    regime start caring about this quantity". [None] when no rule
    predicates on it. *)

val area_floor : t -> tpp:float -> float option
(** The Fig. 2 area floor: the smallest die area above which a
    data-center part of this TPP is unregulated, judged on TPP and area
    alone (a {!of_spec} subject with no device bandwidth). It is the TPP
    over the lowest performance-density bound above which the verdict
    turns regulated, so the bound is exclusive. [None] when even PD -> 0
    is regulated (no area suffices); [Some 0.] when no PD is. Raises
    [Invalid_argument] on a negative or non-finite TPP. *)

val tighten : factor:float -> t -> t
(** Scale every threshold toward zero by [factor] in (0, 1] (bounds
    under an odd number of negations scale by [1/factor] instead, so
    every atom's satisfied set weakly grows). Tightening is monotone:
    no subject's verdict ever decreases — the property the qcheck suite
    pins down. Raises [Invalid_argument] on a factor outside (0, 1]. *)

val of_limits :
  ?name:string -> ?description:string -> ?verdict:verdict -> Proposals.limits -> t
(** A {!Proposals.limits} value as a regime: one rule (default verdict
    [License]) firing when any present bound is exceeded, so
    [regulated (of_limits l) (of_device dev)] iff [not (Proposals.compliant
    l dev)]. *)

(** {2 The registry: the shipped regimes} *)

val pre_acr : t  (** no rules: everything unregulated *)

val acr_2022 : t  (** October 2022: TPP >= 4800 and device BW >= 600 GB/s *)

val acr_2023 : t  (** October 2023: TPP x PD tiers with the market split *)

val hbm_2024 : t
(** December 2024 HBM control over bandwidth density; [Nac] is the
    License Exception HBM tier. *)

val diffusion_2025 : t
(** January 2025 diffusion framework order tiers in aggregate TPP
    (subject TPP = device TPP x units): LPP exception below 26.9e6,
    country allocation up to 790e6, license beyond. The stateful
    multi-order ledger remains in {!Diffusion_2025}. *)

val proposal_tpp_4800 : t
val proposal_ai_targeted : t
val proposal_gaming_carveout : t

val registry : t list
val names : unit -> string list

val find : string -> t option
(** Case-insensitive lookup by registry name; also accepts the legacy
    scenario tokens ["oct2022"], ["oct2023"] and ["pre_acr"]. *)

val equal : t -> t -> bool

(** {2 JSON codec} *)

val pred_to_json : pred -> Acs_util.Json.t
val pred_of_json : Acs_util.Json.t -> pred

val to_json : t -> Acs_util.Json.t
val of_json : Acs_util.Json.t -> t
(** Exact round-trip: [of_json (to_json r) = r]. [of_json] raises
    {!Acs_util.Json.Error} on malformed input. *)

val pp : Format.formatter -> t -> unit
