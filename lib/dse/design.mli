(** Evaluated design points: hardware + simulated performance + area +
    cost, plus the regulated quantities ({!spec}). Verdicts are not
    stored: {!verdict} and {!compliant} judge a design under any
    {!Acs_policy.Regime} value. *)

type t = {
  params : Space.params;
  device : Acs_hardware.Device.t;
  area_mm2 : float;
  sram_mb : float;
  within_reticle : bool;
  spec : Acs_policy.Spec.t;
  die_cost_usd : float;
  good_die_cost_usd : float;
  ttft_s : float;
  tbt_s : float;
}

val die_cost_of_area : float -> float
(** Die cost in USD of a die of this area on N7 wafers; [infinity] when
    the die does not fit a wafer. A design's [die_cost_usd]. *)

val fits_reticle : float -> bool
(** Whether a die of this area (mm^2) is within the 860 mm^2 reticle
    limit. A design's [within_reticle]. *)

val of_latencies :
  Space.params -> Acs_hardware.Device.t -> ttft_s:float -> tbt_s:float -> t
(** Reconstitute a design from its parameters, built device and simulated
    latencies: every other field (area, spec, cost) is derived
    deterministically from the device, so the result is structurally
    identical to what {!evaluate} would have produced with those
    latencies. The on-disk eval cache stores exactly this tuple and uses
    it to rebuild bitwise-equal designs on load. *)

val evaluate :
  ?calib:Acs_perfmodel.Calib.t ->
  ?tp:int ->
  ?request:Acs_workload.Request.t ->
  model:Acs_workload.Model.t ->
  Space.params ->
  Acs_hardware.Device.t ->
  t

val evaluate_compiled :
  ?calib:Acs_perfmodel.Calib.t ->
  Acs_workload.Compiled.t ->
  Space.params ->
  Acs_hardware.Device.t ->
  t
(** [evaluate_compiled ?calib (Engine.compile ?tp ?request model) p dev]
    produces the same design (bit-identical latencies) as
    [evaluate ?calib ?tp ?request ~model p dev], via
    {!Acs_perfmodel.Engine.simulate_compiled}; the compilation cost is
    paid once per sweep rather than once per point. *)

val evaluate_sweep :
  ?calib:Acs_perfmodel.Calib.t ->
  ?tp:int ->
  ?request:Acs_workload.Request.t ->
  model:Acs_workload.Model.t ->
  tpp_target:float ->
  Space.sweep ->
  t list

val manufacturable : t -> bool
(** Within the 860 mm^2 reticle limit. *)

val subject : t -> Acs_policy.Regime.subject
(** The design as a regime subject: its spec plus the template's
    architectural quantities (memory, systolic, L1/L2). *)

val verdict :
  ?market:Acs_policy.Regime.market ->
  Acs_policy.Regime.t ->
  t ->
  Acs_policy.Regime.verdict
(** Verdict under an arbitrary regime value; [market] defaults to
    [Data_center], how the paper judges simulated designs. *)

val compliant : ?market:Acs_policy.Regime.market -> Acs_policy.Regime.t -> t -> bool
(** Fully unregulated under the regime (the paper excludes NAC-eligible
    designs, since NAC licenses may be denied). *)

val compliant_device :
  ?market:Acs_policy.Regime.market ->
  Acs_policy.Regime.t ->
  area_mm2:float ->
  Acs_hardware.Device.t ->
  bool
(** {!compliant} judged from a device and its die area, before any design
    exists: [compliant r d = compliant_device r ~area_mm2:d.area_mm2
    d.device]. *)

val compliant_2023 : t -> bool
(** [compliant Regime.acr_2023]: the paper's validity filter for
    simulated designs. *)

val ttft_cost_product : t -> float
(** TTFT(ms) x die cost($): Fig. 8's y-axis. *)

val tbt_cost_product : t -> float
val pp : Format.formatter -> t -> unit

val csv_header : string list
val csv_row : t -> string list
(** The standard design CSV (parameters, area, PD, latencies, cost, and
    the verdict under {!Acs_policy.Regime.acr_2023}), shared by the bench
    sections and [acs run]. *)
