(** A real GPU product record, carrying the datasheet quantities the
    Advanced Computing Rules and the paper's classification studies need.

    TPP follows the paper's convention: dense (non-sparse) peak tensor
    throughput times operand bitwidth, using the format maximizing the
    product. For GeForce Ampere parts the standard-rate (FP32-accumulate)
    tensor figure is used, matching the dataset behaviour implied by the
    paper's Fig. 9 classification counts; Ada and data-center parts use
    their full-rate FP16 figures. *)

type vendor = Nvidia | Amd
type segment = Data_center | Consumer | Workstation

type t = {
  name : string;
  vendor : vendor;
  year : int;  (** launch year *)
  segment : segment;
  tpp : float;
  die_area_mm2 : float;  (** total silicon across the package *)
  die_count : int;
  process : Acs_hardware.Process.t;
  memory_gb : float;
  memory_bw_gb_s : float;
  device_bw_gb_s : float;  (** aggregate bidirectional interconnect *)
  in_survey : bool;
      (** member of the 65-device 2018-2024 dataset used for the paper's
          Figs. 9-10 marketing study (Fig. 1 flagship devices that predate
          or distort that study are kept with [in_survey = false]) *)
}

val performance_density : t -> float
val spec : t -> Acs_policy.Spec.t

val subject : t -> Acs_policy.Regime.subject
(** The datasheet quantities as a {!Acs_policy.Regime} subject: the spec
    plus memory capacity and bandwidth. Core-internal quantities
    (systolic dimensions, L1/L2) are not on datasheets and stay
    unreported — predicates over them never fire on real products. *)

val marketing_market : t -> Acs_policy.Regime.market
(** [Data_center] for data-center-marketed devices, [Non_data_center] for
    consumer and workstation devices. *)

val architectural_market : t -> Acs_policy.Regime.market
(** The Sec. 5.2 classifier applied to this device's memory system. *)

val verdict :
  ?market:Acs_policy.Regime.market ->
  Acs_policy.Regime.t ->
  t ->
  Acs_policy.Regime.verdict
(** The device's verdict under a regime, judged on its {!subject}.
    [market] defaults to the device's marketing segment
    ({!marketing_market}), which is how the published rules apply. *)

val to_template : t -> Acs_hardware.Device.t
(** An LLMCompass-style template approximating this product: A100-like
    core organization (16x16 arrays, 4 lanes, 192 KB L1, 40 MB L2) with
    the core count chosen so the template's TPP matches the datasheet TPP
    at 1410 MHz, and the product's real memory and interconnect. Good for
    "simulate an H20" conveniences; not a microarchitectural model of the
    actual part. *)

val vendor_to_string : vendor -> string
val segment_to_string : segment -> string
val pp : Format.formatter -> t -> unit
