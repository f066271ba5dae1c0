(** The Sec. 5.2 marketing-based classification study (Fig. 9).

    A device is {e consistently classified} when swapping its marketing
    segment would not move it between "unregulated" and "regulated"
    (regulated = NAC-eligible or license-required, since NAC licenses may
    be denied). A "false data center" device is data-center-marketed,
    currently regulated, but would be unregulated as a consumer part; a
    "false non-data center" device is consumer/workstation-marketed,
    currently unregulated, but would be regulated as a data-center part. *)

type status =
  | Consistent
  | False_data_center
  | False_non_data_center

val rebranded_tier : Acs_devicedb.Gpu.t -> Acs_policy.Regime.verdict
(** The {!Acs_policy.Regime.acr_2023} verdict the device would receive
    under the opposite market segment. *)

val status : Acs_devicedb.Gpu.t -> status

type analysis = {
  consistent_dc : Acs_devicedb.Gpu.t list;
  false_dc : Acs_devicedb.Gpu.t list;
  consistent_ndc : Acs_devicedb.Gpu.t list;
  false_ndc : Acs_devicedb.Gpu.t list;
}

val analyze : Acs_devicedb.Gpu.t list -> analysis
val status_to_string : status -> string
