(** The device-level quantities the Advanced Computing Rules regulate,
    abstracted away from whether they come from a real product datasheet or
    from a simulated design. *)

type t = {
  tpp : float;  (** Total Processing Performance: peak TOPS x bitwidth *)
  device_bw_gb_s : float;  (** aggregate bidirectional I/O transfer rate *)
  die_area_mm2 : float;  (** total die area across the package *)
  non_planar : bool;
      (** whether the dies use a non-planar transistor process; when false
          the October 2023 "applicable die area" is empty and PD does not
          apply *)
}

val make :
  ?non_planar:bool ->
  tpp:float ->
  device_bw_gb_s:float ->
  die_area_mm2:float ->
  unit ->
  t
(** Raises [Invalid_argument] on a negative or non-finite (NaN,
    infinite) TPP or bandwidth, and on a non-positive or non-finite area.
    [non_planar] defaults to true (every device we study is FinFET
    class). *)

val performance_density : t -> float
(** TPP per mm^2 of applicable die area; 0 for planar-process devices
    (no applicable area, so no PD threshold can be met). *)

val of_device : ?area_mm2:float -> Acs_hardware.Device.t -> t
(** Spec of a simulated design; area defaults to the {!Acs_area.Area_model}
    estimate but can be overridden (the paper uses the real GA100 area for
    its modeled A100). *)

val of_package : ?device_bw_gb_s:float -> Acs_hardware.Package.t -> t
(** Spec of a multi-chip module: TPP summed over compute dies, applicable
    area over every die, per the rules. Device bandwidth defaults to the
    compute die's interconnect (chiplets share the package's external
    links). *)

val pp : Format.formatter -> t -> unit
