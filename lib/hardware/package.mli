(** Multi-chip (chiplet) packages.

    The Advanced Computing Rules aggregate TPP over every die in a package
    and Performance Density over the total applicable die area, which is
    what makes chiplets a compliance instrument (paper Secs. 2.3 and 2.5):
    a 4799-TPP device can only escape the October 2023 rules with more than
    3000 mm^2 of silicon - impossible monolithically (reticle: 860 mm^2)
    but straightforward as a multi-chip module. Conversely, dropping
    compute chiplets lowers TPP {e and} area together, leaving PD
    unchanged, so chiplet designs may still have to disable cores inside
    each die.

    Performance is not modeled at package granularity; the paper's chiplet
    analysis is about classification, area and cost, which is what this
    module (with {!Acs_cost.Cost_model}) provides. *)

type t = {
  name : string;
  compute_die : Device.t;  (** one compute chiplet *)
  compute_die_area_mm2 : float;
  compute_dies : int;
  io_die_area_mm2 : float;  (** 0 when there is no separate IO die *)
  io_dies : int;
}

val make :
  ?name:string ->
  ?io_die_area_mm2:float ->
  ?io_dies:int ->
  compute_die:Device.t ->
  compute_die_area_mm2:float ->
  compute_dies:int ->
  unit ->
  t
(** Raises [Invalid_argument] on non-positive dies/areas, on a
    non-finite (NaN, infinite) die area, or when a die exceeds the
    860 mm^2 reticle limit (each chiplet must itself be
    manufacturable). *)

val total_tpp : t -> float
(** Sum over compute dies, per the rules. *)

val total_area_mm2 : t -> float
(** All dies: the October 2023 "applicable die area". *)

val performance_density : t -> float

val die_areas : t -> float list
(** One entry per physical die, for yield/cost aggregation. *)

val with_compute_dies : t -> int -> t
(** The "remove chiplets" knob; raises on non-positive count. *)

val monolithic_equivalent_area : t -> float
(** Total area if the same silicon were one die (often > reticle). *)

val pp : Format.formatter -> t -> unit
