(** Design-space definitions and design-point generation.

    Each parameter combination is turned into a device whose core count is
    the largest that keeps TPP strictly below the target (Eq. 1), mirroring
    how the paper's "4800 TPP" sweep actually lands at 4759 TPP with
    103 cores. *)

type sweep = {
  systolic_dims : int list;  (** square array sizes *)
  lanes_per_core : int list;
  l1_kb : float list;
  l2_mb : float list;
  memory_bw_tb_s : float list;
  device_bw_gb_s : float list;
  clock_mhz : float list;  (** core clock; the paper fixes 1410 MHz *)
}

val default_clock_mhz : float
(** 1410 MHz - the A100 clock every paper sweep runs at (equals
    {!Acs_hardware.Device.default_frequency_mhz}, so singleton-clock
    sweeps build bit-identical devices to the pre-widening code). *)

val oct2022 : sweep
(** Table 3 with fixed 600 GB/s device bandwidth: 512 designs. *)

val oct2023 : sweep
(** Table 3 with device bandwidth in {500, 700, 900}: 1536 designs per TPP
    target. *)

val restricted : sweep
(** Table 5 (parameters at or below the A100's): 2304 designs. *)

val widened : sweep
(** Every axis widened into a fine lattice - clock 900..2100 MHz in 25 MHz
    steps, ten systolic sizes, eight lane counts, 32-step L1/L2 grids,
    1..16 HBM stacks (the memory-bw axis quantized to whole 400 GB/s
    stacks) and 16 device bandwidths: ~1.03e9 implicit designs. Meant for
    {!Adaptive} search, never for enumeration. *)

val size : sweep -> int

val named : (string * sweep) list
(** The sweeps by manifest name: oct2022, oct2023, restricted, widened. *)

val find_named : string -> sweep option
(** Case-insensitive lookup in {!named}. *)

val name_of : sweep -> string option
(** Reverse lookup: the manifest name of a structurally-equal named
    sweep. *)

type params = {
  systolic_dim : int;
  lanes : int;
  l1 : float;  (** KB *)
  l2 : float;  (** MB *)
  memory_bw : float;  (** TB/s *)
  device_bw : float;  (** GB/s *)
  clock_mhz : float;  (** MHz *)
}

val enumerate : sweep -> params list
(** Cartesian product in a deterministic order. *)

(** {2 Structural equality and hashing (the [Eval] cache keys)}

    Floats compare by [Float.compare] - nan equals nan and [-0.] equals
    [0.], unlike the polymorphic [(=)] (under which a nan-bearing cache
    key could never be found again). The hashes normalize the same two
    cases (all nans hash alike, [-0.] hashes as [0.]), keeping them
    consistent with the equalities. *)

val params_equal : params -> params -> bool

val params_hash : params -> int
(** The raw structural hash. {!Disk_cache} names its files with it, so
    its value is part of the on-disk format. In-memory tables bucket on
    [mix (params_hash p)] instead. *)

val sweep_equal : sweep -> sweep -> bool
val sweep_hash : sweep -> int

val mix : int -> int
(** A splitmix64-style finalizer (xor-shifts and odd multiplies on
    63-bit ints; non-negative result). The raw hashes above only carry
    bits upward, and sweep axis values have all-zero low mantissa bits,
    so their low bits, which [Hashtbl] buckets on, barely vary; [mix]
    spreads every input bit over them. The [Eval] memo
    ({!Scenario.point_hash}) and [Adaptive]'s per-search table hash
    through it. *)

val build : ?memory_gb:float -> tpp_target:float -> params -> Acs_hardware.Device.t
(** Instantiate a device under the TPP target (strictly below it).
    Memory capacity defaults to 80 GB. *)

val designs : ?memory_gb:float -> tpp_target:float -> sweep -> Acs_hardware.Device.t list
(** Devices for every swept combination, in [enumerate] order; built in
    parallel over the {!Acs_util.Parallel} pool. *)

val constrain :
  ?market:Acs_policy.Regime.market ->
  ?memory_gb:float ->
  regime:Acs_policy.Regime.t ->
  tpp_target:float ->
  sweep ->
  params list
(** The sweep's points whose built device is fully unregulated under the
    regime, in [enumerate] order: the compliance pre-filter (device
    construction and the area model are cheap; no simulation runs).
    Agrees with filtering evaluated designs by {!Design.compliant} —
    the regime sees the same spec either way. [market] defaults to
    [Data_center]. *)

(** {2 JSON codecs (scenario manifests)} *)

val params_to_json : params -> Acs_util.Json.t
val params_of_json : Acs_util.Json.t -> params

val sweep_to_json : sweep -> Acs_util.Json.t
(** Sweeps structurally equal to a {!named} one serialize as their name;
    anything else as the full per-axis lists. *)

val sweep_of_json : Acs_util.Json.t -> sweep
(** Accepts a name from {!named} or the full per-axis form. Raises
    {!Acs_util.Json.Error} on unknown names and empty axes.
    [sweep_of_json (sweep_to_json s) = s]. *)
