type vendor = Nvidia | Amd
type segment = Data_center | Consumer | Workstation

type t = {
  name : string;
  vendor : vendor;
  year : int;
  segment : segment;
  tpp : float;
  die_area_mm2 : float;
  die_count : int;
  process : Acs_hardware.Process.t;
  memory_gb : float;
  memory_bw_gb_s : float;
  device_bw_gb_s : float;
  in_survey : bool;
}

let performance_density t =
  if Acs_hardware.Process.non_planar t.process then t.tpp /. t.die_area_mm2
  else 0.

let spec t =
  Acs_policy.Spec.make
    ~non_planar:(Acs_hardware.Process.non_planar t.process)
    ~tpp:t.tpp ~device_bw_gb_s:t.device_bw_gb_s ~die_area_mm2:t.die_area_mm2
    ()

let marketing_market t =
  match t.segment with
  | Data_center -> Acs_policy.Regime.Data_center
  | Consumer | Workstation -> Acs_policy.Regime.Non_data_center

let architectural_market t =
  if
    Acs_policy.Proposals.architectural_data_center ~memory_gb:t.memory_gb
      ~memory_bw_gb_s:t.memory_bw_gb_s
  then Acs_policy.Regime.Data_center
  else Acs_policy.Regime.Non_data_center

let subject t =
  Acs_policy.Regime.subject
    ~memory_bw_tb_s:(t.memory_bw_gb_s /. 1000.)
    ~memory_gb:t.memory_gb (spec t)

let verdict ?market regime t =
  let market = Option.value market ~default:(marketing_market t) in
  Acs_policy.Regime.verdict ~market regime (subject t)

let to_template t =
  let module D = Acs_hardware.Device in
  let systolic = Acs_hardware.Systolic.square 16 in
  let cores =
    max 1 (D.cores_for_tpp ~tpp:(t.tpp *. 1.0001) ~lanes_per_core:4 ~systolic ())
  in
  D.make ~name:(t.name ^ "-template") ~process:t.process ~core_count:cores
    ~lanes_per_core:4 ~systolic ~l1_kb:192. ~l2_mb:40.
    ~memory:
      (Acs_hardware.Memory.make ~capacity_gb:t.memory_gb
         ~bandwidth_tb_s:(t.memory_bw_gb_s /. 1000.))
    ~interconnect:(Acs_hardware.Interconnect.of_total_gb_s t.device_bw_gb_s)
    ()

let vendor_to_string = function Nvidia -> "NVIDIA" | Amd -> "AMD"

let segment_to_string = function
  | Data_center -> "data center"
  | Consumer -> "consumer"
  | Workstation -> "workstation"

let pp ppf t =
  Format.fprintf ppf
    "%s %s (%d, %s): TPP %.0f, %.0f mm^2 (PD %.2f), %.0f GB @ %.0f GB/s, dev \
     %.0f GB/s"
    (vendor_to_string t.vendor)
    t.name t.year
    (segment_to_string t.segment)
    t.tpp t.die_area_mm2 (performance_density t) t.memory_gb t.memory_bw_gb_s
    t.device_bw_gb_s
