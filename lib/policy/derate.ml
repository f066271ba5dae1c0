module Device = Acs_hardware.Device
module Memory = Acs_hardware.Memory
module Interconnect = Acs_hardware.Interconnect

type strategy =
  | Cap_interconnect of float
  | Cap_tpp of float
  | Cap_memory_bandwidth of float

let apply strategy (dev : Device.t) =
  match strategy with
  | Cap_interconnect gb_s ->
      if gb_s <= 0. || gb_s >= Device.device_bandwidth_gb_s dev then
        invalid_arg "Derate: interconnect cap must be below the current value";
      { dev with Device.interconnect = Interconnect.of_total_gb_s gb_s }
  | Cap_tpp tpp ->
      if tpp <= 0. || tpp >= Device.tpp dev then
        invalid_arg "Derate: TPP cap must be below the current value";
      let cores =
        Device.cores_for_tpp ~tpp ~lanes_per_core:dev.Device.lanes_per_core
          ~systolic:dev.Device.systolic
          ~frequency_mhz:(dev.Device.frequency_hz /. 1e6)
          ()
      in
      let capped = { dev with Device.core_count = min cores dev.Device.core_count } in
      (* The rules regulate at ">= threshold": back off one core when the
         cap is hit exactly. *)
      if Device.tpp capped >= tpp && capped.Device.core_count > 1 then
        { capped with Device.core_count = capped.Device.core_count - 1 }
      else capped
  | Cap_memory_bandwidth tb_s ->
      if
        tb_s <= 0.
        || tb_s *. 1e12 >= Device.memory_bandwidth dev
      then invalid_arg "Derate: memory cap must be below the current value";
      { dev with Device.memory = Memory.with_bandwidth dev.Device.memory ~bandwidth_tb_s:tb_s }

let strategy_to_string = function
  | Cap_interconnect gb -> Printf.sprintf "cap interconnect at %.0f GB/s" gb
  | Cap_tpp tpp -> Printf.sprintf "cut cores to TPP < %.0f" tpp
  | Cap_memory_bandwidth tb ->
      Printf.sprintf "cap memory bandwidth at %.1f TB/s" tb

let compliant_2022 dev =
  if not (Regime.regulated Regime.acr_2022 (Regime.of_device dev)) then []
  else begin
    let bw_escape =
      if Device.device_bandwidth_gb_s dev > 400. then
        [ Cap_interconnect 400. ]
      else []
    in
    let tpp_cap = Option.get (Regime.threshold Regime.acr_2022 Regime.Tpp) in
    let tpp_escape =
      if Device.tpp dev >= tpp_cap then [ Cap_tpp tpp_cap ] else []
    in
    List.map (fun s -> (s, apply s dev)) (bw_escape @ tpp_escape)
  end

let best_2023_core_cut ?die_area_mm2 dev =
  let area =
    match die_area_mm2 with
    | Some a -> a
    | None -> Acs_area.Area_model.total_mm2 dev
  in
  let unregulated cores =
    let candidate = { dev with Device.core_count = cores } in
    not
      (Regime.regulated Regime.acr_2023
         (Regime.of_device ~area_mm2:area candidate))
  in
  (* Tier boundaries are monotone in core count, so binary search works. *)
  if not (unregulated 1) then None
  else if unregulated dev.Device.core_count then Some dev
  else begin
    let rec search lo hi =
      (* invariant: lo unregulated, hi regulated *)
      if hi - lo <= 1 then lo
      else begin
        let mid = (lo + hi) / 2 in
        if unregulated mid then search mid hi else search lo mid
      end
    in
    let cores = search 1 dev.Device.core_count in
    Some { dev with Device.core_count = cores }
  end
