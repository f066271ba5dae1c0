type t = {
  tpp : float;
  device_bw_gb_s : float;
  die_area_mm2 : float;
  non_planar : bool;
}

let make ?(non_planar = true) ~tpp ~device_bw_gb_s ~die_area_mm2 () =
  (* Written so NaN fails every check. *)
  if not (Float.is_finite tpp && tpp >= 0.) then
    invalid_arg "Spec.make: TPP must be finite and non-negative";
  if not (Float.is_finite device_bw_gb_s && device_bw_gb_s >= 0.) then
    invalid_arg "Spec.make: bandwidth must be finite and non-negative";
  if not (Float.is_finite die_area_mm2 && die_area_mm2 > 0.) then
    invalid_arg "Spec.make: area must be finite and positive";
  { tpp; device_bw_gb_s; die_area_mm2; non_planar }

let performance_density t =
  if t.non_planar then t.tpp /. t.die_area_mm2 else 0.

let of_device ?area_mm2 dev =
  let die_area_mm2 =
    match area_mm2 with
    | Some a -> a
    | None -> Acs_area.Area_model.total_mm2 dev
  in
  make
    ~non_planar:(Acs_hardware.Process.non_planar dev.Acs_hardware.Device.process)
    ~tpp:(Acs_hardware.Device.tpp dev)
    ~device_bw_gb_s:(Acs_hardware.Device.device_bandwidth_gb_s dev)
    ~die_area_mm2 ()

let of_package ?device_bw_gb_s pkg =
  let module P = Acs_hardware.Package in
  let device_bw_gb_s =
    match device_bw_gb_s with
    | Some bw -> bw
    | None ->
        Acs_hardware.Device.device_bandwidth_gb_s pkg.P.compute_die
  in
  make
    ~non_planar:
      (Acs_hardware.Process.non_planar
         pkg.P.compute_die.Acs_hardware.Device.process)
    ~tpp:(P.total_tpp pkg) ~device_bw_gb_s
    ~die_area_mm2:(P.total_area_mm2 pkg) ()

let pp ppf t =
  Format.fprintf ppf "TPP %.0f, %.0f GB/s dev BW, %.0f mm^2 (PD %.2f)" t.tpp
    t.device_bw_gb_s t.die_area_mm2 (performance_density t)
