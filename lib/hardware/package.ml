type t = {
  name : string;
  compute_die : Device.t;
  compute_die_area_mm2 : float;
  compute_dies : int;
  io_die_area_mm2 : float;
  io_dies : int;
}

let make ?(name = "package") ?(io_die_area_mm2 = 0.) ?(io_dies = 0)
    ~compute_die ~compute_die_area_mm2 ~compute_dies () =
  if compute_dies <= 0 then
    invalid_arg "Package.make: need at least one compute die";
  if not (Float.is_finite compute_die_area_mm2 && compute_die_area_mm2 > 0.)
  then invalid_arg "Package.make: compute die area must be finite and positive";
  if not (Float.is_finite io_die_area_mm2) then
    invalid_arg "Package.make: IO die area must be finite";
  if io_dies < 0 || (io_dies > 0 && io_die_area_mm2 <= 0.) then
    invalid_arg "Package.make: inconsistent IO dies";
  let reticle = Presets.reticle_limit_mm2 in
  if compute_die_area_mm2 > reticle || io_die_area_mm2 > reticle then
    invalid_arg "Package.make: a chiplet exceeds the reticle limit";
  {
    name;
    compute_die;
    compute_die_area_mm2;
    compute_dies;
    io_die_area_mm2;
    io_dies;
  }

let total_tpp t = float_of_int t.compute_dies *. Device.tpp t.compute_die

let total_area_mm2 t =
  (float_of_int t.compute_dies *. t.compute_die_area_mm2)
  +. (float_of_int t.io_dies *. t.io_die_area_mm2)

let performance_density t = total_tpp t /. total_area_mm2 t

let die_areas t =
  List.init t.compute_dies (fun _ -> t.compute_die_area_mm2)
  @ List.init t.io_dies (fun _ -> t.io_die_area_mm2)

let with_compute_dies t compute_dies =
  if compute_dies <= 0 then
    invalid_arg "Package.with_compute_dies: need at least one compute die";
  { t with compute_dies }

let monolithic_equivalent_area = total_area_mm2

let pp ppf t =
  Format.fprintf ppf
    "%s: %d x %.0f mm^2 compute dies%s = %.0f mm^2, TPP %.0f (PD %.2f)"
    t.name t.compute_dies t.compute_die_area_mm2
    (if t.io_dies > 0 then
       Printf.sprintf " + %d x %.0f mm^2 IO" t.io_dies t.io_die_area_mm2
     else "")
    (total_area_mm2 t) (total_tpp t) (performance_density t)
