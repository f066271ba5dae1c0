open Core
open Helpers

let die tpp =
  let cores =
    Device.cores_for_tpp ~tpp ~lanes_per_core:2 ~systolic:(Systolic.square 16) ()
  in
  Device.make ~name:"chiplet" ~core_count:cores ~lanes_per_core:2
    ~systolic:(Systolic.square 16) ~l1_kb:192. ~l2_mb:16.
    ~memory:(Memory.make ~capacity_gb:16. ~bandwidth_tb_s:0.8)
    ~interconnect:(Interconnect.of_total_gb_s 100.)
    ()

let t_aggregation () =
  let d = die 1200. in
  let pkg =
    Package.make ~compute_die:d ~compute_die_area_mm2:740. ~compute_dies:4 ()
  in
  check_close "tpp sums" (4. *. Device.tpp d) (Package.total_tpp pkg);
  check_close "area sums" 2960. (Package.total_area_mm2 pkg);
  check_close "pd" (Package.total_tpp pkg /. 2960.)
    (Package.performance_density pkg);
  Alcotest.(check int) "die list" 4 (List.length (Package.die_areas pkg))

let t_io_dies () =
  let pkg =
    Package.make ~compute_die:(die 1200.) ~compute_die_area_mm2:400.
      ~compute_dies:2 ~io_die_area_mm2:300. ~io_dies:1 ()
  in
  check_close "area includes io" 1100. (Package.total_area_mm2 pkg);
  Alcotest.(check int) "three dies" 3 (List.length (Package.die_areas pkg));
  (* The IO die contributes area but not TPP, lowering PD. *)
  let no_io =
    Package.make ~compute_die:(die 1200.) ~compute_die_area_mm2:400.
      ~compute_dies:2 ()
  in
  Alcotest.(check bool) "io die lowers pd" true
    (Package.performance_density pkg < Package.performance_density no_io)

let t_removing_chiplets_keeps_pd () =
  (* Paper Sec. 2.3: dropping compute chiplets cuts TPP and area together,
     so PD is unchanged. *)
  let pkg =
    Package.make ~compute_die:(die 1200.) ~compute_die_area_mm2:500.
      ~compute_dies:4 ()
  in
  let smaller = Package.with_compute_dies pkg 2 in
  check_close "pd preserved"
    (Package.performance_density pkg)
    (Package.performance_density smaller);
  Alcotest.(check bool) "tpp halves" true
    (Package.total_tpp smaller < Package.total_tpp pkg)

let t_validation () =
  let d = die 1200. in
  check_raises_invalid "zero dies" (fun () ->
      ignore (Package.make ~compute_die:d ~compute_die_area_mm2:400. ~compute_dies:0 ()));
  check_raises_invalid "nan die area" (fun () ->
      ignore
        (Package.make ~compute_die:d ~compute_die_area_mm2:Float.nan
           ~compute_dies:2 ()));
  check_raises_invalid "reticle-busting chiplet" (fun () ->
      ignore (Package.make ~compute_die:d ~compute_die_area_mm2:900. ~compute_dies:2 ()));
  check_raises_invalid "bad io" (fun () ->
      ignore
        (Package.make ~compute_die:d ~compute_die_area_mm2:400. ~compute_dies:2
           ~io_dies:1 ~io_die_area_mm2:0. ()));
  check_raises_invalid "with_compute_dies 0" (fun () ->
      ignore
        (Package.with_compute_dies
           (Package.make ~compute_die:d ~compute_die_area_mm2:400. ~compute_dies:2 ())
           0))

let t_escape_via_area () =
  (* The Sec. 2.5 headline: a 4799-TPP device needs > 3000 mm^2, which only
     a multi-chip module can provide. *)
  let d = die 1199. in
  let pkg =
    Package.make ~compute_die:d ~compute_die_area_mm2:755. ~compute_dies:4 ()
  in
  let spec =
    Spec.make ~tpp:(Package.total_tpp pkg) ~device_bw_gb_s:400.
      ~die_area_mm2:(Package.total_area_mm2 pkg) ()
  in
  check_between "tpp near 4796" 4700. 4799.9 (Package.total_tpp pkg);
  Alcotest.(check bool) "unregulated" true
    (Regime.verdict Regime.acr_2023 (Regime.of_spec spec) = Regime.Unregulated);
  (* The same silicon as one die is not manufacturable. *)
  Alcotest.(check bool) "monolithic impossible" true
    (Package.monolithic_equivalent_area pkg > Presets.reticle_limit_mm2);
  (* Spec.of_package agrees with the manual construction. *)
  let auto = Spec.of_package ~device_bw_gb_s:400. pkg in
  check_close "of_package tpp" (Package.total_tpp pkg) auto.Spec.tpp;
  check_close "of_package area" (Package.total_area_mm2 pkg)
    auto.Spec.die_area_mm2;
  Alcotest.(check bool) "same classification" true
    (Regime.verdict Regime.acr_2023 (Regime.of_spec auto) = Regime.Unregulated)

(* Package cost. *)

let t_package_cost () =
  let n7 = Cost_model.n7 in
  let mono = Cost_model.package_cost_usd ~process:n7 ~die_areas_mm2:[ 600. ] () in
  let split =
    Cost_model.package_cost_usd ~process:n7 ~die_areas_mm2:[ 300.; 300. ] ()
  in
  Alcotest.(check bool) "chiplets cheaper at 600mm2" true (split < mono);
  check_raises_invalid "empty" (fun () ->
      ignore (Cost_model.package_cost_usd ~process:n7 ~die_areas_mm2:[] ()));
  check_raises_invalid "bad assembly yield" (fun () ->
      ignore
        (Cost_model.package_cost_usd ~assembly_yield_per_die:0. ~process:n7
           ~die_areas_mm2:[ 100. ] ()))

let t_chiplet_advantage () =
  let n7 = Cost_model.n7 in
  (match Cost_model.chiplet_advantage ~process:n7 ~total_area_mm2:1600. ~dies:4 () with
  | Some adv -> Alcotest.(check bool) "large die advantage > 2x" true (adv > 2.)
  | None -> Alcotest.fail "1600mm2 fits a wafer");
  match Cost_model.chiplet_advantage ~process:n7 ~total_area_mm2:69000. ~dies:4 () with
  | None -> ()
  | Some _ -> Alcotest.fail "die larger than the wafer must be None"

let prop_package_cost_increases_with_dies_of_same_size =
  qcheck ~count:60 "adding a die adds cost"
    QCheck.(pair (float_range 50. 700.) (int_range 1 6))
    (fun (area, dies) ->
      let n7 = Cost_model.n7 in
      let areas n = List.init n (fun _ -> area) in
      Cost_model.package_cost_usd ~process:n7 ~die_areas_mm2:(areas (dies + 1)) ()
      > Cost_model.package_cost_usd ~process:n7 ~die_areas_mm2:(areas dies) ())

let suite =
  [
    test "TPP and area aggregate" t_aggregation;
    test "io dies" t_io_dies;
    test "removing chiplets keeps PD" t_removing_chiplets_keeps_pd;
    test "validation" t_validation;
    test "4799-TPP escape needs a multi-chip module" t_escape_via_area;
    test "package cost" t_package_cost;
    test "chiplet advantage" t_chiplet_advantage;
    prop_package_cost_increases_with_dies_of_same_size;
  ]
