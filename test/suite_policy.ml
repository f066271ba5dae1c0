open Core
open Helpers

let spec ?(area = 800.) ?(non_planar = true) tpp bw =
  Spec.make ~non_planar ~tpp ~device_bw_gb_s:bw ~die_area_mm2:area ()

(* --- Spec --- *)

let t_spec () =
  let s = spec ~area:826. 4992. 600. in
  check_within "pd" ~tolerance:0.01 6.04 (Spec.performance_density s);
  let planar = spec ~non_planar:false 4992. 600. in
  check_close "planar pd is zero" 0. (Spec.performance_density planar);
  check_raises_invalid "negative tpp" (fun () -> ignore (spec (-1.) 600.));
  check_raises_invalid "zero area" (fun () -> ignore (spec ~area:0. 1. 600.));
  List.iter
    (fun bad ->
      let name field = Printf.sprintf "%s %g" field bad in
      check_raises_invalid (name "tpp") (fun () -> ignore (spec bad 600.));
      check_raises_invalid (name "bandwidth") (fun () -> ignore (spec 1. bad));
      check_raises_invalid (name "area") (fun () ->
          ignore (spec ~area:bad 1. 600.)))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

(* --- October 2022 (Table 1a) --- *)

let verdict_2022 s = Regime.verdict Regime.acr_2022 (Regime.of_spec s)

let t_acr2022_table () =
  let lic = Regime.License and na = Regime.Unregulated in
  Alcotest.(check bool) "A100 licensed" true (verdict_2022 (spec 4992. 600.) = lic);
  Alcotest.(check bool) "A800 free (bw capped)" true (verdict_2022 (spec 4992. 400.) = na);
  Alcotest.(check bool) "H20-like free (tpp capped)" true (verdict_2022 (spec 2368. 900.) = na);
  Alcotest.(check bool) "both under" true (verdict_2022 (spec 4799. 599.) = na);
  Alcotest.(check bool) "boundary is regulated" true (verdict_2022 (spec 4800. 600.) = lic)

(* --- October 2023 (Table 1b) --- *)

let dc = Regime.Data_center
let ndc = Regime.Non_data_center

let classify_2023 market s =
  Regime.verdict ~market Regime.acr_2023 (Regime.of_spec s)
let classify_dc ?area tpp = classify_2023 dc (spec ?area tpp 600.)
let classify_ndc ?area tpp = classify_2023 ndc (spec ?area tpp 600.)

let t_acr2023_dc_license () =
  Alcotest.(check bool) "tpp >= 4800" true
    (classify_dc ~area:3000. 4800. = Regime.License);
  (* H800: TPP 15824, PD 19.4 *)
  Alcotest.(check bool) "H800" true
    (classify_dc ~area:814. 15824. = Regime.License);
  (* A800: TPP 4992, PD 6.04: license by both clauses *)
  Alcotest.(check bool) "A800" true
    (classify_dc ~area:826. 4992. = Regime.License);
  (* high PD at modest TPP *)
  Alcotest.(check bool) "1600 TPP, PD 6" true
    (classify_dc ~area:266. 1600. = Regime.License)

let t_acr2023_dc_nac () =
  (* MI210: 2896 TPP, PD 3.76 *)
  Alcotest.(check bool) "MI210" true
    (classify_dc ~area:770. 2896. = Regime.Nac);
  (* A30: 2640 TPP over 826 mm^2 -> PD 3.20 >= 3.2 *)
  Alcotest.(check bool) "A30" true
    (classify_dc ~area:826. 2643.2 = Regime.Nac);
  (* First NAC clause: 2400 <= TPP < 4800 and 1.6 <= PD < 5.92 *)
  Alcotest.(check bool) "2400 @ PD 1.6" true
    (classify_dc ~area:1500. 2400. = Regime.Nac)

let t_acr2023_dc_free () =
  (* H20: TPP 2368, PD 2.91 *)
  Alcotest.(check bool) "H20" true
    (classify_dc ~area:814. 2368. = Regime.Unregulated);
  (* L20: TPP 1912, PD 3.14 *)
  Alcotest.(check bool) "L20" true
    (classify_dc ~area:608.5 1912. = Regime.Unregulated);
  (* below the TPP floor entirely *)
  Alcotest.(check bool) "small" true
    (classify_dc ~area:100. 1500. = Regime.Unregulated);
  (* 2399 TPP needs > 750 mm^2 (paper Sec. 2.5) *)
  Alcotest.(check bool) "2399 @ 751mm2" true
    (classify_dc ~area:751. 2399. = Regime.Unregulated);
  Alcotest.(check bool) "2399 @ 740mm2 regulated" true
    (classify_dc ~area:740. 2399. = Regime.Nac)

let t_acr2023_ndc () =
  (* RTX 4090: TPP 5285 -> NAC; RTX 4090D: 4708 -> free *)
  Alcotest.(check bool) "4090" true (classify_ndc ~area:608.5 5285. = Regime.Nac);
  Alcotest.(check bool) "4090D" true
    (classify_ndc ~area:608.5 4708. = Regime.Unregulated);
  (* PD is irrelevant for non-data-center devices *)
  Alcotest.(check bool) "high PD consumer free" true
    (classify_ndc ~area:100. 4000. = Regime.Unregulated)

let t_acr2023_planar_exempt_pd () =
  (* A planar-process device has no applicable area: only raw TPP counts. *)
  let s = Spec.make ~non_planar:false ~tpp:2400. ~device_bw_gb_s:600. ~die_area_mm2:100. () in
  Alcotest.(check bool) "planar free despite tiny area" true
    (classify_2023 dc s = Regime.Unregulated)

let area_floor tpp = Regime.area_floor Regime.acr_2023 ~tpp

let t_area_floors () =
  (* Paper Sec. 2.5: 2399 TPP -> 750 mm^2; 1600 TPP NAC-free -> 500 mm^2;
     4799 TPP -> ~3000 mm^2; >= 4800 impossible. *)
  (match area_floor 2399. with
  | Some a -> check_within "2399 floor" ~tolerance:0.01 750. a
  | None -> Alcotest.fail "2399 should have a floor");
  (match area_floor 1600. with
  | Some a -> check_within "1600 floor" ~tolerance:0.01 500. a
  | None -> Alcotest.fail "1600 should have a floor");
  (match area_floor 4799. with
  | Some a -> check_within "4799 floor" ~tolerance:0.01 2999.4 a
  | None -> Alcotest.fail "4799 should have a floor");
  Alcotest.(check bool) "4800 impossible" true (area_floor 4800. = None);
  Alcotest.(check bool) "tiny tpp unconstrained" true
    (area_floor 100. = Some 0.)

let t_tier_order () =
  Alcotest.(check bool) "NA < NAC" true
    (Regime.compare_verdict Regime.Unregulated Regime.Nac < 0);
  Alcotest.(check bool) "NAC < License" true
    (Regime.compare_verdict Regime.Nac Regime.License < 0)

(* --- December 2024 HBM rule --- *)

(* A commodity HBM package: its memory bandwidth over its area. *)
let hbm_package ~bandwidth_gb_s ~package_area_mm2 =
  Regime.verdict Regime.hbm_2024
    (Regime.subject ~memory_bw_tb_s:(bandwidth_gb_s /. 1000.)
       (Spec.make ~tpp:0. ~device_bw_gb_s:0. ~die_area_mm2:package_area_mm2 ()))

let t_hbm () =
  Alcotest.(check bool) "low density" true
    (hbm_package ~bandwidth_gb_s:150. ~package_area_mm2:100. = Regime.Unregulated);
  Alcotest.(check bool) "mid density" true
    (hbm_package ~bandwidth_gb_s:250. ~package_area_mm2:100. = Regime.Nac);
  Alcotest.(check bool) "high density" true
    (hbm_package ~bandwidth_gb_s:400. ~package_area_mm2:100. = Regime.License);
  check_raises_invalid "area" (fun () ->
      ignore (hbm_package ~bandwidth_gb_s:1. ~package_area_mm2:0.))

(* --- Proposals --- *)

let t_arch_dc_classifier () =
  Alcotest.(check bool) "H100 is DC" true
    (Proposals.architectural_data_center ~memory_gb:80. ~memory_bw_gb_s:3350.);
  Alcotest.(check bool) "4090 not DC" false
    (Proposals.architectural_data_center ~memory_gb:24. ~memory_bw_gb_s:1008.);
  Alcotest.(check bool) "MI100 (32 GB) is DC" true
    (Proposals.architectural_data_center ~memory_gb:32. ~memory_bw_gb_s:1228.);
  Alcotest.(check bool) "bandwidth alone suffices" true
    (Proposals.architectural_data_center ~memory_gb:16. ~memory_bw_gb_s:1700.)

let t_limits () =
  let a100 = Presets.a100 in
  Alcotest.(check bool) "unconstrained" true
    (Proposals.compliant Proposals.unconstrained a100);
  Alcotest.(check bool) "tpp-only blocks A100" false
    (Proposals.compliant (Proposals.tpp_only 4800.) a100);
  Alcotest.(check bool) "ai-targeted blocks A100" false
    (Proposals.compliant Proposals.ai_targeted a100);
  let small =
    Device.make ~core_count:50 ~lanes_per_core:4 ~systolic:(Systolic.square 4)
      ~l1_kb:32. ~l2_mb:8.
      ~memory:(Memory.make ~capacity_gb:24. ~bandwidth_tb_s:0.8)
      ~interconnect:(Interconnect.of_total_gb_s 64.)
      ()
  in
  Alcotest.(check bool) "small device passes ai-targeted" true
    (Proposals.compliant Proposals.ai_targeted small);
  Alcotest.(check bool) "gaming carveout rejects 16x16" false
    (Proposals.compliant Proposals.gaming_carveout a100);
  Alcotest.(check bool) "gaming carveout accepts 4x4" true
    (Proposals.compliant Proposals.gaming_carveout
       { small with Device.memory = Memory.make ~capacity_gb:24. ~bandwidth_tb_s:1.2 })

let t_violations_detail () =
  let a100 = Presets.a100 in
  let v = Proposals.violations Proposals.ai_targeted a100 in
  Alcotest.(check int) "three violations" 3 (List.length v);
  Alcotest.(check bool) "strings render" true
    (List.for_all
       (fun x -> String.length (Proposals.violation_to_string x) > 0)
       v)

(* Property: raising TPP can never relax a classification. *)

let prop_tpp_monotone_2023 =
  qcheck "oct-2023 DC tier monotone in TPP"
    QCheck.(pair (float_range 1. 20000.) (pair (float_range 1. 20000.) (float_range 50. 3000.)))
    (fun (t1, (t2, area)) ->
      let lo = Float.min t1 t2 and hi = Float.max t1 t2 in
      let c tpp = classify_dc ~area tpp in
      (* With area held fixed, more TPP also means more PD: tier can only
         rise. *)
      Regime.compare_verdict (c lo) (c hi) <= 0)

let prop_area_monotone_2023 =
  qcheck "oct-2023 DC tier monotone (relaxing) in area"
    QCheck.(pair (float_range 1. 20000.) (pair (float_range 50. 3000.) (float_range 50. 3000.)))
    (fun (tpp, (a1, a2)) ->
      let lo = Float.min a1 a2 and hi = Float.max a1 a2 in
      let c area = classify_dc ~area tpp in
      Regime.compare_verdict (c hi) (c lo) <= 0)

let prop_2022_monotone =
  qcheck "oct-2022 monotone in both knobs"
    QCheck.(pair (float_range 1. 20000.) (float_range 1. 2000.))
    (fun (tpp, bw) ->
      let regulated tpp bw =
        Regime.regulated Regime.acr_2022 (Regime.of_spec (spec tpp bw))
      in
      (not (regulated tpp bw)) || regulated (tpp +. 100.) (bw +. 100.))

(* The [Regime.area_floor] contract, on acr-2023 and on tightened
   variants: a positive floor is where the verdict flips (unregulated
   just above it, regulated just below); [Some 0.] means no sampled area
   is regulated and [None] that every one is. Below 4800 TPP the
   published rule always has a floor. *)
let prop_floor_unregulated =
  let sampled_areas = [ 1.; 10.; 100.; 500.; 750.; 1000.; 3000.; 1e4; 1e6 ] in
  qcheck ~count:500 "area floors produce unregulated designs"
    QCheck.(pair (float_range 0. 20000.) (option (float_range 0.1 1.)))
    (fun (tpp, factor) ->
      let r =
        match factor with
        | None -> Regime.acr_2023
        | Some factor -> Regime.tighten ~factor Regime.acr_2023
      in
      let regulated area =
        Regime.regulated r (Regime.of_spec (spec ~area tpp 600.))
      in
      let floor = Regime.area_floor r ~tpp in
      (factor <> None || tpp >= 4800. || floor <> None)
      &&
      match floor with
      | Some a when a > 0. ->
          (not (regulated (a *. (1. +. 1e-9)))) && regulated (a *. (1. -. 1e-9))
      | Some _ -> List.for_all (fun a -> not (regulated a)) sampled_areas
      | None -> List.for_all regulated sampled_areas)

let suite =
  [
    test "spec construction" t_spec;
    test "oct-2022 table 1a" t_acr2022_table;
    test "oct-2023 DC license tier" t_acr2023_dc_license;
    test "oct-2023 DC NAC tier" t_acr2023_dc_nac;
    test "oct-2023 DC unregulated" t_acr2023_dc_free;
    test "oct-2023 non-DC" t_acr2023_ndc;
    test "oct-2023 planar PD exemption" t_acr2023_planar_exempt_pd;
    test "oct-2023 area floors (fig 2)" t_area_floors;
    test "tier ordering" t_tier_order;
    test "dec-2024 HBM rule" t_hbm;
    test "architectural DC classifier" t_arch_dc_classifier;
    test "proposal limits" t_limits;
    test "violation details" t_violations_detail;
    prop_tpp_monotone_2023;
    prop_area_monotone_2023;
    prop_2022_monotone;
    prop_floor_unregulated;
  ]
