open Core
open Helpers

let t_survey_composition () =
  Alcotest.(check int) "65 devices" 65 (List.length Database.survey);
  Alcotest.(check int) "14 data center" 14
    (List.length (Database.data_center Database.survey));
  Alcotest.(check int) "51 non data center" 51
    (List.length (Database.non_data_center Database.survey));
  Alcotest.(check bool) "all within 2018-2024" true
    (List.for_all (fun g -> g.Gpu.year >= 2018 && g.Gpu.year <= 2024)
       Database.survey)

let t_no_duplicate_names () =
  let names = List.map (fun g -> g.Gpu.name) Database.all in
  let sorted = List.sort_uniq compare names in
  Alcotest.(check int) "unique names" (List.length names) (List.length sorted)

let t_lookup () =
  (match Database.find "a100" with
  | Some g -> check_close "a100 tpp" 4992. g.Gpu.tpp
  | None -> Alcotest.fail "A100 missing");
  Alcotest.(check bool) "unknown" true (Database.find "RTX 9090" = None)

let t_field_sanity () =
  List.iter
    (fun g ->
      if g.Gpu.tpp <= 0. then Alcotest.failf "%s: bad tpp" g.Gpu.name;
      if g.Gpu.die_area_mm2 <= 0. then Alcotest.failf "%s: bad area" g.Gpu.name;
      if g.Gpu.memory_gb <= 0. then Alcotest.failf "%s: bad memory" g.Gpu.name;
      if g.Gpu.memory_bw_gb_s <= 0. then Alcotest.failf "%s: bad mem bw" g.Gpu.name;
      if g.Gpu.device_bw_gb_s <= 0. then Alcotest.failf "%s: bad dev bw" g.Gpu.name;
      if g.Gpu.die_count < 1 then Alcotest.failf "%s: bad die count" g.Gpu.name)
    Database.all

let t_known_pd_values () =
  let pd name = Gpu.performance_density (Option.get (Database.find name)) in
  (* Values the paper quotes in Sec. 2.2. *)
  check_within "A800 pd" ~tolerance:0.01 6.04 (pd "A800");
  check_within "H800 pd" ~tolerance:0.01 19.44 (pd "H800");
  check_within "MI210 pd" ~tolerance:0.01 3.76 (pd "MI210");
  check_within "RTX 4090 pd" ~tolerance:0.01 8.68 (pd "RTX 4090")

let classification regime name expected =
  let g = Option.get (Database.find name) in
  let actual = Gpu.verdict regime g in
  if actual <> expected then
    Alcotest.failf "%s: %s %s, expected %s" name regime.Regime.name
      (Regime.verdict_to_string actual)
      (Regime.verdict_to_string expected)

let classification_2022 = classification Regime.acr_2022
let classification_2023 = classification Regime.acr_2023

let t_fig1a () =
  (* Figure 1a: license-required vs not-applicable under October 2022. *)
  let lic = Regime.License and na = Regime.Unregulated in
  classification_2022 "H100" lic;
  classification_2022 "A100" lic;
  classification_2022 "MI250X" lic;
  classification_2022 "MI300X" lic;
  classification_2022 "H800" na;
  classification_2022 "A800" na;
  classification_2022 "A30" na;
  classification_2022 "H20" na;
  classification_2022 "MI210" na

let t_fig1b () =
  (* Figure 1b: tiers under October 2023. *)
  let lic = Regime.License and nac = Regime.Nac and na = Regime.Unregulated in
  classification_2023 "H100" lic;
  classification_2023 "H800" lic;
  classification_2023 "A100" lic;
  classification_2023 "A800" lic;
  classification_2023 "MI300X" lic;
  classification_2023 "MI250X" lic;
  classification_2023 "MI210" nac;
  classification_2023 "A30" nac;
  classification_2023 "L40" nac;
  classification_2023 "H20" na;
  classification_2023 "L20" na;
  classification_2023 "L4" na;
  classification_2023 "L2" na;
  (* Sec. 2.2: the RTX 4090 now requires NAC; the 4090D avoids it. *)
  classification_2023 "RTX 4090" nac;
  classification_2023 "RTX 4090 D" na

let t_segments () =
  let dc = Database.data_center Database.survey in
  Alcotest.(check bool) "L4 marketed DC" true
    (List.exists (fun g -> g.Gpu.name = "L4") dc);
  let g4090 = Option.get (Database.find "RTX 4090") in
  Alcotest.(check bool) "4090 consumer" true (g4090.Gpu.segment = Gpu.Consumer);
  Alcotest.(check bool) "marketing market" true
    (Gpu.marketing_market g4090 = Regime.Non_data_center)

let t_arch_market () =
  let h100 = Option.get (Database.find "H100") in
  Alcotest.(check bool) "H100 arch DC" true
    (Gpu.architectural_market h100 = Regime.Data_center);
  let l4 = Option.get (Database.find "L4") in
  Alcotest.(check bool) "L4 arch NDC" true
    (Gpu.architectural_market l4 = Regime.Non_data_center)

let t_filters () =
  let nv = Database.by_vendor Gpu.Nvidia Database.survey in
  let amd = Database.by_vendor Gpu.Amd Database.survey in
  Alcotest.(check int) "vendor partition" 65 (List.length nv + List.length amd);
  let recent = Database.released_between 2023 2024 Database.survey in
  Alcotest.(check bool) "some 2023-2024 devices" true (List.length recent > 10);
  Alcotest.(check bool) "all in range" true
    (List.for_all (fun g -> g.Gpu.year >= 2023) recent)

let t_flagships () =
  Alcotest.(check int) "fig 1a set" 9 (List.length Database.flagships_2022);
  Alcotest.(check int) "fig 1b set" 13 (List.length Database.flagships_2023)

let t_to_template () =
  let check_name name =
    let g = Option.get (Database.find name) in
    let d = Gpu.to_template g in
    (* TPP matches the datasheet within one core's worth. *)
    let per_core = Device.tpp d /. float_of_int d.Device.core_count in
    Helpers.check_between (name ^ " template tpp")
      (g.Gpu.tpp -. per_core) (g.Gpu.tpp +. 1.)
      (Device.tpp d);
    Helpers.check_close (name ^ " membw")
      (g.Gpu.memory_bw_gb_s *. 1e9)
      (Device.memory_bandwidth d);
    Helpers.check_close (name ^ " devbw") g.Gpu.device_bw_gb_s
      (Device.device_bandwidth_gb_s d)
  in
  List.iter check_name [ "A100"; "H20"; "MI210"; "RTX 4090" ];
  (* The A100's template reproduces the canonical preset's organization. *)
  let a = Gpu.to_template (Option.get (Database.find "A100")) in
  Alcotest.(check int) "a100 cores" 108 a.Device.core_count

let t_template_simulates () =
  let h20 = Gpu.to_template (Option.get (Database.find "H20")) in
  let base = Engine.simulate Presets.a100 Model.gpt3_175b in
  let r = Engine.simulate h20 Model.gpt3_175b in
  (* The H20 story: much slower prefill, faster decode. *)
  Alcotest.(check bool) "slower prefill" true (r.Engine.ttft_s > 1.5 *. base.Engine.ttft_s);
  Alcotest.(check bool) "faster decode" true (r.Engine.tbt_s < base.Engine.tbt_s)

let suite =
  [
    test "survey composition (65 = 14 + 51)" t_survey_composition;
    test "to_template approximations" t_to_template;
    test "templates simulate (H20 story)" t_template_simulates;
    test "no duplicate names" t_no_duplicate_names;
    test "lookup" t_lookup;
    test "field sanity" t_field_sanity;
    test "paper-quoted PD values" t_known_pd_values;
    test "fig 1a classifications" t_fig1a;
    test "fig 1b classifications" t_fig1b;
    test "market segments" t_segments;
    test "architectural market" t_arch_market;
    test "filters" t_filters;
    test "flagship sets" t_flagships;
  ]
