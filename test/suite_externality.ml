open Core
open Helpers

let names gpus = List.map (fun g -> g.Gpu.name) gpus

let t_fig9_counts () =
  let a = Marketing.analyze Database.survey in
  (* Paper Fig. 9: 4 false data center, 7 false non-data center. *)
  Alcotest.(check int) "false DC" 4 (List.length a.Marketing.false_dc);
  Alcotest.(check int) "false NDC" 7 (List.length a.Marketing.false_ndc);
  Alcotest.(check int) "partition"
    (List.length Database.survey)
    (List.length a.Marketing.false_dc
    + List.length a.Marketing.false_ndc
    + List.length a.Marketing.consistent_dc
    + List.length a.Marketing.consistent_ndc)

let t_fig9_members () =
  let a = Marketing.analyze Database.survey in
  let false_dc = names a.Marketing.false_dc in
  (* The paper names the L40 and A40 explicitly. *)
  Alcotest.(check bool) "L40" true (List.mem "L40" false_dc);
  Alcotest.(check bool) "A40" true (List.mem "A40" false_dc);
  let false_ndc = names a.Marketing.false_ndc in
  (* ... and the RTX 4080 and RX 7900 XTX. *)
  Alcotest.(check bool) "RTX 4080" true (List.mem "RTX 4080" false_ndc);
  Alcotest.(check bool) "RX 7900 XTX" true (List.mem "RX 7900 XTX" false_ndc)

let t_fig9_rebranding_semantics () =
  (* A false-DC device must be regulated now and free when rebranded. *)
  let a = Marketing.analyze Database.survey in
  List.iter
    (fun g ->
      Alcotest.(check bool)
        (g.Gpu.name ^ " regulated now")
        true
        (Gpu.verdict Regime.acr_2023 g <> Regime.Unregulated);
      Alcotest.(check bool)
        (g.Gpu.name ^ " free rebranded")
        true
        (Marketing.rebranded_tier g = Regime.Unregulated))
    a.Marketing.false_dc;
  List.iter
    (fun g ->
      Alcotest.(check bool)
        (g.Gpu.name ^ " free now")
        true
        (Gpu.verdict Regime.acr_2023 g = Regime.Unregulated);
      Alcotest.(check bool)
        (g.Gpu.name ^ " regulated rebranded")
        true
        (Marketing.rebranded_tier g <> Regime.Unregulated))
    a.Marketing.false_ndc

let t_fig10_counts () =
  let a = Arch_classifier.analyze Database.survey in
  (* Paper Fig. 10: two false data center (L2, L4), no false non-DC. *)
  Alcotest.(check int) "false DC" 2 (List.length a.Arch_classifier.false_dc);
  Alcotest.(check int) "false NDC" 0 (List.length a.Arch_classifier.false_ndc);
  let fdc = List.sort compare (names a.Arch_classifier.false_dc) in
  Alcotest.(check (list string)) "members" [ "L2"; "L4" ] fdc

let t_fig10_consistency () =
  let a = Arch_classifier.analyze Database.survey in
  List.iter
    (fun g ->
      Alcotest.(check bool)
        (g.Gpu.name ^ " consistent")
        true
        (Arch_classifier.status g = Arch_classifier.Consistent))
    (a.Arch_classifier.consistent_dc @ a.Arch_classifier.consistent_ndc)

let t_status_strings () =
  Alcotest.(check string) "marketing" "False DC"
    (Marketing.status_to_string Marketing.False_data_center);
  Alcotest.(check string) "arch" "False NDC"
    (Arch_classifier.status_to_string Arch_classifier.False_non_data_center)

let t_single_device_statuses () =
  let find n = Option.get (Database.find n) in
  Alcotest.(check bool) "H100 consistent under marketing" true
    (Marketing.status (find "H100") = Marketing.Consistent);
  Alcotest.(check bool) "MI210 false DC" true
    (Marketing.status (find "MI210") = Marketing.False_data_center);
  Alcotest.(check bool) "RTX 4070 false NDC" true
    (Marketing.status (find "RTX 4070") = Marketing.False_non_data_center);
  Alcotest.(check bool) "L4 arch false DC" true
    (Arch_classifier.status (find "L4") = Arch_classifier.False_data_center);
  Alcotest.(check bool) "RTX 4090 arch consistent" true
    (Arch_classifier.status (find "RTX 4090") = Arch_classifier.Consistent)

let suite =
  [
    test "fig 9 counts (4 false DC, 7 false NDC)" t_fig9_counts;
    test "fig 9 named members" t_fig9_members;
    test "fig 9 rebranding semantics" t_fig9_rebranding_semantics;
    test "fig 10 counts (L2 and L4)" t_fig10_counts;
    test "fig 10 consistency" t_fig10_consistency;
    test "status strings" t_status_strings;
    test "individual statuses" t_single_device_statuses;
  ]
