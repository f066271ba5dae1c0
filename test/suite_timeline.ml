open Core
open Helpers

let spec_of name = Gpu.spec (Option.get (Database.find name))

let t_regimes () =
  Alcotest.(check bool) "sep 2022" true
    (Timeline.regime_at (Timeline.date 2022 9) = Timeline.Pre_acr);
  Alcotest.(check bool) "oct 2022" true
    (Timeline.regime_at (Timeline.date 2022 10) = Timeline.Acr_oct_2022);
  Alcotest.(check bool) "sep 2023" true
    (Timeline.regime_at (Timeline.date 2023 9) = Timeline.Acr_oct_2022);
  Alcotest.(check bool) "oct 2023" true
    (Timeline.regime_at (Timeline.date 2023 10) = Timeline.Acr_oct_2023);
  Alcotest.(check bool) "today" true
    (Timeline.regime_at (Timeline.date 2026 7) = Timeline.Acr_oct_2023);
  check_raises_invalid "month 13" (fun () -> ignore (Timeline.date 2024 13))

let t_a800_cat_and_mouse () =
  (* The A800 existed to escape October 2022 and was recaptured a year
     later - the paper's Sec. 2.2 story, as a timeline. *)
  let market = Regime.Data_center in
  let spec = spec_of "A800" in
  Alcotest.(check bool) "free before rules" true
    (Timeline.classify_at (Timeline.date 2022 8) ~market spec = Timeline.Unregulated);
  Alcotest.(check bool) "free under oct 2022" true
    (Timeline.classify_at (Timeline.date 2023 1) ~market spec = Timeline.Unregulated);
  Alcotest.(check bool) "licensed under oct 2023" true
    (Timeline.classify_at (Timeline.date 2024 1) ~market spec = Timeline.License)

let t_history () =
  let h = Timeline.history ~market:Regime.Data_center (spec_of "A100") in
  Alcotest.(check int) "three regimes" 3 (List.length h);
  Alcotest.(check bool) "pre-acr free" true
    (List.assoc Timeline.Pre_acr h = Timeline.Unregulated);
  Alcotest.(check bool) "licensed since 2022" true
    (List.assoc Timeline.Acr_oct_2022 h = Timeline.License
    && List.assoc Timeline.Acr_oct_2023 h = Timeline.License);
  (* MI210: unregulated until October 2023, then NAC. *)
  let mi210 = Timeline.history ~market:Regime.Data_center (spec_of "MI210") in
  Alcotest.(check bool) "mi210 nac in 2023" true
    (List.assoc Timeline.Acr_oct_2022 mi210 = Timeline.Unregulated
    && List.assoc Timeline.Acr_oct_2023 mi210 = Timeline.Nac_notification)

let t_market_matters_only_in_2023 () =
  let spec = spec_of "RTX 4090" in
  let at market = Timeline.classify_at (Timeline.date 2024 1) ~market spec in
  Alcotest.(check bool) "consumer NAC" true
    (at Regime.Non_data_center = Timeline.Nac_notification);
  Alcotest.(check bool) "as DC licensed" true
    (at Regime.Data_center = Timeline.License);
  Alcotest.(check bool) "2022 ignores market" true
    (Timeline.classify_at (Timeline.date 2023 1) ~market:Regime.Data_center spec
    = Timeline.classify_at (Timeline.date 2023 1) ~market:Regime.Non_data_center spec)

let suite =
  [
    test "regime boundaries" t_regimes;
    test "A800 cat-and-mouse" t_a800_cat_and_mouse;
    test "history" t_history;
    test "market only matters from 2023" t_market_matters_only_in_2023;
  ]
