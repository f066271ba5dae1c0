open Core
open Helpers

let t_sweep_sizes () =
  (* The paper's counts: 512 (Table 3 @ 600 GB/s), 1536 per TPP (Fig. 7),
     2304 (Table 5). *)
  Alcotest.(check int) "oct2022" 512 (Space.size Space.oct2022);
  Alcotest.(check int) "oct2023" 1536 (Space.size Space.oct2023);
  Alcotest.(check int) "restricted" 2304 (Space.size Space.restricted);
  Alcotest.(check int) "enumerate matches size" 512
    (List.length (Space.enumerate Space.oct2022))

let t_build_under_target () =
  List.iter
    (fun p ->
      let d = Space.build ~tpp_target:4800. p in
      if Device.tpp d >= 4800. then
        Alcotest.failf "design at %.0f TPP reaches the target" (Device.tpp d))
    (Space.enumerate Space.oct2022)

let t_build_paper_config () =
  (* 16x16 x 4 lanes at the 4800 target must give the 103-core / 4759-TPP
     configuration from Fig. 5. *)
  let p =
    { Space.systolic_dim = 16; lanes = 4; l1 = 192.; l2 = 40.; memory_bw = 2.;
      device_bw = 600.; clock_mhz = Space.default_clock_mhz }
  in
  let d = Space.build ~tpp_target:4800. p in
  Alcotest.(check int) "cores" 103 d.Device.core_count;
  check_within "tpp" ~tolerance:0.001 4759.1 (Device.tpp d)

let eval_few =
  lazy
    (let params = Space.enumerate Space.oct2022 in
     let some = List.filteri (fun i _ -> i mod 37 = 0) params in
     List.map
       (fun p ->
         Design.evaluate ~model:Model.llama3_8b p (Space.build ~tpp_target:4800. p))
       some)

let t_design_fields () =
  List.iter
    (fun d ->
      Alcotest.(check bool) "area positive" true (d.Design.area_mm2 > 0.);
      Alcotest.(check bool) "cost positive" true (d.Design.die_cost_usd > 0.);
      Alcotest.(check bool) "good >= raw" true
        (d.Design.good_die_cost_usd >= d.Design.die_cost_usd);
      Alcotest.(check bool) "latencies positive" true
        (d.Design.ttft_s > 0. && d.Design.tbt_s > 0.);
      Alcotest.(check bool) "reticle flag consistent" true
        (d.Design.within_reticle = (d.Design.area_mm2 <= 860.));
      (* Every oct-2022 design was generated under the TPP threshold, so
         none can require a license under that rule. *)
      Alcotest.(check bool) "2022 compliant" true (Design.compliant Regime.acr_2022 d))
    (Lazy.force eval_few)

let t_cost_products () =
  match Lazy.force eval_few with
  | d :: _ ->
      check_close "ttft x cost"
        (Units.to_ms d.Design.ttft_s *. d.Design.die_cost_usd)
        (Design.ttft_cost_product d);
      check_close "tbt x cost"
        (Units.to_ms d.Design.tbt_s *. d.Design.die_cost_usd)
        (Design.tbt_cost_product d)
  | [] -> Alcotest.fail "no designs"

let t_valid_2400_count () =
  (* Paper Sec. 4.4: 56 of 1536 designs at the 2400 target are valid
     (unregulated and manufacturable); we land within a few designs. *)
  let designs =
    Design.evaluate_sweep ~model:Model.gpt3_175b ~tpp_target:2400. Space.oct2023
  in
  let valid =
    List.filter (fun d -> Design.compliant_2023 d && Design.manufacturable d) designs
  in
  check_between "valid count" 40. 75. (float_of_int (List.length valid))

let t_all_4800_invalid () =
  (* Paper Sec. 4.3: every 4800-target design violates the PD floor. *)
  let designs =
    Design.evaluate_sweep ~model:Model.llama3_8b ~tpp_target:4800. Space.oct2023
  in
  Alcotest.(check bool) "none unregulated" true
    (List.for_all (fun d -> not (Design.compliant_2023 d)) designs)

(* --- Pareto --- *)

let t_pareto_basic () =
  let pts = [ (1., 5.); (2., 2.); (5., 1.); (3., 3.); (6., 6.) ] in
  let front = Pareto.frontier ~fx:fst ~fy:snd pts in
  Alcotest.(check (list (pair (float 0.) (float 0.))))
    "frontier" [ (1., 5.); (2., 2.); (5., 1.) ] front

let t_pareto_duplicates () =
  let pts = [ (1., 1.); (1., 1.) ] in
  (* Equal points do not dominate each other; both stay. *)
  Alcotest.(check int) "both kept" 2
    (List.length (Pareto.frontier ~fx:fst ~fy:snd pts))

let prop_pareto_subset_and_undominated =
  let pair_list = QCheck.(list_of_size Gen.(int_range 1 30) (pair (float_range 0. 10.) (float_range 0. 10.))) in
  qcheck "frontier is an undominated subset" pair_list (fun pts ->
      let front = Pareto.frontier ~fx:fst ~fy:snd pts in
      List.for_all (fun p -> List.mem p pts) front
      && List.for_all (fun p -> not (Pareto.dominated ~fx:fst ~fy:snd p pts)) front)

let prop_pareto_covers =
  let pair_list = QCheck.(list_of_size Gen.(int_range 1 30) (pair (float_range 0. 10.) (float_range 0. 10.))) in
  qcheck "every point is dominated by or equal to a frontier point" pair_list
    (fun pts ->
      let front = Pareto.frontier ~fx:fst ~fy:snd pts in
      List.for_all
        (fun p ->
          List.exists (fun q -> fst q <= fst p && snd q <= snd p) front)
        pts)

(* --- Space.build's device name --- *)

(* [Space.build] formats an integral target without [Printf]; the name
   must stay the one [Printf] gives, for every (positive) target. *)
let prop_device_name =
  let target =
    QCheck.Gen.(
      oneof
        [
          map float_of_int (int_range 1 1_000_000);
          float_range 0.001 10_000.;
          float_range 1e15 1e16;
          map Float.round (float_range 1e15 1e16);
          oneofl [ 0.5; 1.5; 2.5; 2399.5; 1e15 -. 1.; 1e15; 4503599627370496. ];
        ])
  in
  let p =
    { Space.systolic_dim = 16; lanes = 4; l1 = 192.; l2 = 40.; memory_bw = 2.;
      device_bw = 600.; clock_mhz = Space.default_clock_mhz }
  in
  qcheck "device name is Printf's dse-%.0f"
    (QCheck.make ~print:(Printf.sprintf "%h") target)
    (fun tpp_target ->
      (Space.build ~tpp_target p).Device.name
      = Printf.sprintf "dse-%.0f" tpp_target)

(* --- Optimum --- *)

let t_optimum () =
  let ds = Lazy.force eval_few in
  let best = Optimum.best_exn Optimum.Tbt ds in
  Alcotest.(check bool) "minimal" true
    (List.for_all (fun d -> d.Design.tbt_s >= best.Design.tbt_s) ds);
  Alcotest.(check bool) "filters can empty" true
    (Optimum.best ~filters:[ (fun _ -> false) ] Optimum.Ttft ds = None);
  check_close "improvement" (-0.5) (Optimum.improvement_vs ~baseline:2. 1.)

let suite =
  [
    test "sweep sizes match the paper" t_sweep_sizes;
    test "designs stay under the TPP target" t_build_under_target;
    test "paper's 103-core configuration" t_build_paper_config;
    test "design evaluation fields" t_design_fields;
    test "latency-cost products" t_cost_products;
    test "~56 valid 2400-TPP designs" t_valid_2400_count;
    test "all 4800-target designs invalid (oct 2023)" t_all_4800_invalid;
    test "pareto frontier basics" t_pareto_basic;
    test "pareto keeps duplicates" t_pareto_duplicates;
    prop_pareto_subset_and_undominated;
    prop_pareto_covers;
    test "optimum selection" t_optimum;
    prop_device_name;
  ]
