(* Reproduction scorecard: every quantitative claim tracked against the
   paper, evaluated programmatically. This is the executable counterpart
   of EXPERIMENTS.md - run it after touching the model to see exactly
   which claims moved. *)

open Core
open Common

type claim = {
  id : string;
  description : string;
  paper : float;
  lo : float;  (** acceptance band for the measured value *)
  hi : float;
  measure : unit -> float;
}

let pct_change b v = 100. *. (v -. b) /. b

let with_membw dev tb =
  { dev with Device.memory = Memory.with_bandwidth dev.Device.memory ~bandwidth_tb_s:tb }

let claims () =
  let a100 = Presets.a100 in
  let base_g = baseline Model.gpt3_175b in
  let base_l = baseline Model.llama3_8b in
  (* Sweeps by registry scenario name; [model_tag] picks the family. *)
  let best22 model obj =
    Optimum.best_exn
      ~filters:[ Design.compliant Regime.acr_2022; Design.manufacturable ]
      obj
      (designs_of (Printf.sprintf "fig6-%s" (model_tag model)))
  in
  let best23 model tpp obj =
    Optimum.best_exn
      ~filters:[ (fun d -> Design.compliant_2023 d && Design.manufacturable d) ]
      obj
      (designs_of (Printf.sprintf "fig7-%s-%.0f" (model_tag model) tpp))
  in
  let fig12_group model metric_of baseline_v label =
    let designs =
      List.filter Design.manufacturable
        (designs_of (Printf.sprintf "fig12-%s" (model_tag model)))
    in
    let reports =
      Grouping.analyze ~baseline:baseline_v ~metric:metric_of ~designs
        [ (if label = "l1" then Grouping.l1_fixed_kb 32.
           else Grouping.memory_bw_fixed_tb_s 0.8) ]
    in
    List.nth reports 1
  in
  [
    {
      id = "A100-ttft";
      description = "modeled A100 GPT-3 TTFT (ms/layer)";
      paper = 283.;
      lo = 265.;
      hi = 305.;
      measure = (fun () -> ms base_g.Engine.ttft_s);
    };
    {
      id = "A100-tbt";
      description = "modeled A100 GPT-3 TBT (ms/layer)";
      paper = 1.43;
      lo = 1.35;
      hi = 1.55;
      measure = (fun () -> ms base_g.Engine.tbt_s);
    };
    {
      id = "fig5-tpp";
      description = "TTFT change, TPP 4000->5000 (%)";
      paper = -16.2;
      lo = -22.;
      hi = -12.;
      measure =
        (fun () ->
          let dev tpp =
            let cores =
              Device.cores_for_tpp ~tpp ~lanes_per_core:4
                ~systolic:(Systolic.square 16) ()
            in
            { a100 with Device.core_count = cores }
          in
          pct_change
            (Engine.simulate (dev 4000.) Model.gpt3_175b).Engine.ttft_s
            (Engine.simulate (dev 5000.) Model.gpt3_175b).Engine.ttft_s
          |> fun delta -> delta);
    };
    {
      id = "fig5-devbw";
      description = "TBT change, device BW 600->1000 GB/s (%)";
      paper = -0.27;
      lo = -1.5;
      hi = 0.;
      measure =
        (fun () ->
          let capped = Presets.capped_tpp_4759 in
          let wide =
            { capped with Device.interconnect = Interconnect.of_total_gb_s 1000. }
          in
          pct_change
            (Engine.simulate capped Model.gpt3_175b).Engine.tbt_s
            (Engine.simulate wide Model.gpt3_175b).Engine.tbt_s);
    };
    {
      id = "fig6-gpt3-tbt";
      description = "Oct22 best TBT vs A100, GPT-3 (%)";
      paper = -27.;
      lo = -33.;
      hi = -22.;
      measure =
        (fun () ->
          pct_change base_g.Engine.tbt_s
            (best22 Model.gpt3_175b Optimum.Tbt).Design.tbt_s);
    };
    {
      id = "fig6-llama-tbt";
      description = "Oct22 best TBT vs A100, Llama 3 (%)";
      paper = -14.2;
      lo = -20.;
      hi = -10.;
      measure =
        (fun () ->
          pct_change base_l.Engine.tbt_s
            (best22 Model.llama3_8b Optimum.Tbt).Design.tbt_s);
    };
    {
      id = "fig7-4800-invalid";
      description = "valid 4800-TPP designs under Oct 2023 (count)";
      paper = 0.;
      lo = 0.;
      hi = 0.;
      measure =
        (fun () ->
          float_of_int
            (List.length
               (List.filter
                  (fun d -> Design.compliant_2023 d && Design.manufacturable d)
                  (designs_of "fig7-gpt3-4800"))));
    };
    {
      id = "fig7-2400-ttft";
      description = "Oct23 fastest TTFT @2400 vs A100, GPT-3 (%)";
      paper = 78.8;
      lo = 55.;
      hi = 95.;
      measure =
        (fun () ->
          pct_change base_g.Engine.ttft_s
            (best23 Model.gpt3_175b 2400. Optimum.Ttft).Design.ttft_s);
    };
    {
      id = "table4-valid";
      description = "valid 2400-TPP designs (count, paper 56)";
      paper = 56.;
      lo = 40.;
      hi = 75.;
      measure =
        (fun () ->
          float_of_int
            (List.length
               (List.filter
                  (fun d -> Design.compliant_2023 d && Design.manufacturable d)
                  (designs_of "fig7-gpt3-2400"))));
    };
    {
      id = "table4-diecost";
      description = "die cost at 753 mm2 ($)";
      paper = 134.;
      lo = 130.;
      hi = 140.;
      measure =
        (fun () -> Cost_model.die_cost_usd ~process:Cost_model.n7 ~die_area_mm2:753.);
    };
    {
      id = "table4-area-pd";
      description = "modeled area of the Table-4 compliant config (mm2)";
      paper = 753.;
      lo = 735.;
      hi = 775.;
      measure =
        (fun () ->
          let dev =
            Device.make ~core_count:103 ~lanes_per_core:2
              ~systolic:(Systolic.square 16) ~l1_kb:1024. ~l2_mb:48.
              ~memory:(Memory.make ~capacity_gb:80. ~bandwidth_tb_s:3.2)
              ~interconnect:(Interconnect.of_total_gb_s 900.)
              ()
          in
          Area_model.total_mm2 dev);
    };
    {
      id = "table4-area-npd";
      description = "modeled area of the Table-4 non-compliant config (mm2)";
      paper = 523.;
      lo = 510.;
      hi = 540.;
      measure =
        (fun () ->
          let dev =
            Device.make ~core_count:103 ~lanes_per_core:2
              ~systolic:(Systolic.square 16) ~l1_kb:192. ~l2_mb:32.
              ~memory:(Memory.make ~capacity_gb:80. ~bandwidth_tb_s:3.2)
              ~interconnect:(Interconnect.of_total_gb_s 900.)
              ()
          in
          Area_model.total_mm2 dev);
    };
    {
      id = "fig9-false-dc";
      description = "marketing-based false data center (count)";
      paper = 4.;
      lo = 4.;
      hi = 4.;
      measure =
        (fun () ->
          float_of_int
            (List.length (Marketing.analyze Database.survey).Marketing.false_dc));
    };
    {
      id = "fig9-false-ndc";
      description = "marketing-based false non-data center (count)";
      paper = 7.;
      lo = 7.;
      hi = 7.;
      measure =
        (fun () ->
          float_of_int
            (List.length (Marketing.analyze Database.survey).Marketing.false_ndc));
    };
    {
      id = "fig10-false";
      description = "architecture-based false DC + false non-DC (count)";
      paper = 2.;
      lo = 2.;
      hi = 2.;
      measure =
        (fun () ->
          let a = Arch_classifier.analyze Database.survey in
          float_of_int
            (List.length a.Arch_classifier.false_dc
            + List.length a.Arch_classifier.false_ndc));
    };
    {
      id = "fig12-l1-median";
      description = "32KB-L1 median TTFT vs A100, GPT-3 (%)";
      paper = 58.7;
      lo = 40.;
      hi = 80.;
      measure =
        (fun () ->
          let r =
            fig12_group Model.gpt3_175b
              (fun d -> d.Design.ttft_s)
              base_g.Engine.ttft_s "l1"
          in
          100. *. Option.get r.Grouping.median_change_vs_baseline);
    };
    {
      id = "fig12-bw-median";
      description = "0.8TB/s median TBT vs A100, GPT-3 (%)";
      paper = 110.;
      lo = 90.;
      hi = 135.;
      measure =
        (fun () ->
          let r =
            fig12_group Model.gpt3_175b
              (fun d -> d.Design.tbt_s)
              base_g.Engine.tbt_s "bw"
          in
          100. *. Option.get r.Grouping.median_change_vs_baseline);
    };
    {
      id = "membw-sens";
      description = "A100 TBT change at 3.2 TB/s, GPT-3 (%)";
      paper = -27.;
      lo = -34.;
      hi = -20.;
      measure =
        (fun () ->
          pct_change base_g.Engine.tbt_s
            (Engine.simulate (with_membw a100 3.2) Model.gpt3_175b).Engine.tbt_s);
    };
  ]

let run () =
  section "Reproduction scorecard: paper vs measured";
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Left; Table.Right; Table.Right; Table.Left ]
      [ "claim"; "description"; "paper"; "measured"; "verdict" ]
  in
  let rows = ref [] in
  let passes = ref 0 in
  let all = claims () in
  List.iter
    (fun c ->
      let v = c.measure () in
      let pass = v >= c.lo && v <= c.hi in
      if pass then incr passes;
      let cells =
        [
          c.id;
          c.description;
          Printf.sprintf "%.4g" c.paper;
          Printf.sprintf "%.4g" v;
          (if pass then "PASS" else "OUT OF BAND");
        ]
      in
      Table.add_row t cells;
      rows := cells :: !rows)
    all;
  Table.print t;
  note "%d/%d tracked claims within their acceptance bands." !passes
    (List.length all);
  csv "scorecard.csv"
    [ "claim"; "description"; "paper"; "measured"; "verdict" ]
    (List.rev !rows)
