(* Quickstart: build a custom accelerator, simulate LLM inference on it,
   and check it against every export-control rule the library models.

   Run with: dune exec examples/quickstart.exe *)

open Core

let () =
  (* 1. Describe a hypothetical accelerator with the LLMCompass-style
     template: cores x lanes x systolic arrays plus a memory system. *)
  let device =
    Device.make ~name:"example-accelerator" ~core_count:96 ~lanes_per_core:4
      ~systolic:(Systolic.square 16) ~l1_kb:256. ~l2_mb:48.
      ~memory:(Memory.make ~capacity_gb:80. ~bandwidth_tb_s:2.4)
      ~interconnect:(Interconnect.of_total_gb_s 500.)
      ()
  in
  Format.printf "device: %a@." Device.pp device;

  (* 2. Physical characteristics: modeled die area and manufacturing cost. *)
  let area = Area_model.total_mm2 device in
  Format.printf "modeled die area: %.0f mm^2 (%a)@." area Area_model.pp_breakdown
    (Area_model.breakdown device);
  Format.printf "7nm die cost: $%.0f, good-die cost: $%.0f (yield %.0f%%)@."
    (Cost_model.die_cost_usd ~process:Cost_model.n7 ~die_area_mm2:area)
    (Cost_model.good_die_cost_usd ~process:Cost_model.n7 ~die_area_mm2:area ())
    (100. *. Cost_model.yield_ ~process:Cost_model.n7 ~die_area_mm2:area ());

  (* 3. Simulate one Transformer layer of GPT-3 175B and Llama 3 8B at the
     paper's setting (batch 32, input 2048, output 1024, 4-way tensor
     parallel). *)
  List.iter
    (fun model ->
      let r = Engine.simulate device model in
      Format.printf "%a@." Engine.pp_result r;
      Format.printf "  whole model: TTFT %a, e2e %a, %.0f tokens/s@."
        Units.pp_time (Engine.model_ttft_s r) Units.pp_time (Engine.end_to_end_s r)
        (Engine.throughput_tokens_per_s r))
    [ Model.gpt3_175b; Model.llama3_8b ];

  (* 4. Where does the time go? The per-operator bottleneck report shows
     the paper's central asymmetry: prefill compute bound, decode
     bandwidth bound. *)
  List.iter
    (fun phase ->
      Format.printf "%a@."
        Report.pp_phase_report
        (Report.phase_report device Model.gpt3_175b phase))
    [ Layer.Prefill; Layer.Decode ];

  (* 5. Classify the design under the Advanced Computing Rules. *)
  let spec = Spec.of_device ~area_mm2:area device in
  let verdict ?market regime =
    Regime.verdict_to_string
      (Regime.verdict ?market regime (Regime.of_spec spec))
  in
  Format.printf "spec: %a@." Spec.pp spec;
  Format.printf "October 2022 rule: %s@." (verdict Regime.acr_2022);
  List.iter
    (fun market ->
      Format.printf "October 2023 rule (%s): %s@."
        (Regime.market_to_string market)
        (verdict ~market Regime.acr_2023))
    [ Regime.Data_center; Regime.Non_data_center ];

  (* 6. How much die area would make this TPP fully unregulated? *)
  (match Regime.area_floor Regime.acr_2023 ~tpp:(Device.tpp device) with
  | Some floor_ when floor_ > area ->
      Format.printf
        "to be unregulated as a data-center part, the die must grow to %.0f \
         mm^2 (+%.0f%%)@."
        floor_
        (100. *. (floor_ -. area) /. area)
  | Some _ -> Format.printf "already below every PD threshold@."
  | None -> Format.printf "no die area can make this TPP unregulated@.")
