(* Compliance advisor: the vendor's problem from Sec. 2.2 of the paper.

   You have a flagship design that is export-restricted. Which derated
   derivative (fewer cores, capped interconnect, same die) should you ship,
   and what does each compliance strategy cost in LLM-inference
   performance? This mirrors how the A800/H800 (October 2022 rules) and the
   H20/RTX 4090D (October 2023 rules) came to exist. The derating search
   itself is library functionality: see {!Core.Derate}.

   Run with: dune exec examples/compliance_advisor.exe *)

open Core

(* The flagship: an H100-class part, well above every threshold. *)
let flagship =
  Device.make ~name:"flagship" ~core_count:132 ~lanes_per_core:4
    ~systolic:(Systolic.square 16) ~l1_kb:256. ~l2_mb:50.
    ~memory:(Memory.make ~capacity_gb:80. ~bandwidth_tb_s:3.2)
    ~interconnect:(Interconnect.of_total_gb_s 900.)
    ()

let die_area = Area_model.total_mm2 flagship
let model = Model.gpt3_175b

let describe name dev =
  let r = Engine.simulate dev model in
  (* Derated SKUs ship on the flagship's die: PD uses its area.
     [Regime.verdict] defaults to the data-center market. *)
  let subject = Regime.of_spec (Spec.of_device ~area_mm2:die_area dev) in
  let verdict regime =
    Regime.verdict_to_string (Regime.verdict regime subject)
  in
  (name, dev, r, verdict Regime.acr_2022, verdict Regime.acr_2023)

let () =
  let base = Engine.simulate flagship model in
  let oct2022_escapes =
    List.map
      (fun (strategy, dev) ->
        describe ("Oct 2022 escape: " ^ Derate.strategy_to_string strategy) dev)
      (Derate.compliant_2022 flagship)
  in
  let oct2023_escape =
    match Derate.best_2023_core_cut ~die_area_mm2:die_area flagship with
    | Some dev ->
        [ describe
            (Printf.sprintf "Oct 2023 escape: cut to %d cores (H20-style)"
               dev.Device.core_count)
            dev ]
    | None -> []
  in
  let variants =
    describe "flagship (restricted)" flagship
    :: (oct2022_escapes @ oct2023_escape)
  in
  let t =
    Table.create
      ~aligns:
        [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Left; Table.Left ]
      [ "variant"; "TPP"; "dev BW"; "TTFT vs flagship"; "TBT vs flagship";
        "Oct 2022"; "Oct 2023 (DC)" ]
  in
  List.iter
    (fun (name, dev, r, c2022, c2023) ->
      Table.add_row t
        [
          name;
          Printf.sprintf "%.0f" (Device.tpp dev);
          Printf.sprintf "%.0f" (Device.device_bandwidth_gb_s dev);
          Table.fmt_pct ((r.Engine.ttft_s -. base.Engine.ttft_s) /. base.Engine.ttft_s);
          Table.fmt_pct ((r.Engine.tbt_s -. base.Engine.tbt_s) /. base.Engine.tbt_s);
          c2022;
          c2023;
        ])
    variants;
  Table.print ~title:"Compliance strategies for a flagship accelerator (GPT-3 175B)" t;
  print_endline
    "Note how the October 2022 escape (capping interconnect) is nearly free\n\
     for LLM inference, while October 2023 compliance forces deep core cuts:\n\
     exactly the asymmetry the paper quantifies."
