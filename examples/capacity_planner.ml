(* Capacity planner: the buyer's problem.

   A lab in a sanctioned market can only buy compliant hardware. Given a
   serving target for GPT-3-class and Llama-class traffic, compare the
   modeled A100 (restricted), the best October-2022-compliant design, and
   an H20-style October-2023 design on end-to-end latency, throughput, and
   silicon cost per million generated tokens.

   Run with: dune exec examples/capacity_planner.exe *)

open Core

let a100 = Presets.a100

(* The best manufacturable Oct-2022-compliant decoder design, found by the
   same DSE the paper runs (Fig. 6). *)
let best_2022 model =
  let designs =
    Design.evaluate_sweep ~model ~tpp_target:4800. Space.oct2022
  in
  let best =
    Optimum.best_exn
      ~filters:[ Design.compliant Regime.acr_2022; Design.manufacturable ]
      Optimum.Tbt designs
  in
  { best.Design.device with Device.name = "best-oct22-compliant" }

(* An H20-style part: few cores, huge memory bandwidth; unregulated under
   October 2023 because TPP < 2400 and PD is low on a big die. *)
let h20_style =
  Device.make ~name:"H20-style" ~core_count:51 ~lanes_per_core:4
    ~systolic:(Systolic.square 16) ~l1_kb:256. ~l2_mb:60.
    ~memory:(Memory.make ~capacity_gb:96. ~bandwidth_tb_s:4.)
    ~interconnect:(Interconnect.of_total_gb_s 900.)
    ()

let amortized_usd_per_btok dev r =
  (* Silicon-only amortization: good-die cost spread over three years of
     tokens, per tensor-parallel group of [tp] devices. A real TCO model
     would add power, HBM and packaging; silicon is the part this library
     models. *)
  let area = Area_model.total_mm2 dev in
  let die =
    Cost_model.good_die_cost_usd ~process:Cost_model.n7 ~die_area_mm2:area ()
  in
  let group = die *. float_of_int r.Engine.tp in
  let seconds = 3. *. 365. *. 86400. in
  let tokens = Engine.throughput_tokens_per_s r *. seconds in
  group /. tokens *. 1e9

let plan model =
  let devices = [ a100; best_2022 model; h20_style ] in
  let t =
    Table.create
      ~aligns:
        [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right; Table.Left ]
      [ "device"; "TPP"; "e2e latency (s)"; "tokens/s"; "die cost";
        "$ / B tokens (si)"; "Oct 2023 (DC)" ]
  in
  List.iter
    (fun dev ->
      let r = Engine.simulate dev model in
      let area = Area_model.total_mm2 dev in
      let tier =
        Regime.verdict_to_string
          (Regime.verdict Regime.acr_2023 (Regime.of_device dev))
      in
      Table.add_row t
        [
          dev.Device.name;
          Printf.sprintf "%.0f" (Device.tpp dev);
          Printf.sprintf "%.2f" (Engine.end_to_end_s r);
          Printf.sprintf "%.0f" (Engine.throughput_tokens_per_s r);
          Printf.sprintf "$%.0f"
            (Cost_model.good_die_cost_usd ~process:Cost_model.n7
               ~die_area_mm2:area ());
          Printf.sprintf "%.2f" (amortized_usd_per_btok dev r);
          tier;
        ])
    devices;
  Table.print ~title:(Printf.sprintf "Serving plan: %s" model.Model.name) t

(* Cluster planning: which (tp, pp) arrangement actually fits the model on
   each device, and what it delivers. *)
let cluster_plan model =
  Format.printf "cluster plans for %s (up to 64 devices):@." model.Model.name;
  List.iter
    (fun dev ->
      match Cluster.choose_plan ~max_devices:64 dev model with
      | Some r -> Format.printf "  %-22s %a@." dev.Device.name Cluster.pp_result r
      | None -> Format.printf "  %-22s does not fit in 64 devices@." dev.Device.name)
    [ a100; h20_style ];
  print_newline ()

(* Fleet planning: single-request latency says which device is fastest;
   the buyer's actual question is how many of each it takes to serve a
   load, which depends on batching, KV capacity and queueing. Measure a
   small saturated fleet of each candidate with the event-driven cluster
   simulator and size it for the target. *)
let fleet_plan model ~target_qps =
  let trace =
    Trace.synthetic ~rate_per_s:30. ~duration_s:10. ~mean_input:512
      ~mean_output:128 ()
  in
  let t =
    Table.create
      ~aligns:
        [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right ]
      [ "device"; "req/s (2 groups)"; "util"; "p95 TBT (ms)";
        Printf.sprintf "groups @ %.0f req/s" target_qps; "$ / M tokens (si)" ]
  in
  List.iter
    (fun dev ->
      let fleet = Fleet.make [ Fleet.pool ~count:2 dev ] in
      let fs = Fleet.run fleet model trace in
      let groups =
        match Fleet.devices_for_qps fs ~target_qps with
        | [ (_, n) ] -> string_of_int n
        | _ -> "-"
      in
      let cost =
        Fleet.silicon_usd_per_mtok
          ~die_cost_usd:(fun d ->
            Cost_model.good_die_cost_usd ~process:Cost_model.n7
              ~die_area_mm2:(Area_model.total_mm2 d) ())
          fleet fs
      in
      Table.add_row t
        [
          dev.Device.name;
          Printf.sprintf "%.2f" fs.Fleet.requests_per_s;
          (match fs.Fleet.pools with
          | [ ps ] -> Printf.sprintf "%.0f%%" (100. *. ps.Fleet.utilization)
          | _ -> "-");
          Printf.sprintf "%.1f" (1e3 *. fs.Fleet.p95_tbt_s);
          groups;
          (match cost with Some c -> Printf.sprintf "%.2f" c | None -> "n/a");
        ])
    [ a100; best_2022 model; h20_style ];
  Table.print
    ~title:
      (Printf.sprintf "Fleet plan: %s, 512/128-token traffic" model.Model.name)
    t

let () =
  plan Model.gpt3_175b;
  plan Model.llama3_8b;
  fleet_plan Model.llama3_8b ~target_qps:100.;
  cluster_plan Model.gpt3_175b;
  cluster_plan Model.mixtral_8x7b;
  print_endline
    "Decode-heavy serving barely misses the restricted A100: compliant\n\
     designs keep full memory bandwidth, which is exactly the loophole the\n\
     paper's architecture-first policy (capping memory bandwidth) closes."
