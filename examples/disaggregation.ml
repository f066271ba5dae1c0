(* Prefill/decode disaggregation under export rules.

   The paper's DSE shows the two inference phases want different compliant
   hardware: prefill wants every FLOP the TPP cap allows, decoding wants
   memory bandwidth the rules do not regulate. Phase-splitting serving
   systems (Splitwise-style, the paper's ref [59]) can exploit that by
   running each phase on its own machine pool, each built from the design
   with the best latency-cost product for that phase (Fig. 8's metric).

   Each candidate fleet is measured by event-driven simulation (the
   [Fleet] cluster simulator): a small saturated fleet serves a shared
   synthetic trace - the disaggregated one shipping each request's KV
   cache from the prefill pool to the decode pool over the interconnect -
   and the measured per-pool utilization and request rate size the fleet
   for the scenario's target load.

   Run with: dune exec examples/disaggregation.exe *)

open Core

let model = Model.llama3_8b

(* Cost-efficiency optima from the October 2022 DSE. *)
let optima =
  lazy
    (let sweep = Design.evaluate_sweep ~model ~tpp_target:4800. Space.oct2022 in
     let filters =
       [ Design.compliant Regime.acr_2022; Design.manufacturable ]
     in
     ( Optimum.best_exn ~filters Optimum.Ttft_cost sweep,
       Optimum.best_exn ~filters Optimum.Tbt_cost sweep ))

let config = Simulator.default_config

let group_cost device =
  let area = Area_model.total_mm2 device in
  float_of_int config.Simulator.tp
  *. Cost_model.good_die_cost_usd ~process:Cost_model.n7 ~die_area_mm2:area ()

(* Offered load well above what the small measurement fleets can serve:
   saturated pools make the utilization-scaled group counts from
   [Fleet.devices_for_qps] a capacity statement, not an echo of the
   offered rate. *)
let measurement_trace ~prompt ~generation =
  Trace.synthetic ~rate_per_s:30. ~duration_s:10. ~mean_input:prompt
    ~mean_output:generation ()

let scenario name ~prompt ~generation ~request_rate =
  let best_prefill, best_decode = Lazy.force optima in
  let trace = measurement_trace ~prompt ~generation in
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "fleet"; "pool util (sim)"; "groups"; "silicon cost"; "vs A100" ]
  in
  (* The first fleet added is the comparison baseline - captured
     explicitly rather than keyed on a sentinel cost (a zero-cost first
     row used to steal the baseline from the A100 and divide by zero). *)
  let baseline = ref None in
  let vs_baseline cost =
    match !baseline with
    | None ->
        baseline := Some cost;
        Table.fmt_pct 0.
    | Some b when b > 0. -> Table.fmt_pct ((cost -. b) /. b)
    | Some _ -> "n/a"
  in
  let add fleet_name fleet =
    let fs = Fleet.run fleet model trace in
    let plan = Fleet.devices_for_qps fs ~target_qps:request_rate in
    let cost =
      List.fold_left
        (fun acc (pool_name, n) ->
          let p =
            List.find (fun p -> p.Fleet.name = pool_name) fleet.Fleet.pools
          in
          acc +. (float_of_int n *. group_cost p.Fleet.device))
        0. plan
    in
    Table.add_row t
      [
        fleet_name;
        String.concat "/"
          (List.map
             (fun ps -> Printf.sprintf "%.0f%%" (100. *. ps.Fleet.utilization))
             fs.Fleet.pools);
        String.concat "+"
          (List.map (fun (_, n) -> string_of_int n) plan);
        Printf.sprintf "$%.0f" cost;
        vs_baseline cost;
      ]
  in
  add "homogeneous A100 (restricted)"
    (Fleet.make [ Fleet.pool ~config ~count:2 Presets.a100 ]);
  add "homogeneous compliant (decode-optimal)"
    (Fleet.make [ Fleet.pool ~config ~count:2 best_decode.Design.device ]);
  add "disaggregated compliant"
    (Fleet.make
       [
         Fleet.pool ~role:Fleet.Prefill ~config ~count:1
           best_prefill.Design.device;
         Fleet.pool ~role:Fleet.Decode ~config ~count:2
           best_decode.Design.device;
       ]);
  Table.print
    ~title:
      (Printf.sprintf "%s: %.0f req/s, %d-token prompts, %d-token replies"
         name request_rate prompt generation)
    t

let () =
  let best_prefill, best_decode = Lazy.force optima in
  Format.printf "prefill-pool machine (best TTFT x cost): %a@." Design.pp best_prefill;
  Format.printf "decode-pool machine  (best TBT x cost):  %a@.@." Design.pp best_decode;
  scenario "chatty traffic" ~prompt:512 ~generation:256 ~request_rate:200.;
  scenario "prompt-heavy traffic (RAG-style)" ~prompt:6144 ~generation:32
    ~request_rate:200.;
  print_endline
    "Per silicon dollar, the compliant fleets beat the restricted A100\n\
     fleet outright: the rules leave decoding bandwidth free, and the\n\
     cost-optimal compliant designs buy it on smaller dies than the\n\
     flagship's. This is the serving-economics face of the paper's\n\
     warning that TPP-only rules barely constrain inference.\n\
     \n\
     The event-driven fleet simulation also tempers the static\n\
     machine-count argument for disaggregation: continuous batching\n\
     amortizes prefill across whole admission batches, so a unified\n\
     decode-optimal fleet absorbs prompt work almost for free on chatty\n\
     traffic, and on prompt-heavy traffic the batch-1 latency-cost\n\
     optimum that looks best on paper for the prefill pool measures\n\
     poorly at fleet batch sizes. Disaggregation pays only when the\n\
     prefill pool's device is picked for saturated-batch prefill\n\
     throughput per dollar - a different objective than TTFT x cost -\n\
     which is exactly the kind of conclusion that needs a simulator\n\
     rather than a spreadsheet."
