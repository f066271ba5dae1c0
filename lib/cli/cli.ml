(* Command-line front end: classify devices, simulate designs, run DSEs and
   inspect the device survey without writing any OCaml. *)

open Cmdliner
open Core

(* --- shared argument converters --- *)

let model_conv =
  let parse s =
    match Model.find_preset s with
    | Some m -> Ok m
    | None ->
        let known = String.concat ", " (List.map (fun m -> m.Model.name) Model.presets) in
        Error (`Msg (Printf.sprintf "unknown model %S (known: %s)" s known))
  in
  Arg.conv (parse, fun ppf m -> Format.pp_print_string ppf m.Model.name)

let model_arg =
  Arg.(
    value
    & opt model_conv Model.gpt3_175b
    & info [ "model" ] ~docv:"MODEL" ~doc:"LLM preset, e.g. 'GPT-3 175B' or 'Llama 3 8B'.")

let gpu_conv =
  let parse s =
    match Database.find s with
    | Some g -> Ok g
    | None -> Error (`Msg (Printf.sprintf "unknown device %S (see `acs survey`)" s))
  in
  Arg.conv (parse, fun ppf g -> Format.pp_print_string ppf g.Gpu.name)

let device_args =
  let like =
    Arg.(value & opt (some gpu_conv) None
         & info [ "like" ]
             ~doc:"Approximate a real product from the database (e.g. 'H20') \
                   instead of specifying template parameters.")
  in
  let cores = Arg.(value & opt int 108 & info [ "cores" ] ~doc:"Core count.") in
  let lanes = Arg.(value & opt int 4 & info [ "lanes" ] ~doc:"Lanes per core.") in
  let dim = Arg.(value & opt int 16 & info [ "systolic" ] ~doc:"Systolic array dimension (square).") in
  let l1 = Arg.(value & opt float 192. & info [ "l1" ] ~doc:"L1 per core, KB.") in
  let l2 = Arg.(value & opt float 40. & info [ "l2" ] ~doc:"Shared L2, MB.") in
  let membw = Arg.(value & opt float 2. & info [ "membw" ] ~doc:"HBM bandwidth, TB/s.") in
  let memgb = Arg.(value & opt float 80. & info [ "memgb" ] ~doc:"HBM capacity, GB.") in
  let devbw = Arg.(value & opt float 600. & info [ "devbw" ] ~doc:"Device interconnect, GB/s.") in
  let build like cores lanes dim l1 l2 membw memgb devbw =
    match like with
    | Some gpu -> Gpu.to_template gpu
    | None ->
        Device.make ~name:"cli-device" ~core_count:cores ~lanes_per_core:lanes
          ~systolic:(Systolic.square dim) ~l1_kb:l1 ~l2_mb:l2
          ~memory:(Memory.make ~capacity_gb:memgb ~bandwidth_tb_s:membw)
          ~interconnect:(Interconnect.of_total_gb_s devbw)
          ()
  in
  Term.(const build $ like $ cores $ lanes $ dim $ l1 $ l2 $ membw $ memgb $ devbw)

(* --- classify --- *)

let classify_spec spec =
  Format.printf "spec: %a@." Spec.pp spec;
  Format.printf "October 2022: %s@."
    (Acr_2022.classification_to_string (Acr_2022.classify spec));
  List.iter
    (fun market ->
      Format.printf "October 2023 (%s): %s@."
        (Acr_2023.market_to_string market)
        (Acr_2023.tier_to_string (Acr_2023.classify market spec)))
    [ Acr_2023.Data_center; Acr_2023.Non_data_center ];
  (match Acr_2023.min_area_unregulated ~tpp:spec.Spec.tpp with
  | Some floor_ when floor_ > spec.Spec.die_area_mm2 ->
      Format.printf "area floor to be unregulated (DC): %.0f mm^2@." floor_
  | Some _ | None -> ());
  Format.printf "timeline (as a data-center part):@.";
  List.iter
    (fun (regime, ruling) ->
      Format.printf "  %-18s %s@."
        (Timeline.regime_to_string regime)
        (Timeline.ruling_to_string ruling))
    (Timeline.history ~market:Acr_2023.Data_center spec)

let classify_cmd =
  let device_name =
    Arg.(value & opt (some string) None & info [ "device" ] ~doc:"Classify a real device from the database by name, e.g. 'H100'.")
  in
  let tpp = Arg.(value & opt (some float) None & info [ "tpp" ] ~doc:"TPP of a hypothetical device.") in
  let bw = Arg.(value & opt float 600. & info [ "bw" ] ~doc:"Device bandwidth, GB/s.") in
  let area = Arg.(value & opt float 800. & info [ "area" ] ~doc:"Die area, mm^2.") in
  let run device_name tpp bw area =
    match (device_name, tpp) with
    | Some n, _ -> begin
        match Database.find n with
        | Some g ->
            Format.printf "%a@." Gpu.pp g;
            classify_spec (Gpu.spec g);
            `Ok ()
        | None -> `Error (false, Printf.sprintf "unknown device %S" n)
      end
    | None, Some tpp ->
        classify_spec (Spec.make ~tpp ~device_bw_gb_s:bw ~die_area_mm2:area ());
        `Ok ()
    | None, None -> `Error (true, "pass either --device or --tpp")
  in
  Cmd.v (Cmd.info "classify" ~doc:"Classify a device under the Advanced Computing Rules.")
    Term.(ret (const run $ device_name $ tpp $ bw $ area))

(* --- simulate --- *)

let simulate_cmd =
  let tp = Arg.(value & opt int 4 & info [ "tp" ] ~doc:"Tensor-parallel devices.") in
  let batch = Arg.(value & opt int 32 & info [ "batch" ] ~doc:"Batch size.") in
  let input = Arg.(value & opt int 2048 & info [ "input" ] ~doc:"Input sequence length.") in
  let output = Arg.(value & opt int 1024 & info [ "output" ] ~doc:"Output sequence length.") in
  let report = Arg.(value & flag & info [ "report" ] ~doc:"Print per-operator bottleneck reports.") in
  let run device model tp batch input output report =
    let request = Request.make ~batch ~input_len:input ~output_len:output in
    let r = Engine.simulate ~tp ~request device model in
    if report then
      List.iter
        (fun phase ->
          Format.printf "%a@."
            Report.pp_phase_report
            (Report.phase_report ~tp ~request device model phase))
        [ Layer.Prefill; Layer.Decode ];
    Format.printf "%a@." Device.pp device;
    Format.printf "%a@." Engine.pp_result r;
    Format.printf "whole model: TTFT %a, TBT %a, e2e %a, %.0f tokens/s@."
      Units.pp_time (Engine.model_ttft_s r) Units.pp_time (Engine.model_tbt_s r)
      Units.pp_time (Engine.end_to_end_s r)
      (Engine.throughput_tokens_per_s r);
    let area = Area_model.total_mm2 device in
    Format.printf "area %.0f mm^2, die cost $%.0f, good-die cost $%.0f@." area
      (Cost_model.die_cost_usd ~process:Cost_model.n7 ~die_area_mm2:area)
      (Cost_model.good_die_cost_usd ~process:Cost_model.n7 ~die_area_mm2:area ());
    classify_spec (Spec.of_device ~area_mm2:area device)
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Simulate LLM inference on a template device.")
    Term.(const run $ device_args $ model_arg $ tp $ batch $ input $ output
          $ report)

(* --- dse --- *)

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs" ] ~docv:"N"
        ~doc:"Worker domains for the sweep (overrides \\$(b,ACS_JOBS)).")

let with_jobs_opt jobs f =
  match jobs with
  | Some n when n >= 1 -> Parallel.with_jobs n f
  | Some n -> invalid_arg (Printf.sprintf "--jobs %d: must be >= 1" n)
  | None -> f ()

(* --- observability helpers --- *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Enable span tracing and write a Chrome-trace JSON to \\$(docv) \
              (load it in chrome://tracing or https://ui.perfetto.dev).")

(* End-of-run throughput summary for the sweep verbs (`acs dse`, `acs
   run`): wall-clock points/s plus cache effectiveness, both read from
   the metrics registry the evaluation engine already feeds (the same
   counters `acs profile` summarizes). *)
let wall_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let eval_counters () =
  let v name = Metrics.counter_value (Metrics.counter name) in
  ( v "dse_cache_lookups_total",
    v "dse_cache_hits_total",
    v "dse_evaluations_total" )

let summarized_run f =
  let l0, h0, e0 = eval_counters () in
  let t0 = wall_s () in
  let designs = f () in
  let dt = wall_s () -. t0 in
  let l1, h1, e1 = eval_counters () in
  let lookups = l1 - l0 and hits = h1 - h0 and evals = e1 - e0 in
  let points = List.length designs in
  Format.printf "evaluated %d designs in %.2f s%s: %d simulated%s@." points dt
    (if dt > 0. then
       Printf.sprintf " (%.0f points/s)" (float_of_int points /. dt)
     else "")
    evals
    (if lookups > 0 then
       Printf.sprintf ", cache %d/%d hits (%.0f%%)" hits lookups
         (100. *. float_of_int hits /. float_of_int lookups)
     else "");
  designs

let eval_cache_note () =
  let s = Eval.stats () in
  if s.Eval.lookups > 0 then
    Format.printf "eval cache: %d/%d hits (%.0f%%), %d evaluations@."
      s.Eval.hits s.Eval.lookups
      (100. *. float_of_int s.Eval.hits /. float_of_int s.Eval.lookups)
      s.Eval.evaluations

let metrics_summary () =
  eval_cache_note ();
  Table.print ~title:"metrics" (Metrics.summary_table ())

let write_trace path =
  Tracing.write path;
  Format.printf "wrote trace %s (%d spans%s)@." path
    (List.length (Tracing.spans ()))
    (let d = Tracing.dropped () in
     if d = 0 then "" else Printf.sprintf ", %d overwritten" d)

(* [--trace FILE]: run the body with tracing on, dump the Chrome trace and
   finish with the metrics summary table. Without the flag the body runs
   untouched (tracing stays branch-only-disabled). *)
let with_trace_opt trace f =
  match trace with
  | None -> f ()
  | Some path ->
      let result = Tracing.with_tracing true f in
      write_trace path;
      metrics_summary ();
      result

let scenario_of_target target =
  if Sys.file_exists target && not (Sys.is_directory target) then
    try Ok (Scenario.of_json (Json.of_file target))
    with Json.Error msg -> Error (Printf.sprintf "%s: %s" target msg)
  else
    match Scenario.find target with
    | Some s -> Ok s
    | None ->
        Error
          (Printf.sprintf
             "%S is neither a manifest file nor a registry scenario (run \
              `acs scenarios` for the list)"
             target)

let dse_cmd =
  let rule =
    Arg.(value & opt (enum [ ("oct2022", `Oct2022); ("oct2023", `Oct2023); ("restricted", `Restricted) ]) `Oct2022
         & info [ "space" ] ~doc:"Sweep: oct2022, oct2023 or restricted.")
  in
  let target = Arg.(value & opt float 4800. & info [ "tpp-target" ] ~doc:"TPP target.") in
  let top = Arg.(value & opt int 5 & info [ "top" ] ~doc:"How many designs to print.") in
  let objective =
    Arg.(value & opt (enum [ ("ttft", Optimum.Ttft); ("tbt", Optimum.Tbt);
                             ("ttft-cost", Optimum.Ttft_cost); ("tbt-cost", Optimum.Tbt_cost) ])
           Optimum.Tbt
         & info [ "objective" ] ~doc:"ttft, tbt, ttft-cost or tbt-cost.")
  in
  let run space model target top objective jobs trace =
    with_trace_opt trace @@ fun () ->
    let sweep =
      match space with
      | `Oct2022 -> Space.oct2022
      | `Oct2023 -> Space.oct2023
      | `Restricted -> Space.restricted
    in
    let designs =
      summarized_run (fun () ->
          with_jobs_opt jobs (fun () ->
              Eval.sweep ~model ~tpp_target:target sweep))
    in
    let compliant =
      match space with
      | `Oct2022 | `Restricted -> Design.compliant_2022
      | `Oct2023 -> Design.compliant_2023
    in
    let ok =
      List.filter (fun d -> compliant d && Design.manufacturable d) designs
    in
    Format.printf "%d designs, %d compliant and manufacturable@."
      (List.length designs) (List.length ok);
    let sorted =
      List.sort
        (fun a b -> compare (Optimum.objective_value objective a) (Optimum.objective_value objective b))
        ok
    in
    List.iteri
      (fun i d -> if i < top then Format.printf "%2d. %a@." (i + 1) Design.pp d)
      sorted;
    let base = Engine.simulate Presets.a100 model in
    match sorted with
    | best :: _ ->
        Format.printf "best vs modeled A100: TTFT %+.1f%%, TBT %+.1f%%@."
          (100. *. (best.Design.ttft_s -. base.Engine.ttft_s) /. base.Engine.ttft_s)
          (100. *. (best.Design.tbt_s -. base.Engine.tbt_s) /. base.Engine.tbt_s)
    | [] -> Format.printf "no compliant designs@."
  in
  Cmd.v (Cmd.info "dse" ~doc:"Run a design space exploration and print the best compliant designs.")
    Term.(const run $ rule $ model_arg $ target $ top $ objective $ jobs_arg
          $ trace_arg)

(* --- scenarios --- *)

let scenarios_cmd =
  let dump =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump" ] ~docv:"NAME"
          ~doc:"Print the JSON manifest of one registry scenario (a starting \
                point for custom manifests) instead of the listing.")
  in
  let run dump =
    match dump with
    | Some name -> begin
        match Scenario.find name with
        | Some s ->
            print_endline (Json.to_string ~indent:2 (Scenario.to_json s));
            `Ok ()
        | None ->
            `Error (false, Printf.sprintf "unknown scenario %S (run `acs scenarios` for the list)" name)
      end
    | None ->
        let t =
          Table.create
            ~aligns:[ Table.Left; Table.Left; Table.Right; Table.Right; Table.Left ]
            [ "name"; "model"; "designs"; "TPP target"; "regime" ]
        in
        List.iter
          (fun s ->
            Table.add_row t
              [
                s.Scenario.name;
                s.Scenario.model.Model.name;
                string_of_int (Scenario.size s);
                Printf.sprintf "%.0f" s.Scenario.tpp_target;
                Scenario.regime_token s.Scenario.regime;
              ])
          Scenario.registry;
        Table.print t;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "scenarios"
       ~doc:"List the registry of canonical experiment scenarios.")
    Term.(ret (const run $ dump))

(* --- run --- *)

let run_cmd =
  let target =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SCENARIO"
          ~doc:"A JSON manifest file, or the name of a registry scenario \
                (see `acs scenarios`).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Write \\$(docv)/<name>.csv with one row per evaluated design \
                (the same columns the bench emits).")
  in
  let exec scenario jobs out trace =
    with_jobs_opt jobs @@ fun () ->
    with_trace_opt trace @@ fun () ->
    Format.printf "%a@." Scenario.pp scenario;
    Format.printf "domain pool: %d job%s@." (Parallel.jobs ())
      (if Parallel.jobs () = 1 then "" else "s");
    let designs = summarized_run (fun () -> Eval.run scenario) in
    let ok =
      List.filter
        (fun d -> Scenario.compliant scenario d && Design.manufacturable d)
        designs
    in
    Format.printf "%d designs, %d compliant (%s) and manufacturable@."
      (List.length designs) (List.length ok)
      (Scenario.regime_token scenario.Scenario.regime);
    let base = Engine.simulate Presets.a100 scenario.Scenario.model in
    List.iter
      (fun (label, objective, metric, baseline) ->
        match Optimum.best objective ok with
        | Some d ->
            Format.printf "best %s: %a (%+.1f%% vs modeled A100)@." label
              Design.pp d
              (100. *. (metric d -. baseline) /. baseline)
        | None -> ())
      [
        ("TTFT", Optimum.Ttft, (fun d -> d.Design.ttft_s), base.Engine.ttft_s);
        ("TBT", Optimum.Tbt, (fun d -> d.Design.tbt_s), base.Engine.tbt_s);
      ];
    (match out with
    | None -> ()
    | Some dir ->
        let name =
          if scenario.Scenario.name = "" then "scenario" else scenario.Scenario.name
        in
        let path = Filename.concat dir (name ^ ".csv") in
        Csv.write ~path ~header:Design.csv_header (List.map Design.csv_row designs);
        Format.printf "wrote %s (%d rows)@." path (List.length designs))
  in
  let run target jobs out trace =
    match scenario_of_target target with
    | Error msg -> `Error (false, msg)
    | Ok s -> (
        try
          exec s jobs out trace;
          `Ok ()
        with Invalid_argument msg -> `Error (false, msg))
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Evaluate a scenario manifest (file or registry name) and dump \
             its designs.")
    Term.(ret (const run $ target $ jobs_arg $ out $ trace_arg))

(* --- search --- *)

let objective_token = function
  | Optimum.Ttft -> "ttft"
  | Optimum.Tbt -> "tbt"
  | Optimum.Ttft_cost -> "ttft-cost"
  | Optimum.Tbt_cost -> "tbt-cost"

let search_cmd =
  let target =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SCENARIO"
          ~doc:"A JSON manifest file, or the name of a registry scenario \
                with a sweep target (see `acs scenarios`; 'search-widened' \
                is the ~1e9-point lattice this verb exists for).")
  in
  let strategy =
    Arg.(
      value
      & opt (enum Adaptive.strategies) Adaptive.Halving
      & info [ "strategy" ]
          ~doc:"Search strategy: halving, pareto, descent or zoom.")
  in
  let budget =
    Arg.(
      value & opt int 1024
      & info [ "budget" ]
          ~doc:"Engine-evaluation budget (hard ceiling, never exceeded). A \
                budget covering the whole sweep degenerates to exhaustive \
                enumeration.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Search RNG seed.")
  in
  let objective =
    Arg.(value & opt (enum [ ("ttft", Optimum.Ttft); ("tbt", Optimum.Tbt);
                             ("ttft-cost", Optimum.Ttft_cost); ("tbt-cost", Optimum.Tbt_cost) ])
           Optimum.Tbt
         & info [ "objective" ] ~doc:"ttft, tbt, ttft-cost or tbt-cost.")
  in
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:(Printf.sprintf
                  "Persistent on-disk eval cache: evaluations are written \
                   through and later runs (any process) resume from them. \
                   The conventional location is %S."
                  Disk_cache.default_dir))
  in
  let report =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:"Write a key,value CSV of the outcome (deterministic for a \
                fixed scenario/strategy/budget/seed: cache state and \
                --jobs do not change a byte of it).")
  in
  let refine_serving =
    Arg.(
      value & flag
      & info [ "refine-serving" ]
          ~doc:"Add a final fidelity level: re-rank the top evaluated \
                designs by p95 latency under a short synthetic \
                continuous-batching serving trace.")
  in
  let exec scenario strategy budget seed objective cache_dir report
      refine_serving jobs trace =
    with_trace_opt trace @@ fun () ->
    Format.printf "%a@." Scenario.pp scenario;
    Format.printf "strategy %s, objective %s, budget %d, seed %d@."
      (Adaptive.strategy_to_string strategy)
      (objective_token objective) budget seed;
    let refine =
      if not refine_serving then None
      else begin
        let model = scenario.Scenario.model in
        let config =
          {
            Simulator.default_config with
            Simulator.tp =
              Option.value scenario.Scenario.tp
                ~default:Simulator.default_config.Simulator.tp;
          }
        in
        let trace =
          Trace.synthetic ~seed ~rate_per_s:2. ~duration_s:20.
            ~mean_input:256 ~mean_output:64 ()
        in
        Some
          (fun (d : Design.t) ->
            match Simulator.run ~config d.Design.device model trace with
            | stats -> begin
                match objective with
                | Optimum.Ttft | Optimum.Ttft_cost -> stats.Simulator.p95_ttft_s
                | Optimum.Tbt | Optimum.Tbt_cost -> stats.Simulator.p95_tbt_s
              end
            | exception Simulator.Infeasible _ -> infinity)
      end
    in
    let t0 = wall_s () in
    let o =
      with_jobs_opt jobs (fun () ->
          Adaptive.search ~budget ~seed ~objective ?refine ?cache_dir
            ~strategy scenario)
    in
    Format.printf "search finished in %.2f s@." (wall_s () -. t0);
    Format.printf
      "implicit space: %.4g designs; evaluated %d (%.2g%%), %d bound \
       probes, %.4g never simulated@."
      o.Adaptive.implicit o.Adaptive.evaluated
      (100. *. float_of_int o.Adaptive.evaluated /. o.Adaptive.implicit)
      o.Adaptive.bounded o.Adaptive.pruned;
    let t =
      Table.create
        ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
        [ "fidelity"; "candidates"; "evaluated"; "promoted"; "pruned" ]
    in
    List.iter
      (fun r ->
        Table.add_row t
          [
            r.Adaptive.fidelity;
            string_of_int r.Adaptive.candidates;
            string_of_int r.Adaptive.evaluated;
            string_of_int r.Adaptive.promoted;
            string_of_int r.Adaptive.pruned;
          ])
      o.Adaptive.rungs;
    Table.print t;
    let pv = o.Adaptive.provenance in
    Format.printf "eval provenance: %d memory, %d disk, %d cold@."
      pv.Adaptive.memory pv.Adaptive.disk pv.Adaptive.cold;
    (match o.Adaptive.disk with
    | None -> ()
    | Some st ->
        Format.printf
          "disk cache: %d hits, %d stores, %d skipped@." st.Disk_cache.hits
          st.Disk_cache.stores st.Disk_cache.skipped);
    (match o.Adaptive.best with
    | None -> Format.printf "no feasible design found within budget@."
    | Some d ->
        Format.printf "best: %a@." Design.pp d;
        Format.printf "      clock %.0f MHz, %s = %g@."
          d.Design.params.Space.clock_mhz (objective_token objective)
          (Optimum.objective_value objective d));
    match report with
    | None -> ()
    | Some path ->
        (* Key,value rows; everything here is deterministic for a fixed
           (scenario, strategy, objective, budget, seed) - provenance and
           disk/wall-clock stats are deliberately excluded, so the golden
           test can byte-compare across cache states and job counts.
           Float values use %h (hex bits): exact, locale-proof. *)
        let rows =
          [
            [ "scenario"; scenario.Scenario.name ];
            [ "strategy"; Adaptive.strategy_to_string strategy ];
            [ "objective"; objective_token objective ];
            [ "budget"; string_of_int budget ];
            [ "seed"; string_of_int seed ];
            [ "implicit"; Printf.sprintf "%.0f" o.Adaptive.implicit ];
            [ "evaluated"; string_of_int o.Adaptive.evaluated ];
            [ "bounded"; string_of_int o.Adaptive.bounded ];
            [ "pruned"; Printf.sprintf "%.0f" o.Adaptive.pruned ];
          ]
          @ List.mapi
              (fun i r ->
                [
                  Printf.sprintf "rung%d" i;
                  Printf.sprintf
                    "%s candidates=%d evaluated=%d promoted=%d pruned=%d"
                    r.Adaptive.fidelity r.Adaptive.candidates
                    r.Adaptive.evaluated r.Adaptive.promoted r.Adaptive.pruned;
                ])
              o.Adaptive.rungs
          @ (match o.Adaptive.best with
            | None -> [ [ "best"; "none" ] ]
            | Some d ->
                let p = d.Design.params in
                [
                  [ "best"; "found" ];
                  [ "best.systolic_dim"; string_of_int p.Space.systolic_dim ];
                  [ "best.lanes"; string_of_int p.Space.lanes ];
                  [ "best.l1_kb"; Printf.sprintf "%g" p.Space.l1 ];
                  [ "best.l2_mb"; Printf.sprintf "%g" p.Space.l2 ];
                  [ "best.memory_bw_tb_s"; Printf.sprintf "%g" p.Space.memory_bw ];
                  [ "best.device_bw_gb_s"; Printf.sprintf "%g" p.Space.device_bw ];
                  [ "best.clock_mhz"; Printf.sprintf "%g" p.Space.clock_mhz ];
                  [ "best.ttft_bits"; Printf.sprintf "%h" d.Design.ttft_s ];
                  [ "best.tbt_bits"; Printf.sprintf "%h" d.Design.tbt_s ];
                  [
                    "best.objective_bits";
                    Printf.sprintf "%h" (Optimum.objective_value objective d);
                  ];
                ])
        in
        Csv.write ~path ~header:[ "key"; "value" ] rows;
        Format.printf "wrote %s (%d rows)@." path (List.length rows)
  in
  let run target strategy budget seed objective cache_dir report
      refine_serving jobs trace =
    match scenario_of_target target with
    | Error msg -> `Error (false, msg)
    | Ok s -> (
        try
          exec s strategy budget seed objective cache_dir report
            refine_serving jobs trace;
          `Ok ()
        with Invalid_argument msg -> `Error (false, msg))
  in
  Cmd.v
    (Cmd.info "search"
       ~doc:"Adaptively search a design space under an evaluation budget \
             (billion-point lattices welcome), with an optional persistent \
             disk cache.")
    Term.(
      ret
        (const run $ target $ strategy $ budget $ seed $ objective $ cache_dir
       $ report $ refine_serving $ jobs_arg $ trace_arg))

(* --- policy-lab --- *)

let policy_lab_cmd =
  let regimes_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "regime" ] ~docv:"NAME|FILE"
          ~doc:"A regime to sweep: a registry name (e.g. acr-2023) or a \
                JSON regime file. Repeatable; default: the whole registry.")
  in
  let scenario_arg =
    Arg.(
      value
      & opt string "scorecard"
      & info [ "scenario" ] ~docv:"SCENARIO"
          ~doc:"The design-space scenario (JSON manifest file or registry \
                name) whose sweep the regimes are applied to.")
  in
  let market_arg =
    Arg.(
      value
      & opt
          (enum
             [ ("marketing", `Marketing); ("architectural", `Architectural) ])
          `Marketing
      & info [ "market" ]
          ~doc:"How survey devices get their market segment for \
                market-scoped rules: by marketing segment (the rules as \
                written) or by the Sec 5.2 architectural classifier.")
  in
  let csv_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE"
          ~doc:"Write the regime comparison as CSV to \\$(docv).")
  in
  let dump_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump-registry" ] ~docv:"FILE"
          ~doc:"Also write the full regime registry (every rule set as \
                JSON) to \\$(docv).")
  in
  let resolve_regime name =
    if Sys.file_exists name && not (Sys.is_directory name) then
      try Ok (Regime.of_json (Json.of_file name))
      with Json.Error msg -> Error (Printf.sprintf "%s: %s" name msg)
    else
      match Regime.find name with
      | Some r -> Ok r
      | None ->
          Error
            (Printf.sprintf
               "%S is neither a regime file nor a registry regime (known: %s)"
               name
               (String.concat ", " (Regime.names ())))
  in
  let exec regimes scenario market jobs csv dump trace =
    with_jobs_opt jobs @@ fun () ->
    with_trace_opt trace @@ fun () ->
    (match dump with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        Json.to_channel ~indent:2 oc (Json.list Regime.to_json Regime.registry);
        output_char oc '\n';
        close_out oc;
        Format.printf "wrote regime registry %s (%d regimes)@." path
          (List.length Regime.registry));
    List.iter
      (fun (r : Regime.t) ->
        Format.printf "%-26s %s@." r.Regime.name r.Regime.description)
      regimes;
    Format.printf "%a@." Scenario.pp scenario;
    let designs = summarized_run (fun () -> Eval.run scenario) in
    let base = Engine.simulate Presets.a100 scenario.Scenario.model in
    let market_of g =
      match market with
      | `Marketing -> Gpu.marketing_market g
      | `Architectural -> Gpu.architectural_market g
    in
    let dc, ndc =
      List.partition (fun g -> g.Gpu.segment = Gpu.Data_center) Database.survey
    in
    let header =
      [
        "regime"; "scope"; "dc_captured"; "dc_total"; "collateral";
        "nondc_total"; "designs"; "compliant"; "compliant_mfg";
        "best_ttft_ms"; "ttft_vs_a100_pct"; "best_tbt_ms"; "tbt_vs_a100_pct";
      ]
    in
    let rows =
      List.map
        (fun (r : Regime.t) ->
          let captured gs =
            List.length
              (List.filter
                 (fun g ->
                   Regime.regulated ~market:(market_of g) r (Gpu.subject g))
                 gs)
          in
          let compliant = List.filter (fun d -> Design.compliant r d) designs in
          let ok = List.filter Design.manufacturable compliant in
          let best objective metric baseline =
            match Optimum.best objective ok with
            | Some d ->
                let v = Units.to_ms (metric d) in
                ( Printf.sprintf "%.4f" v,
                  Printf.sprintf "%+.1f"
                    (100. *. (metric d -. baseline) /. baseline) )
            | None -> ("-", "-")
          in
          let ttft, dttft =
            best Optimum.Ttft (fun d -> d.Design.ttft_s) base.Engine.ttft_s
          in
          let tbt, dtbt =
            best Optimum.Tbt (fun d -> d.Design.tbt_s) base.Engine.tbt_s
          in
          [
            r.Regime.name;
            (match r.Regime.scope with
            | Regime.Per_die -> "per-die"
            | Regime.Per_package -> "per-package");
            string_of_int (captured dc);
            string_of_int (List.length dc);
            string_of_int (captured ndc);
            string_of_int (List.length ndc);
            string_of_int (List.length designs);
            string_of_int (List.length compliant);
            string_of_int (List.length ok);
            ttft; dttft; tbt; dtbt;
          ])
        regimes
    in
    let t =
      Table.create
        ~aligns:
          [
            Table.Left; Table.Left; Table.Right; Table.Right; Table.Right;
            Table.Right; Table.Right; Table.Right; Table.Right; Table.Right;
            Table.Right; Table.Right; Table.Right;
          ]
        header
    in
    List.iter (Table.add_row t) rows;
    Table.print ~title:"regimes x survey devices x design space" t;
    Format.printf
      "captured: survey devices regulated (any verdict above unregulated); \
       collateral: captured non-data-center devices.@.";
    match csv with
    | None -> ()
    | Some path ->
        Csv.write ~path ~header rows;
        Format.printf "wrote %s (%d rows)@." path (List.length rows)
  in
  let run regimes scenario market jobs csv dump trace =
    let rec resolve acc = function
      | [] -> Ok (List.rev acc)
      | name :: rest -> (
          match resolve_regime name with
          | Ok r -> resolve (r :: acc) rest
          | Error _ as e -> e)
    in
    let regimes =
      if regimes = [] then Ok Regime.registry
      else resolve [] regimes
    in
    match (regimes, scenario_of_target scenario) with
    | Error msg, _ | _, Error msg -> `Error (false, msg)
    | Ok regimes, Ok scenario -> (
        try
          exec regimes scenario market jobs csv dump trace;
          `Ok ()
        with Invalid_argument msg -> `Error (false, msg))
  in
  Cmd.v
    (Cmd.info "policy-lab"
       ~doc:"Sweep sanction regimes over the device survey and a design \
             space: capture counts, collateral damage and the best \
             compliant design under each rule set.")
    Term.(
      ret
        (const run $ regimes_arg $ scenario_arg $ market_arg $ jobs_arg
       $ csv_arg $ dump_arg $ trace_arg))

(* --- profile --- *)

let profile_cmd =
  let target =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SCENARIO"
          ~doc:"A JSON manifest file, or the name of a registry scenario \
                (see `acs scenarios`).")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:"Also write the full metrics registry (counters, gauges, \
                histogram buckets) as JSON to \\$(docv).")
  in
  let exec scenario jobs trace metrics_out =
    with_jobs_opt jobs @@ fun () ->
    Format.printf "%a@." Scenario.pp scenario;
    Format.printf "domain pool: %d job%s@." (Parallel.jobs ())
      (if Parallel.jobs () = 1 then "" else "s");
    let root =
      "profile:"
      ^ (if scenario.Scenario.name = "" then "scenario" else scenario.Scenario.name)
    in
    (* Tracing is always on for a profile run - that is the point of the
       verb - so the engine's per-phase spans and histograms populate even
       when no --trace file was requested. *)
    let designs =
      Tracing.with_tracing true (fun () ->
          Tracing.with_span root (fun () -> Eval.run scenario))
    in
    Format.printf "%d designs evaluated@." (List.length designs);
    Option.iter write_trace trace;
    (match metrics_out with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            Json.to_channel ~indent:2 oc (Metrics.export ());
            output_char oc '\n');
        Format.printf "wrote metrics %s@." path);
    metrics_summary ()
  in
  let run target jobs trace metrics_out =
    match scenario_of_target target with
    | Error msg -> `Error (false, msg)
    | Ok s -> (
        try
          exec s jobs trace metrics_out;
          `Ok ()
        with Invalid_argument msg -> `Error (false, msg))
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Evaluate a scenario with span tracing on and report where the \
             time went (metrics summary, optional Chrome trace and metrics \
             JSON).")
    Term.(ret (const run $ target $ jobs_arg $ trace_arg $ metrics_out))

(* --- fps --- *)

let fps_cmd =
  let run device =
    Format.printf "%a@." Device.pp device;
    List.iter
      (fun scene ->
        Format.printf "%-14s %a@." scene.Graphics.name
          Graphics_model.pp_breakdown
          (Graphics_model.frame_breakdown device scene))
      Graphics.presets
  in
  Cmd.v
    (Cmd.info "fps" ~doc:"Estimate gaming frame rates of a template device.")
    Term.(const run $ device_args)

(* --- shared serving flags (serve + fleet) ---

   Both verbs drive the same synthetic traces and scheduler configs, so
   the flag vocabulary is one term: a spec that either command turns into
   a trace with [synthesize]. *)

type trace_spec = {
  rate : float;
  duration : float;
  mean_input : int;
  mean_output : int;
  seed : int;
}

let trace_spec_term =
  let rate = Arg.(value & opt float 3. & info [ "rate" ] ~doc:"Requests per second.") in
  let duration = Arg.(value & opt float 60. & info [ "duration" ] ~doc:"Trace duration, seconds.") in
  let mean_input = Arg.(value & opt int 512 & info [ "mean-input" ] ~doc:"Mean prompt length.") in
  let mean_output = Arg.(value & opt int 128 & info [ "mean-output" ] ~doc:"Mean generation length.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Trace RNG seed.") in
  let build rate duration mean_input mean_output seed =
    { rate; duration; mean_input; mean_output; seed }
  in
  Term.(const build $ rate $ duration $ mean_input $ mean_output $ seed)

let synthesize spec =
  Trace.synthetic ~seed:spec.seed ~rate_per_s:spec.rate
    ~duration_s:spec.duration ~mean_input:spec.mean_input
    ~mean_output:spec.mean_output ()

let tp_arg =
  Arg.(value & opt int Simulator.default_config.Simulator.tp
       & info [ "tp" ] ~doc:"Tensor-parallel group size.")

let max_batch_arg =
  Arg.(value & opt int Simulator.default_config.Simulator.max_batch
       & info [ "max-batch" ] ~doc:"Scheduler cap on concurrent requests.")

let policy_arg =
  Arg.(value
       & opt (enum [ ("prefill", Simulator.Prefill_priority);
                     ("decode-fair", Simulator.Decode_fair) ])
           Simulator.default_config.Simulator.policy
       & info [ "policy" ]
           ~doc:"Scheduling policy: 'prefill' admits whenever anything \
                 fits (lowest TTFT); 'decode-fair' interleaves a decode \
                 step between admissions (bounded TBT stalls).")

let engine_arg =
  Arg.(value
       & opt (enum [ ("compiled", Simulator.Compiled);
                     ("legacy", Simulator.Legacy) ])
           Simulator.default_config.Simulator.engine
       & info [ "engine" ]
           ~doc:"Step-latency engine: 'compiled' (memoized \
                 Engine.compile/simulate_compiled fast path) or 'legacy' \
                 (one Engine.simulate per step). Identical results; see \
                 the serving_throughput bench for the speed gap.")

let slo_ttft_arg =
  Arg.(value & opt (some float) None
       & info [ "slo-ttft" ] ~docv:"SECONDS"
           ~doc:"TTFT objective; with --slo-tbt (or alone) prints SLO \
                 attainment over completed requests.")

let slo_tbt_arg =
  Arg.(value & opt (some float) None
       & info [ "slo-tbt" ] ~docv:"SECONDS"
           ~doc:"Time-between-tokens objective; see --slo-ttft.")

(* A single-sided objective leaves the other side unconstrained. *)
let print_slo attainment = function
  | None, None -> ()
  | slo_ttft, slo_tbt ->
      let ttft_s = Option.value slo_ttft ~default:infinity in
      let tbt_s = Option.value slo_tbt ~default:infinity in
      Format.printf "SLO attainment (TTFT <= %g s, TBT <= %g s): %.1f%%@."
        ttft_s tbt_s
        (100. *. attainment ~ttft_s ~tbt_s)

(* --- serve --- *)

let serve_cmd =
  let exec device model spec trace_file tp max_batch policy engine slo_ttft
      slo_tbt =
    let config =
      { Simulator.default_config with Simulator.tp; max_batch; policy; engine }
    in
    let trace = synthesize spec in
    Format.printf "%a@." Device.pp device;
    Format.printf "trace: %d requests, %d output tokens@." (List.length trace)
      (Trace.total_output_tokens trace);
    Format.printf "scheduler: tp=%d, max batch %d, %s policy, %s engine@."
      config.Simulator.tp config.Simulator.max_batch
      (Simulator.policy_to_string config.Simulator.policy)
      (Simulator.engine_to_string config.Simulator.engine);
    with_trace_opt trace_file @@ fun () ->
    let stats = Simulator.run ~config device model trace in
    Format.printf "%a@." Simulator.pp_stats stats;
    print_slo (Simulator.slo_attainment stats) (slo_ttft, slo_tbt)
  in
  let run device model spec trace_file tp max_batch policy engine slo_ttft
      slo_tbt =
    match
      exec device model spec trace_file tp max_batch policy engine slo_ttft
        slo_tbt
    with
    | () -> `Ok ()
    | exception Simulator.Infeasible msg -> `Error (false, msg)
    | exception Invalid_argument msg -> `Error (false, msg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Simulate continuous-batching serving of a synthetic trace.")
    Term.(ret (const run $ device_args $ model_arg $ trace_spec_term
           $ trace_arg $ tp_arg $ max_batch_arg $ policy_arg $ engine_arg
           $ slo_ttft_arg $ slo_tbt_arg))

(* --- fleet --- *)

let fleet_cmd =
  (* [role=]DEVICE:COUNT, where DEVICE is a database name and COUNT a
     number of tensor-parallel groups. The count is split off the last
     colon so device names containing colons keep working. *)
  let pool_spec_conv =
    let parse s =
      let role, rest =
        match String.index_opt s '=' with
        | Some i ->
            let role = String.sub s 0 i in
            let rest = String.sub s (i + 1) (String.length s - i - 1) in
            (match role with
            | "unified" -> Ok Fleet.Unified
            | "prefill" -> Ok Fleet.Prefill
            | "decode" -> Ok Fleet.Decode
            | r ->
                Error
                  (Printf.sprintf
                     "unknown pool role %S (unified, prefill or decode)" r))
            |> fun role -> (role, rest)
        | None -> (Ok Fleet.Unified, s)
      in
      match role with
      | Error msg -> Error (`Msg msg)
      | Ok role -> (
          match String.rindex_opt rest ':' with
          | None ->
              Error
                (`Msg
                   (Printf.sprintf "pool %S: expected [role=]DEVICE:COUNT" s))
          | Some i -> (
              let name = String.sub rest 0 i in
              let count = String.sub rest (i + 1) (String.length rest - i - 1) in
              match (Database.find name, int_of_string_opt count) with
              | None, _ ->
                  Error
                    (`Msg
                       (Printf.sprintf "unknown device %S (see `acs survey`)"
                          name))
              | _, None ->
                  Error (`Msg (Printf.sprintf "pool count %S: not a number" count))
              | Some gpu, Some count -> Ok (role, Gpu.to_template gpu, count)))
    in
    let print ppf (role, dev, count) =
      Format.fprintf ppf "%s=%s:%d" (Fleet.role_to_string role)
        dev.Device.name count
    in
    Arg.conv (parse, print)
  in
  let pools_arg =
    Arg.(value & opt_all pool_spec_conv []
         & info [ "pool" ] ~docv:"[ROLE=]DEVICE:COUNT"
             ~doc:"Add a pool of \\$(docv) tensor-parallel groups (repeat \
                   for heterogeneous or disaggregated fleets), e.g. \
                   'H100:4' or 'prefill=H100:2' with 'decode=H20:6'.")
  in
  let routing_arg =
    Arg.(value
         & opt (enum [ ("round-robin", Fleet.Round_robin);
                       ("least-loaded", Fleet.Least_loaded);
                       ("phase-affine", Fleet.Phase_affine) ])
             Fleet.Least_loaded
         & info [ "routing" ]
             ~doc:"Dispatch policy: 'round-robin' rotates, 'least-loaded' \
                   picks the fewest outstanding tokens, 'phase-affine' \
                   prices each request on each candidate and picks the \
                   cheapest estimated completion.")
  in
  let handoff_arg =
    Arg.(value & opt (some float) None
         & info [ "handoff-gb-s" ] ~docv:"GB_S"
             ~doc:"Prefill-to-decode KV link bandwidth; defaults to the \
                   slowest pool device interconnect.")
  in
  let target_qps_arg =
    Arg.(value & opt (some float) None
         & info [ "target-qps" ] ~docv:"QPS"
             ~doc:"Also print the per-pool group counts needed to sustain \
                   \\$(docv) completed requests per second.")
  in
  let requests_arg =
    Arg.(value & opt (some int) None
         & info [ "requests" ] ~docv:"N"
             ~doc:"Bound the trace by request count instead of --duration \
                   (which is then ignored); with --stream, traces of \
                   millions of requests run in memory independent of \
                   \\$(docv).")
  in
  let stream_arg =
    Arg.(value & flag
         & info [ "stream" ]
             ~doc:"Use the bounded-memory streamed engine: requests are \
                   routed in epochs and the groups advance in parallel \
                   across the ACS_JOBS domain pool, with results \
                   bit-identical across job counts. Percentiles come from \
                   online sketches (1% relative error) and the per-request \
                   outcome list is not retained.")
  in
  let epoch_arg =
    Arg.(value & opt int 512
         & info [ "epoch" ] ~docv:"N"
             ~doc:"Streamed router epoch: requests routed per round \
                   between parallel group advances (only with --stream).")
  in
  (* Rate-shape flags compose into one Trace.shape: a diurnal cycle, a
     burst overlay, or their product. *)
  let shape_term =
    let diurnal_period =
      Arg.(value & opt (some float) None
           & info [ "diurnal-period" ] ~docv:"SECONDS"
               ~doc:"Modulate the arrival rate over a diurnal cycle of \
                     \\$(docv) (trough at t=0, peak rate mid-cycle).")
    in
    let diurnal_trough =
      Arg.(value & opt float 0.25
           & info [ "diurnal-trough" ] ~docv:"FRACTION"
               ~doc:"Trough-to-peak rate ratio for --diurnal-period.")
    in
    let burst_every =
      Arg.(value & opt (some float) None
           & info [ "burst-every" ] ~docv:"SECONDS"
               ~doc:"Overlay a rate burst every \\$(docv).")
    in
    let burst_width =
      Arg.(value & opt float 1.
           & info [ "burst-width" ] ~docv:"SECONDS"
               ~doc:"Duration of each --burst-every burst.")
    in
    let burst_factor =
      Arg.(value & opt float 3.
           & info [ "burst-factor" ] ~docv:"X"
               ~doc:"Rate multiplier inside a burst.")
    in
    let build period trough every width factor =
      let diurnal =
        Option.map (fun period_s -> Trace.Diurnal { period_s; trough }) period
      in
      let bursts =
        Option.map
          (fun every_s -> Trace.Bursts { every_s; width_s = width; factor })
          every
      in
      match (diurnal, bursts) with
      | None, None -> None
      | (Some _ as s), None | None, (Some _ as s) -> s
      | Some d, Some b -> Some (Trace.Compose (d, b))
    in
    Term.(const build $ diurnal_period $ diurnal_trough $ burst_every
          $ burst_width $ burst_factor)
  in
  let exec model spec trace_file pools routing handoff_gb_s target_qps tp
      max_batch policy engine slo_ttft slo_tbt requests stream_mode epoch
      shape =
    if pools = [] then
      invalid_arg "pass at least one --pool, e.g. --pool H100:4";
    let config =
      { Simulator.default_config with Simulator.tp; max_batch; policy; engine }
    in
    let fleet =
      Fleet.make ~routing ?handoff_gb_s
        (List.map
           (fun (role, dev, count) -> Fleet.pool ~role ~config ~count dev)
           pools)
    in
    (* --requests replaces the duration bound (otherwise the default
       --duration would silently cap a long --requests run). *)
    let mk_stream () =
      Trace.stream ~seed:spec.seed ?shape ?limit:requests
        ?duration_s:(if requests = None then Some spec.duration else None)
        ~rate_per_s:spec.rate ~mean_input:spec.mean_input
        ~mean_output:spec.mean_output ()
    in
    Format.printf "fleet: %s routing, %s; pools: %s@."
      (Fleet.routing_to_string routing)
      (if Fleet.disaggregated fleet then "disaggregated" else "unified")
      (String.concat ", "
         (List.map
            (fun (p : Fleet.pool) ->
              Printf.sprintf "%s x%d (tp=%d)" p.Fleet.name p.Fleet.count
                config.Simulator.tp)
            fleet.Fleet.pools));
    let slo =
      match (slo_ttft, slo_tbt) with
      | None, None -> None
      | a, b ->
          Some
            (Option.value a ~default:infinity, Option.value b ~default:infinity)
    in
    let fs =
      if stream_mode then (
        Format.printf "stream: %g req/s (%s rate), %s; epoch %d@." spec.rate
          (match shape with None -> "constant" | Some _ -> "shaped")
          (match requests with
          | Some n -> Printf.sprintf "up to %d requests" n
          | None -> Printf.sprintf "%g s" spec.duration)
          epoch;
        with_trace_opt trace_file @@ fun () ->
        Fleet.run_stream ~epoch ?slo fleet model (mk_stream ()))
      else
        let trace = Trace.materialize (mk_stream ()) in
        Format.printf "trace: %d requests, %d output tokens@."
          (List.length trace)
          (Trace.total_output_tokens trace);
        with_trace_opt trace_file @@ fun () -> Fleet.run fleet model trace
    in
    Format.printf "%a@." Fleet.pp_fleet_stats fs;
    (match (fs.Fleet.slo_attained, slo) with
    | Some a, Some (ttft_s, tbt_s) ->
        Format.printf "SLO attainment (TTFT <= %g s, TBT <= %g s): %.1f%%@."
          ttft_s tbt_s (100. *. a)
    | _ -> print_slo (Fleet.slo_attainment fs) (slo_ttft, slo_tbt));
    (* A stable, greppable one-liner: CI diffs it across ACS_JOBS settings
       to hold the streamed engine to its determinism contract. *)
    let sum f =
      List.fold_left
        (fun acc ps ->
          Array.fold_left (fun a s -> a + f s) acc ps.Fleet.per_group)
        0 fs.Fleet.pools
    in
    Format.printf
      "totals: completed=%d rejected=%d generated=%d produced=%d \
       prefill_batches=%d decode_steps=%d@."
      fs.Fleet.completed fs.Fleet.rejected_count fs.Fleet.generated_tokens
      fs.Fleet.produced_tokens
      (sum (fun s -> s.Simulator.prefill_batches))
      (sum (fun s -> s.Simulator.decode_steps));
    let die_cost dev =
      Cost_model.die_cost_usd ~process:Cost_model.n7
        ~die_area_mm2:(Area_model.total_mm2 dev)
    in
    (match Fleet.silicon_usd_per_mtok ~die_cost_usd:die_cost fleet fs with
    | Some cost ->
        Format.printf "silicon: $%.2f per million tokens (N7 dies, 3-year \
                       amortization)@."
          cost
    | None -> ());
    match target_qps with
    | None -> ()
    | Some q -> (
        match Fleet.devices_for_qps fs ~target_qps:q with
        | [] ->
            Format.printf
              "no completed requests - cannot size the fleet for %g req/s@." q
        | plan ->
            let groups = List.fold_left (fun acc (_, n) -> acc + n) 0 plan in
            Format.printf "groups for %g req/s: %s (%d groups, %d dies)@." q
              (String.concat ", "
                 (List.map (fun (n, c) -> Printf.sprintf "%s x%d" n c) plan))
              groups
              (groups * config.Simulator.tp))
  in
  let run model spec trace_file pools routing handoff target_qps tp max_batch
      policy engine slo_ttft slo_tbt requests stream_mode epoch shape =
    match
      exec model spec trace_file pools routing handoff target_qps tp max_batch
        policy engine slo_ttft slo_tbt requests stream_mode epoch shape
    with
    | () -> `Ok ()
    | exception Simulator.Infeasible msg -> `Error (false, msg)
    | exception Invalid_argument msg -> `Error (false, msg)
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:"Simulate a multi-device serving fleet (homogeneous, \
             heterogeneous or disaggregated prefill/decode) against one \
             shared trace, materialized or streamed in bounded memory.")
    Term.(ret (const run $ model_arg $ trace_spec_term $ trace_arg
           $ pools_arg $ routing_arg $ handoff_arg $ target_qps_arg $ tp_arg
           $ max_batch_arg $ policy_arg $ engine_arg $ slo_ttft_arg
           $ slo_tbt_arg $ requests_arg $ stream_arg $ epoch_arg
           $ shape_term))

(* --- daemon / submit / jobs / cancel ---

   The long-running evaluation service and its thin client verbs. All
   four share one --socket flag; the client verbs open one short-lived
   connection per call. *)

let socket_arg =
  Arg.(
    value
    & opt string Daemon.Server.default_config.Daemon.Server.socket
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket the daemon listens on. Keep the path \
              short (sun_path caps out near 100 bytes).")

let daemon_cmd =
  let workers =
    Arg.(
      value
      & opt int Daemon.Server.default_config.Daemon.Server.workers
      & info [ "workers" ] ~docv:"N" ~doc:"Job-runner domains.")
  in
  let queue =
    Arg.(
      value
      & opt int Daemon.Server.default_config.Daemon.Server.queue
      & info [ "queue" ] ~docv:"N"
          ~doc:"Bounded job-queue capacity; submissions beyond it are \
                rejected with a structured queue-full error, never \
                blocked.")
  in
  let batch =
    Arg.(
      value
      & opt int Daemon.Server.default_config.Daemon.Server.batch
      & info [ "batch" ] ~docv:"N"
          ~doc:"Design points evaluated between cancellation checks and \
                progress events.")
  in
  let throttle =
    Arg.(
      value & opt float 0.
      & info [ "throttle" ] ~docv:"SECONDS"
          ~doc:"Sleep between batches (a testing aid to keep jobs \
                observable; leave at 0 in production).")
  in
  let cache_dir =
    Arg.(
      value
      & opt string Disk_cache.default_dir
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:"Persistent disk-cache tier kept warm across jobs.")
  in
  let no_disk =
    Arg.(
      value & flag
      & info [ "no-disk-cache" ]
          ~doc:"Run with the in-memory memo tier only (no disk writes).")
  in
  let run socket workers queue batch throttle cache_dir no_disk jobs =
    try
      let cfg =
        {
          Daemon.Server.socket;
          workers;
          queue;
          batch;
          throttle_s = throttle;
          eval_jobs = jobs;
          cache_dir = (if no_disk then None else Some cache_dir);
        }
      in
      let t = Daemon.Server.start cfg in
      Format.printf "acs daemon listening on %s (%d worker%s, queue %d%s)@."
        socket workers
        (if workers = 1 then "" else "s")
        queue
        (match cfg.Daemon.Server.cache_dir with
        | Some d -> ", disk cache " ^ d
        | None -> ", memo tier only");
      (* SIGTERM/SIGINT request a graceful drain: stop accepting, let
         queued and running jobs finish, then exit cleanly. The handler
         only flips an atomic - the teardown runs here on the main
         thread. *)
      let handler = Sys.Signal_handle (fun _ -> Daemon.Server.request_stop t) in
      (try Sys.set_signal Sys.sigterm handler with Invalid_argument _ -> ());
      (try Sys.set_signal Sys.sigint handler with Invalid_argument _ -> ());
      Daemon.Server.wait t;
      Format.printf "draining: rejecting new jobs, finishing queued ones@.";
      Daemon.Server.stop ~drain:true t;
      Format.printf "daemon stopped cleanly@.";
      `Ok ()
    with
    | Invalid_argument msg | Failure msg -> `Error (false, msg)
    | Unix.Unix_error (e, fn, arg) ->
        `Error
          (false, Printf.sprintf "%s %s: %s" fn arg (Unix.error_message e))
  in
  Cmd.v
    (Cmd.info "daemon"
       ~doc:"Run the long-lived evaluation service: scenario jobs over a \
             Unix-domain socket, bounded queue with explicit \
             backpressure, and eval caches kept warm across requests.")
    Term.(
      ret
        (const run $ socket_arg $ workers $ queue $ batch $ throttle
       $ cache_dir $ no_disk $ jobs_arg))

(* Client-side helpers over the daemon's JSON payloads. *)

let json_int_m name j = Json.to_option Json.to_int (Json.member name j)
let json_str_m name j = Json.to_option Json.to_str (Json.member name j)

let daemon_error (r : Daemon.Client.response) =
  match json_str_m "error" r.Daemon.Client.body with
  | Some m -> m
  | None | (exception Json.Error _) ->
      Json.to_string r.Daemon.Client.body

(* The greppable warm-cache provenance line (the CI smoke step asserts
   it on a repeated submission). *)
let print_cache_line j =
  match Json.member "cache" j with
  | Json.Obj _ as c ->
      let v n = Option.value ~default:0 (json_int_m n c) in
      let memo = v "memo" and disk = v "disk" and cold = v "cold" in
      let looked = memo + disk + cold in
      if looked > 0 then
        Format.printf "warm cache: %.1f%% (%d memo + %d disk of %d points)@."
          (100. *. float_of_int (memo + disk) /. float_of_int looked)
          memo disk looked
  | _ | (exception Json.Error _) -> ()

let job_summary j =
  let v n = Option.value ~default:0 (json_int_m n j) in
  Format.printf "job %d [%s]: %s, %d/%d points@." (v "id")
    (Option.value ~default:"?" (json_str_m "scenario" j))
    (Option.value ~default:"?" (json_str_m "status" j))
    (v "progress") (v "total");
  (match json_str_m "error" j with
  | Some m -> Format.printf "error: %s@." m
  | None -> ());
  (match Json.member "result" j with
  | Json.Obj _ as r ->
      Format.printf "result: %d designs, %d compliant, %.2f s wall@."
        (Option.value ~default:0 (json_int_m "designs" r))
        (Option.value ~default:0 (json_int_m "compliant" r))
        (Option.value ~default:nan
           (Json.to_option Json.to_float (Json.member "wall_s" r)))
  | _ -> ());
  print_cache_line j

let submit_cmd =
  let target =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SCENARIO"
          ~doc:"A JSON manifest file, or the name of a registry scenario \
                (see `acs scenarios`).")
  in
  let detach =
    Arg.(
      value & flag
      & info [ "detach" ]
          ~doc:"Queue the job and return its id immediately instead of \
                streaming progress until it finishes.")
  in
  let run socket target detach =
    match scenario_of_target target with
    | Error msg -> `Error (false, msg)
    | Ok sc -> (
        let manifest = Scenario.to_json sc in
        try
          if detach then begin
            let r = Daemon.Client.submit ~socket manifest in
            if r.Daemon.Client.status = 202 then begin
              let j = r.Daemon.Client.body in
              Format.printf "queued job %d (%d points)@."
                (Option.value ~default:0 (json_int_m "id" j))
                (Option.value ~default:0 (json_int_m "total" j));
              `Ok ()
            end
            else
              `Error
                (false,
                 Printf.sprintf "daemon rejected the job (%d): %s"
                   r.Daemon.Client.status (daemon_error r))
          end
          else begin
            let on_event ev =
              match json_str_m "event" ev with
              | Some "progress" ->
                  Format.printf "job %d: %d/%d points (memo %d, disk %d, \
                                 cold %d)@."
                    (Option.value ~default:0 (json_int_m "id" ev))
                    (Option.value ~default:0 (json_int_m "progress" ev))
                    (Option.value ~default:0 (json_int_m "total" ev))
                    (Option.value ~default:0 (json_int_m "memo" ev))
                    (Option.value ~default:0 (json_int_m "disk" ev))
                    (Option.value ~default:0 (json_int_m "cold" ev))
              | Some e ->
                  Format.printf "job %d: %s@."
                    (Option.value ~default:0 (json_int_m "id" ev))
                    e
              | None -> ()
            in
            let r = Daemon.Client.submit_wait ~socket ~on_event manifest in
            if r.Daemon.Client.status <> 200 then
              `Error
                (false,
                 Printf.sprintf "daemon rejected the job (%d): %s"
                   r.Daemon.Client.status (daemon_error r))
            else begin
              job_summary r.Daemon.Client.body;
              match json_str_m "status" r.Daemon.Client.body with
              | Some "done" -> `Ok ()
              | Some other ->
                  `Error (false, Printf.sprintf "job finished %s" other)
              | None -> `Error (false, "daemon returned no job record")
            end
          end
        with Daemon.Client.Error msg -> `Error (false, msg))
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:"Submit a scenario to a running `acs daemon` (streams progress \
             by default; --detach to just queue).")
    Term.(ret (const run $ socket_arg $ target $ detach))

let daemon_jobs_cmd =
  let run socket =
    try
      let r = Daemon.Client.jobs ~socket in
      if r.Daemon.Client.status <> 200 then
        `Error
          (false,
           Printf.sprintf "daemon returned %d: %s" r.Daemon.Client.status
             (daemon_error r))
      else begin
        let jobs = Json.to_list (Json.member "jobs" r.Daemon.Client.body) in
        if jobs = [] then Format.printf "no jobs@."
        else begin
          let t =
            Table.create
              ~aligns:
                [ Table.Right; Table.Left; Table.Left; Table.Right;
                  Table.Right ]
              [ "id"; "scenario"; "status"; "progress"; "warm%" ]
          in
          List.iter
            (fun j ->
              let v n = Option.value ~default:0 (json_int_m n j) in
              Table.add_row t
                [
                  string_of_int (v "id");
                  Option.value ~default:"?" (json_str_m "scenario" j);
                  Option.value ~default:"?" (json_str_m "status" j);
                  Printf.sprintf "%d/%d" (v "progress") (v "total");
                  (match
                     Json.to_option Json.to_float
                       (Json.member "warm_hit_rate" j)
                   with
                  | Some rate -> Printf.sprintf "%.1f" (100. *. rate)
                  | None -> "-");
                ])
            jobs;
          Table.print t
        end;
        `Ok ()
      end
    with Daemon.Client.Error msg -> `Error (false, msg)
  in
  Cmd.v
    (Cmd.info "jobs" ~doc:"List the jobs of a running `acs daemon`.")
    Term.(ret (const run $ socket_arg))

let cancel_cmd =
  let id =
    Arg.(
      required
      & pos 0 (some int) None
      & info [] ~docv:"ID" ~doc:"Job id (see `acs jobs`).")
  in
  let run socket id =
    try
      let r = Daemon.Client.cancel ~socket id in
      match r.Daemon.Client.status with
      | 200 | 202 ->
          Format.printf "job %d: %s@." id
            (Option.value ~default:"cancelled"
               (json_str_m "status" r.Daemon.Client.body));
          `Ok ()
      | s ->
          `Error
            (false, Printf.sprintf "daemon returned %d: %s" s (daemon_error r))
    with Daemon.Client.Error msg -> `Error (false, msg)
  in
  Cmd.v
    (Cmd.info "cancel"
       ~doc:"Cancel a daemon job (immediate when queued; a running job \
             stops at its next batch boundary).")
    Term.(ret (const run $ socket_arg $ id))

(* --- package --- *)

let package_cmd =
  let dies = Arg.(value & opt int 4 & info [ "dies" ] ~doc:"Compute chiplets.") in
  let die_area = Arg.(value & opt float 750. & info [ "die-area" ] ~doc:"Area per chiplet, mm^2.") in
  let die_tpp = Arg.(value & opt float 1199. & info [ "die-tpp" ] ~doc:"TPP target per chiplet.") in
  let run dies die_area die_tpp =
    let cores =
      Device.cores_for_tpp ~tpp:die_tpp ~lanes_per_core:2
        ~systolic:(Systolic.square 16) ()
    in
    let die =
      Device.make ~name:"chiplet" ~core_count:cores ~lanes_per_core:2
        ~systolic:(Systolic.square 16) ~l1_kb:192. ~l2_mb:16.
        ~memory:(Memory.make ~capacity_gb:24. ~bandwidth_tb_s:0.8)
        ~interconnect:(Interconnect.of_total_gb_s 200.)
        ()
    in
    let pkg =
      Package.make ~compute_die:die ~compute_die_area_mm2:die_area
        ~compute_dies:dies ()
    in
    Format.printf "%a@." Package.pp pkg;
    let spec =
      Spec.make ~tpp:(Package.total_tpp pkg) ~device_bw_gb_s:400.
        ~die_area_mm2:(Package.total_area_mm2 pkg) ()
    in
    Format.printf "October 2023 (data center): %s@."
      (Acr_2023.tier_to_string (Acr_2023.classify Acr_2023.Data_center spec));
    Format.printf "package cost: $%.0f@."
      (Cost_model.package_cost_usd ~process:Cost_model.n7
         ~die_areas_mm2:(Package.die_areas pkg) ())
  in
  Cmd.v
    (Cmd.info "package"
       ~doc:"Build a multi-chip module and classify/cost it.")
    Term.(const run $ dies $ die_area $ die_tpp)

(* --- plan --- *)

let plan_cmd =
  let max_devices = Arg.(value & opt int 64 & info [ "max-devices" ] ~doc:"Device budget.") in
  let max_tp = Arg.(value & opt int 8 & info [ "max-tp" ] ~doc:"Largest tensor-parallel group.") in
  let run device model max_devices max_tp =
    match Cluster.choose_plan ~max_tp ~max_devices device model with
    | Some r ->
        Format.printf "%a@." Device.pp device;
        Format.printf "%a@." Cluster.pp_result r;
        `Ok ()
    | None ->
        `Error
          (false,
           Printf.sprintf "%s does not fit on %d of these devices"
             model.Core.Model.name max_devices)
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:"Pick a tensor/pipeline-parallel plan that fits the model.")
    Term.(ret (const run $ device_args $ model_arg $ max_devices $ max_tp))

(* --- survey --- *)

let survey_cmd =
  let only =
    Arg.(value & opt (some (enum [ ("dc", `Dc); ("consumer", `Consumer) ])) None
         & info [ "only" ] ~doc:"Restrict to 'dc' or 'consumer'.")
  in
  let run only =
    let gpus =
      match only with
      | Some `Dc -> Database.data_center Database.survey
      | Some `Consumer -> Database.non_data_center Database.survey
      | None -> Database.survey
    in
    let t =
      Table.create
        ~aligns:[ Table.Left; Table.Left; Table.Right; Table.Right; Table.Left; Table.Left; Table.Left ]
        [ "device"; "segment"; "TPP"; "PD"; "Oct 2022"; "Oct 2023"; "marketing vs arch" ]
    in
    List.iter
      (fun g ->
        Table.add_row t
          [
            g.Gpu.name;
            Gpu.segment_to_string g.Gpu.segment;
            Printf.sprintf "%.0f" g.Gpu.tpp;
            Printf.sprintf "%.2f" (Gpu.performance_density g);
            Acr_2022.classification_to_string (Gpu.classify_2022 g);
            Acr_2023.tier_to_string (Gpu.classify_2023 g);
            Arch_classifier.status_to_string (Arch_classifier.status g);
          ])
      gpus;
    Table.print t
  in
  Cmd.v (Cmd.info "survey" ~doc:"Print the 65-device survey with classifications.")
    Term.(const run $ only)

let main =
  let info =
    Cmd.info "acs" ~version:"1.0.0"
      ~doc:"Chip architectures under advanced computing sanctions: simulator, policy engine and DSE."
  in
  Cmd.group info
    [ classify_cmd; simulate_cmd; dse_cmd; scenarios_cmd; run_cmd;
      search_cmd; policy_lab_cmd; profile_cmd; survey_cmd; fps_cmd;
      serve_cmd; fleet_cmd; daemon_cmd; submit_cmd; daemon_jobs_cmd;
      cancel_cmd; package_cmd; plan_cmd ]


