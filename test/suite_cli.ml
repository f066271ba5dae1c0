open Helpers

(* The CLI is a library (lib/cli) so its command tree can be driven
   in-process; stdout goes to alcotest's capture. *)

let run args =
  Cmdliner.Cmd.eval ~argv:(Array.of_list ("acs" :: args)) Acs_cli.Cli.main

let ok name args () = Alcotest.(check int) name 0 (run args)

let t_errors () =
  Alcotest.(check bool) "unknown device fails" true
    (run [ "classify"; "--device"; "RTX 9999" ] <> 0);
  Alcotest.(check bool) "classify needs input" true
    (run [ "classify" ] <> 0);
  Alcotest.(check bool) "unknown subcommand fails" true
    (run [ "frobnicate" ] <> 0);
  Alcotest.(check bool) "unknown model fails" true
    (run [ "simulate"; "--model"; "GPT-9" ] <> 0);
  Alcotest.(check bool) "unknown --like fails" true
    (run [ "simulate"; "--like"; "RTX 9999" ] <> 0);
  (* Non-finite and out-of-range policy inputs are command-line errors,
     not verdicts or uncaught exceptions. *)
  List.iter
    (fun args ->
      Alcotest.(check int) (String.concat " " args) Cmdliner.Cmd.Exit.cli_error
        (run args))
    [
      [ "classify"; "--tpp"; "nan"; "--area"; "800" ];
      [ "classify"; "--tpp"; "100"; "--area"; "nan" ];
      [ "classify"; "--tpp"; "100"; "--area"; "0" ];
      [ "package"; "--die-area"; "nan" ];
      [ "package"; "--dies"; "0" ];
      [ "package"; "--die-tpp"; "inf" ];
      (* the template-device flags shared by simulate, fps, serve, plan *)
      [ "simulate"; "--membw"; "nan" ];
      [ "simulate"; "--memgb"; "nan" ];
      [ "fps"; "--membw"; "nan" ];
      [ "plan"; "--membw"; "nan" ];
      [ "simulate"; "--l1"; "nan" ];
      [ "simulate"; "--cores"; "0" ];
      [ "simulate"; "--lanes"; "0" ];
      [ "simulate"; "--systolic"; "0" ];
      [ "simulate"; "--devbw"; "nan" ];
      [ "simulate"; "--memgb"; "0" ];
      [ "simulate"; "--l2"; "inf" ];
      [ "serve"; "--cores"; "0" ];
      (* a die too large for the wafer, caught by the cost model *)
      [ "simulate"; "--l2"; "100000" ];
      (* finite flags whose derived SI quantity overflows to infinity *)
      [ "simulate"; "--membw"; "1e308" ];
      [ "simulate"; "--memgb"; "1e308" ];
      [ "fps"; "--l2"; "1e308" ];
      [ "plan"; "--membw"; "1e308" ];
      [ "simulate"; "--l1"; "1e308" ];
      [ "serve"; "--membw"; "1e308" ];
    ]

let t_scenarios_errors () =
  Alcotest.(check bool) "unknown --dump fails" true
    (run [ "scenarios"; "--dump"; "fig99" ] <> 0)

let t_run_verb () =
  let out = Filename.temp_file "acs_run" "" in
  Sys.remove out;
  (* a100-proxy is a single-point scenario: fast enough for a unit test. *)
  Alcotest.(check int) "run registry scenario" 0
    (run [ "run"; "a100-proxy"; "--jobs"; "2"; "--out"; out ]);
  let csv = Filename.concat out "a100-proxy.csv" in
  Alcotest.(check bool) "csv written" true (Sys.file_exists csv);
  let ic = open_in csv in
  let header = input_line ic in
  let row = input_line ic in
  close_in ic;
  Alcotest.(check string) "bench-identical header"
    (String.concat "," Core.Design.csv_header)
    header;
  Alcotest.(check bool) "row present" true (String.length row > 0);
  (* The same scenario as a manifest file. *)
  let manifest = Filename.temp_file "acs_scenario" ".json" in
  let oc = open_out manifest in
  output_string oc
    (Core.Json.to_string
       (Core.Scenario.to_json (Option.get (Core.Scenario.find "a100-proxy"))));
  close_out oc;
  Alcotest.(check int) "run manifest file" 0 (run [ "run"; manifest ]);
  Sys.remove manifest

let t_run_errors () =
  Alcotest.(check bool) "unknown scenario fails" true
    (run [ "run"; "no-such-scenario" ] <> 0);
  Alcotest.(check bool) "--jobs 0 fails" true
    (run [ "run"; "a100-proxy"; "--jobs"; "0" ] <> 0);
  let bad = Filename.temp_file "acs_bad" ".json" in
  let oc = open_out bad in
  output_string oc {|{"model": "GPT-3 175B"}|};
  close_out oc;
  Alcotest.(check bool) "malformed manifest fails" true (run [ "run"; bad ] <> 0);
  Sys.remove bad

let t_profile_verb () =
  let trace = Filename.temp_file "acs_trace" ".json" in
  let metrics = Filename.temp_file "acs_metrics" ".json" in
  Alcotest.(check int) "profile a scenario" 0
    (run
       [ "profile"; "a100-proxy"; "--jobs"; "2"; "--trace"; trace;
         "--metrics"; metrics ]);
  (* The trace file is valid Chrome trace format with at least one span. *)
  let t = Core.Json.of_file trace in
  Alcotest.(check bool) "trace has events" true
    (Core.Json.to_list (Core.Json.member "traceEvents" t) <> []);
  (* The metrics export carries the eval histogram fed by the profile. *)
  let m = Core.Json.of_file metrics in
  let hist_names =
    List.map
      (fun e -> Core.Json.to_str (Core.Json.member "name" e))
      (Core.Json.to_list (Core.Json.member "histograms" m))
  in
  Alcotest.(check bool) "eval latencies exported" true
    (List.mem "dse_eval_seconds" hist_names);
  Sys.remove trace;
  Sys.remove metrics;
  Alcotest.(check bool) "profile unknown scenario fails" true
    (run [ "profile"; "no-such-scenario" ] <> 0);
  Alcotest.(check bool) "tracing left disabled" true
    (not (Core.Tracing.enabled ()))

let t_run_trace_flag () =
  let trace = Filename.temp_file "acs_run_trace" ".json" in
  Alcotest.(check int) "run --trace" 0
    (run [ "run"; "a100-proxy"; "--jobs"; "2"; "--trace"; trace ]);
  let t = Core.Json.of_file trace in
  Alcotest.(check bool) "trace written by run" true
    (Core.Json.to_list (Core.Json.member "traceEvents" t) <> []);
  Sys.remove trace

let t_plan_infeasible () =
  Alcotest.(check bool) "impossible plan fails" true
    (run [ "plan"; "--model"; "GPT-3 175B"; "--max-devices"; "1"; "--memgb"; "16" ] <> 0)

let suite =
  [
    test "classify by device" (ok "classify" [ "classify"; "--device"; "H20" ]);
    test "classify hypothetical"
      (ok "classify" [ "classify"; "--tpp"; "2399"; "--area"; "760" ]);
    test "simulate defaults" (ok "simulate" [ "simulate" ]);
    test "simulate --like with report"
      (ok "simulate" [ "simulate"; "--like"; "H20"; "--model"; "Llama 3 8B"; "--report" ]);
    test "dse quick"
      (ok "dse"
         [ "dse"; "--space"; "oct2022"; "--model"; "Llama 3 8B"; "--top"; "2";
           "--jobs"; "2" ]);
    test "scenarios listing" (ok "scenarios" [ "scenarios" ]);
    test "scenarios --dump"
      (ok "scenarios" [ "scenarios"; "--dump"; "fig7-gpt3" ]);
    test "scenarios errors" t_scenarios_errors;
    test "run verb" t_run_verb;
    test "run error handling" t_run_errors;
    test "survey" (ok "survey" [ "survey"; "--only"; "dc" ]);
    test "fps" (ok "fps" [ "fps"; "--like"; "RTX 4090" ]);
    test "serve short"
      (ok "serve"
         [ "serve"; "--model"; "Llama 3 8B"; "--rate"; "2"; "--duration"; "5" ]);
    test "package" (ok "package" [ "package"; "--dies"; "4"; "--die-area"; "755" ]);
    test "plan" (ok "plan" [ "plan"; "--model"; "Llama 3 8B" ]);
    test "profile verb" t_profile_verb;
    test "run --trace" t_run_trace_flag;
    test "error handling" t_errors;
    test "infeasible plan" t_plan_infeasible;
  ]
