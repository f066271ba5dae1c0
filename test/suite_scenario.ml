open Core
open Helpers

(* --- the registry --- *)

let t_registry_round_trip () =
  List.iter
    (fun s ->
      let back = Scenario.of_json (Scenario.to_json s) in
      if back <> s then
        Alcotest.failf "registry scenario %S does not round-trip" s.Scenario.name;
      (* ... and through the actual text representation. *)
      let j = Scenario.to_json s in
      if Json.of_string (Json.to_string ~indent:2 j) <> j then
        Alcotest.failf "manifest text of %S does not round-trip" s.Scenario.name)
    Scenario.registry

let t_registry_lookup () =
  Alcotest.(check bool) "find is case-insensitive" true
    (Scenario.find "FIG7-GPT3" <> None);
  Alcotest.(check bool) "unknown name" true (Scenario.find "fig99" = None);
  Alcotest.(check int) "names match registry" (List.length Scenario.registry)
    (List.length (Scenario.names ()));
  let uniq = List.sort_uniq compare (Scenario.names ()) in
  Alcotest.(check int) "names unique" (List.length Scenario.registry)
    (List.length uniq)

let t_registry_shapes () =
  let get name = Option.get (Scenario.find name) in
  Alcotest.(check int) "fig6 sweep size" 512 (Scenario.size (get "fig6-gpt3"));
  Alcotest.(check int) "fig7 sweep size" 1536 (Scenario.size (get "fig7-gpt3"));
  Alcotest.(check int) "fig12 sweep size" 2304 (Scenario.size (get "fig12-gpt3"));
  Alcotest.(check int) "point scenario" 1 (Scenario.size (get "a100-proxy"));
  (* The headline alias has the same evaluation context as its per-target
     sibling - that is what lets them share cache entries. *)
  Alcotest.(check bool) "fig7-gpt3 == fig7-gpt3-2400 (context)" true
    (Scenario.equal (get "fig7-gpt3") (get "fig7-gpt3-2400"));
  Alcotest.(check bool) "distinct TPP targets differ" false
    (Scenario.equal (get "fig7-gpt3-2400") (get "fig7-gpt3-4800"))

let t_compliance_regimes () =
  let fig6 = Option.get (Scenario.find "fig6-gpt3") in
  let fig7 = Option.get (Scenario.find "fig7-gpt3") in
  let d = List.hd (Eval.run fig6) in
  Alcotest.(check bool) "oct2022 regime uses 2022 rule"
    (Design.compliant Regime.acr_2022 d)
    (Scenario.compliant fig6 d);
  Alcotest.(check bool) "oct2023 regime uses 2023 rule" (Design.compliant_2023 d)
    (Scenario.compliant fig7 d);
  let pre = { fig7 with Scenario.regime = Regime.pre_acr } in
  Alcotest.(check bool) "pre-ACR: everything compliant" true
    (Scenario.compliant pre d)

(* --- manifest parsing --- *)

let t_manifest_minimal () =
  let s =
    Scenario.of_json
      (Json.of_string {|{"model": "GPT-3 175B", "tpp_target": 2400, "space": "oct2023"}|})
  in
  Alcotest.(check string) "anonymous" "" s.Scenario.name;
  Alcotest.(check bool) "preset model" true (s.Scenario.model = Model.gpt3_175b);
  Alcotest.(check bool) "defaults to the acr-2023 regime" true
    (Regime.equal s.Scenario.regime Regime.acr_2023);
  Alcotest.(check bool) "optional fields default" true
    (s.Scenario.request = None && s.Scenario.calib = None && s.Scenario.tp = None
    && s.Scenario.memory_gb = None)

let t_manifest_errors () =
  let fails what text =
    match Scenario.of_json (Json.of_string text) with
    | exception Json.Error _ -> ()
    | _ -> Alcotest.failf "%s: expected Json.Error" what
  in
  fails "missing model" {|{"tpp_target": 2400, "space": "oct2023"}|};
  fails "missing tpp_target" {|{"model": "GPT-3 175B", "space": "oct2023"}|};
  fails "missing target" {|{"model": "GPT-3 175B", "tpp_target": 2400}|};
  fails "both targets"
    {|{"model": "GPT-3 175B", "tpp_target": 2400, "space": "oct2023",
       "point": {"systolic_dim": 16, "lanes": 4, "l1_kb": 192, "l2_mb": 40,
                 "memory_bw_tb_s": 2, "device_bw_gb_s": 600}}|};
  fails "unknown model" {|{"model": "GPT-5", "tpp_target": 2400, "space": "oct2023"}|};
  fails "unknown sweep" {|{"model": "GPT-3 175B", "tpp_target": 2400, "space": "oct2024"}|};
  fails "unknown regime"
    {|{"model": "GPT-3 175B", "tpp_target": 2400, "space": "oct2023", "regime": "perestroika"}|};
  fails "unknown calibration knob"
    {|{"model": "GPT-3 175B", "tpp_target": 2400, "space": "oct2023",
       "calib": {"dram_eficiency": 0.8}}|}

(* --- generated scenarios --- *)

let scenario_gen =
  let open QCheck.Gen in
  let custom_model =
    Model.make ~name:"tiny-moe" ~num_layers:4 ~d_model:512 ~ffn_dim:1024
      ~n_heads:8 ~n_kv_heads:4 ~activation:Model.Swiglu
      ~moe:{ Model.num_experts = 8; top_k = 2 }
      ~bytes_per_param:1. ()
  in
  let model = oneof [ oneofl Model.presets; return custom_model ] in
  let request =
    opt
      (let* batch = int_range 1 64 in
       let* input_len = int_range 1 4096 in
       let* output_len = int_range 1 2048 in
       return (Request.make ~batch ~input_len ~output_len))
  in
  let calib =
    opt
      (let* eff = float_range 0.1 1.0 in
       let* leak = float_range 0.0 0.5 in
       return
         (Calib.of_json
            (Json.Obj
               [ ("dram_efficiency", Json.Number eff);
                 ("overlap_leak", Json.Number leak) ])))
  in
  let params =
    let* systolic_dim = oneofl [ 4; 8; 16; 32 ] in
    let* lanes = oneofl [ 1; 2; 4; 8 ] in
    let* l1 = oneofl [ 32.; 192.; 1024. ] in
    let* l2 = oneofl [ 8.; 40.; 80. ] in
    let* memory_bw = oneofl [ 0.8; 2.; 3.2 ] in
    let* device_bw = oneofl [ 400.; 600.; 900. ] in
    let* clock_mhz = oneofl [ Space.default_clock_mhz; 1000.; 1800. ] in
    return { Space.systolic_dim; lanes; l1; l2; memory_bw; device_bw; clock_mhz }
  in
  let custom_sweep =
    let axis g = list_size (int_range 1 3) g in
    let* systolic_dims = axis (oneofl [ 4; 8; 16 ]) in
    let* lanes_per_core = axis (oneofl [ 1; 2; 4 ]) in
    let* l1_kb = axis (oneofl [ 32.; 192. ]) in
    let* l2_mb = axis (oneofl [ 8.; 40. ]) in
    let* memory_bw_tb_s = axis (oneofl [ 0.8; 2. ]) in
    let* device_bw_gb_s = axis (oneofl [ 400.; 600. ]) in
    let* clock_mhz = axis (oneofl [ Space.default_clock_mhz; 1100. ]) in
    return
      { Space.systolic_dims; lanes_per_core; l1_kb; l2_mb; memory_bw_tb_s;
        device_bw_gb_s; clock_mhz }
  in
  let target =
    oneof
      [
        map (fun (_, s) -> Scenario.Space s) (oneofl Space.named);
        map (fun s -> Scenario.Space s) custom_sweep;
        map (fun p -> Scenario.Point p) params;
      ]
  in
  let* name = oneofl [ ""; "custom"; "Fig 7 (re-run)" ] in
  let* description = oneofl [ ""; "a generated scenario" ] in
  let* model = model in
  let* request = request in
  let* calib = calib in
  let* tp = opt (int_range 1 8) in
  let* memory_gb = opt (oneofl [ 24.; 80.; 141. ]) in
  let* tpp_target = oneofl [ 123.456; 1600.; 2400.; 4800. ] in
  let* target = target in
  let* regime =
    oneofl
      [ Regime.pre_acr; Regime.acr_2022; Regime.acr_2023; Regime.hbm_2024;
        Regime.proposal_ai_targeted;
        Regime.make ~description:"an inline counterfactual" "memwall"
          [ Regime.rule Regime.License
              (Regime.any_of
                 [ Regime.above Regime.Memory_bw_tb_s 1.2;
                   Regime.all_of
                     [ Regime.at_least Regime.Tpp 1600.;
                       Regime.not_ (Regime.at_least Regime.L1_kb 32.) ] ]) ] ]
  in
  return
    (Scenario.make ~name ~description ?request ?calib ?tp ?memory_gb ~regime
       ~model ~tpp_target target)

let scenario_arb =
  QCheck.make ~print:(fun s -> Json.to_string ~indent:2 (Scenario.to_json s))
    scenario_gen

let prop_scenario_round_trip =
  qcheck "Scenario.of_json (to_json s) = s" scenario_arb (fun s ->
      Scenario.of_json (Scenario.to_json s) = s)

let prop_scenario_equal_hash =
  qcheck "equal scenarios hash alike" (QCheck.pair scenario_arb scenario_arb)
    (fun (a, b) ->
      Scenario.equal a a
      && Scenario.hash a = Scenario.hash (Scenario.of_json (Scenario.to_json a))
      && (not (Scenario.equal a b) || Scenario.hash a = Scenario.hash b))

(* --- cache-key float semantics (the written-down Hashtbl equality) --- *)

let t_key_float_semantics () =
  let base = Option.get (Scenario.find "a100-proxy") in
  let with_mem m = { base with Scenario.memory_gb = Some m } in
  (* nan = nan under the cache key: a nan-bearing key must be able to hit
     its own entry (polymorphic (=) would say nan <> nan and miss
     forever). *)
  Alcotest.(check bool) "nan key equals itself" true
    (Scenario.equal (with_mem Float.nan) (with_mem Float.nan));
  Alcotest.(check bool) "(=) disagrees on nan (the bug being designed out)"
    false
    (with_mem Float.nan = with_mem Float.nan);
  Alcotest.(check int) "nan keys hash alike"
    (Scenario.hash (with_mem Float.nan))
    (Scenario.hash (with_mem (Float.of_string "nan")));
  (* -0. = 0.: both spellings are the same capacity, one cache entry. *)
  Alcotest.(check bool) "-0. equals 0." true
    (Scenario.equal (with_mem (-0.)) (with_mem 0.));
  Alcotest.(check int) "-0. hashes as 0."
    (Scenario.hash (with_mem 0.))
    (Scenario.hash (with_mem (-0.)));
  (* name/description/regime are not part of the evaluation context. *)
  let renamed =
    { base with Scenario.name = "other"; description = "x";
      regime = Regime.pre_acr }
  in
  Alcotest.(check bool) "name/description/regime excluded" true
    (Scenario.equal base renamed);
  Alcotest.(check int) "... and hash agrees" (Scenario.hash base)
    (Scenario.hash renamed)

(* --- table-hash spread ---

   [Hashtbl] buckets on the low bits of a key's hash. The raw
   [h * 31 + x] combination carries bits only upward, and the sweeps'
   float axis values have all-zero low mantissa bits, so without
   [Space.mix] a registry round's 14,832 memo keys hash to 112 distinct
   low-16-bit values (chains of ~130 keys), and 4,096 widened points to
   400 low-12-bit values. A random function would give ~13,270 and
   ~2,589. *)

let distinct_low ~bits hashes =
  let seen = Hashtbl.create 4096 in
  List.iter (fun h -> Hashtbl.replace seen (h land ((1 lsl bits) - 1)) ()) hashes;
  Hashtbl.length seen

let t_memo_hash_spread () =
  (* Every distinct (context, point) key of the enumerable registry
     sweeps, hashed as [Eval]'s memo hashes it. *)
  let contexts = ref [] and keys = Hashtbl.create 16384 in
  List.iter
    (fun (s : Scenario.t) ->
      match s.Scenario.target with
      | Scenario.Space sweep when Scenario.size s <= 1_000_000 ->
          let ctx =
            match
              List.find_opt (fun c -> Scenario.context_equal c s) !contexts
            with
            | Some c -> c
            | None ->
                contexts := s :: !contexts;
                s
          in
          let context_hash = Scenario.context_hash ctx in
          List.iter
            (fun p ->
              Hashtbl.replace keys (context_hash, p)
                (Scenario.point_hash ~context_hash p))
            (Space.enumerate sweep)
      | Scenario.Space _ | Scenario.Point _ -> ())
    Scenario.registry;
  let hashes = Hashtbl.fold (fun _ h acc -> h :: acc) keys [] in
  let spread = distinct_low ~bits:16 hashes in
  if spread < 12_000 then
    Alcotest.failf "%d memo keys: only %d distinct low-16-bit hashes"
      (List.length hashes) spread;
  (* The documented equation still holds for a registry point. *)
  let s = Option.get (Scenario.find "fig7-gpt3") in
  let p =
    match s.Scenario.target with
    | Scenario.Space sweep -> List.nth (Space.enumerate sweep) 77
    | Scenario.Point p -> p
  in
  Alcotest.(check int) "point_hash = hash of the point scenario"
    (Scenario.hash { s with Scenario.target = Scenario.Point p })
    (Scenario.point_hash ~context_hash:(Scenario.context_hash s) p)

let t_widened_hash_spread () =
  (* [Adaptive]'s per-search table hashes a point as
     [Space.mix (Space.params_hash p)]. *)
  let rng = Random.State.make [| 42 |] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let w = Space.widened in
  let hashes =
    List.init 4096 (fun _ ->
        let p =
          {
            Space.systolic_dim = pick w.Space.systolic_dims;
            lanes = pick w.Space.lanes_per_core;
            l1 = pick w.Space.l1_kb;
            l2 = pick w.Space.l2_mb;
            memory_bw = pick w.Space.memory_bw_tb_s;
            device_bw = pick w.Space.device_bw_gb_s;
            clock_mhz = pick w.Space.clock_mhz;
          }
        in
        Space.mix (Space.params_hash p))
  in
  let spread = distinct_low ~bits:12 hashes in
  if spread < 2_400 then
    Alcotest.failf "4096 widened points: only %d distinct low-12-bit hashes"
      spread

let t_cache_shares_context () =
  Eval.clear ();
  let base = Option.get (Scenario.find "a100-proxy") in
  let s0 = Eval.stats () in
  let a = Eval.run base in
  let s1 = Eval.stats () in
  (* Same context under a different name and regime: all hits, no work. *)
  let b =
    Eval.run
      { base with Scenario.name = "renamed"; regime = Regime.acr_2022 }
  in
  let s2 = Eval.stats () in
  Alcotest.(check bool) "identical designs" true (a = b);
  Alcotest.(check int) "cold run evaluates" 1
    (s1.Eval.evaluations - s0.Eval.evaluations);
  Alcotest.(check int) "warm run hits" 1 (s2.Eval.hits - s1.Eval.hits);
  Alcotest.(check int) "warm run evaluates nothing" 0
    (s2.Eval.evaluations - s1.Eval.evaluations)

(* --- registry scenarios vs the legacy optional-argument API --- *)

let t_registry_matches_legacy () =
  let s = Option.get (Scenario.find "fig7-gpt3") in
  let via_scenario = Eval.run s in
  let via_legacy =
    Eval.sweep ~model:Model.gpt3_175b ~tpp_target:2400. Space.oct2023
  in
  Alcotest.(check int) "sweep size" 1536 (List.length via_scenario);
  Alcotest.(check bool) "bit-identical to the legacy entry point" true
    (via_scenario = via_legacy);
  (* And the ground truth, bypassing both cache and pool. *)
  let ground =
    Design.evaluate_sweep ~model:Model.gpt3_175b ~tpp_target:2400. Space.oct2023
  in
  Alcotest.(check bool) "bit-identical to Design.evaluate_sweep" true
    (via_scenario = ground)

(* --- Design CSV rows (shared by bench and `acs run`) --- *)

let t_csv_row_shape () =
  let s = Option.get (Scenario.find "a100-proxy") in
  let d = List.hd (Eval.run s) in
  Alcotest.(check int) "row width matches header"
    (List.length Design.csv_header)
    (List.length (Design.csv_row d));
  Alcotest.(check string) "header leads with the swept params" "systolic"
    (List.hd Design.csv_header)

(* --- bench helpers match models by name, not physical identity --- *)

let t_model_matching_by_name () =
  let copy = { Model.gpt3_175b with Model.name = "GPT-3 175B" } in
  Alcotest.(check bool) "copy is not physically equal" false
    (copy == Model.gpt3_175b);
  Alcotest.(check string) "model_tag finds the copy" "gpt3"
    (Acs_experiments.Common.model_tag copy);
  Alcotest.(check string) "llama tag" "llama3"
    (Acs_experiments.Common.model_tag Model.llama3_8b);
  Alcotest.(check string) "unknown models get a sanitized tag" "gpt-2-xl"
    (Acs_experiments.Common.model_tag Model.gpt2_xl);
  let a = Acs_experiments.Common.baseline copy in
  let b = Acs_experiments.Common.baseline Model.gpt3_175b in
  Alcotest.(check bool) "baseline works on structural copies" true (a = b)

let suite =
  [
    test "registry round-trips through JSON" t_registry_round_trip;
    test "registry lookup" t_registry_lookup;
    test "registry shapes" t_registry_shapes;
    test "compliance follows the regime" t_compliance_regimes;
    test "minimal manifest" t_manifest_minimal;
    test "malformed manifests" t_manifest_errors;
    prop_scenario_round_trip;
    prop_scenario_equal_hash;
    test "cache-key float semantics" t_key_float_semantics;
    test "memo key hash spreads over the low bits" t_memo_hash_spread;
    test "adaptive table hash spreads over the low bits" t_widened_hash_spread;
    test "cache shared across renamed contexts" t_cache_shares_context;
    test "registry scenario == legacy sweep" t_registry_matches_legacy;
    test "design csv row shape" t_csv_row_shape;
    test "bench matches models by name" t_model_matching_by_name;
  ]
