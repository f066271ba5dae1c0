(* The sanction-regime DSL: predicate semantics, bit-identity of the
   registry values against the historical rules, JSON round-trips,
   tightening monotonicity, and evaluation scope.

   The bit-identity tests transcribe the ORIGINAL decision logic of each
   rule inline (thresholds and all); if someone edits a registry value,
   these fail. *)

open Core
open Helpers

let spec ?(area = 800.) ?(non_planar = true) tpp bw =
  Spec.make ~non_planar ~tpp ~device_bw_gb_s:bw ~die_area_mm2:area ()

(* --- predicate semantics --- *)

let t_pred_semantics () =
  let s = Regime.of_spec (spec 2000. 600.) in
  let holds p = Regime.holds p s in
  Alcotest.(check bool) "at_least hit" true (holds (Regime.at_least Regime.Tpp 2000.));
  Alcotest.(check bool) "above is strict" false (holds (Regime.above Regime.Tpp 2000.));
  Alcotest.(check bool) "all_of [] is true" true (holds (Regime.all_of []));
  Alcotest.(check bool) "any_of [] is false" false (holds (Regime.any_of []));
  Alcotest.(check bool) "always" true (holds Regime.always);
  Alcotest.(check bool) "never" false (holds Regime.never);
  (* Quantities the subject does not report: lower bounds are false
     (absence never regulates), upper bounds hold vacuously. *)
  Alcotest.(check bool) "missing quantity: at_least false" false
    (holds (Regime.at_least Regime.L1_kb 0.));
  Alcotest.(check bool) "missing quantity: at_most vacuous" true
    (holds (Regime.at_most Regime.L1_kb 32.));
  check_raises_invalid "negative threshold" (fun () ->
      ignore (Regime.at_least Regime.Tpp (-1.)));
  check_raises_invalid "nan threshold" (fun () ->
      ignore (Regime.above Regime.Tpp Float.nan))

let t_verdict_severity () =
  (* Two rules fire: the most severe verdict wins, regardless of order. *)
  let r =
    Regime.make "sev"
      [
        Regime.rule Regime.Nac (Regime.at_least Regime.Tpp 100.);
        Regime.rule Regime.License (Regime.at_least Regime.Tpp 200.);
      ]
  in
  let v tpp = Regime.verdict r (Regime.of_spec (spec tpp 0.)) in
  Alcotest.(check bool) "below both" true (v 50. = Regime.Unregulated);
  Alcotest.(check bool) "nac tier" true (v 150. = Regime.Nac);
  Alcotest.(check bool) "license wins" true (v 250. = Regime.License);
  (* Market filter: a rule scoped to one market never fires in the other. *)
  let m =
    Regime.make "mkt"
      [
        Regime.rule ~market:Regime.Data_center Regime.License
          (Regime.at_least Regime.Tpp 100.);
      ]
  in
  Alcotest.(check bool) "dc fires" true
    (Regime.verdict ~market:Regime.Data_center m (Regime.of_spec (spec 150. 0.))
    = Regime.License);
  Alcotest.(check bool) "non-dc exempt" true
    (Regime.verdict ~market:Regime.Non_data_center m
       (Regime.of_spec (spec 150. 0.))
    = Regime.Unregulated)

(* --- bit-identity: October 2022 --- *)

let t_identity_acr2022 () =
  (* Original logic: license iff TPP >= 4800 and device BW >= 600. *)
  let legacy (s : Spec.t) =
    if s.Spec.tpp >= 4800. && s.Spec.device_bw_gb_s >= 600. then
      Regime.License
    else Regime.Unregulated
  in
  List.iter
    (fun g ->
      let s = Gpu.spec g in
      Alcotest.(check bool)
        (g.Gpu.name ^ " dsl") true
        (Regime.verdict Regime.acr_2022 (Regime.of_spec s) = legacy s))
    Database.all;
  (* Boundary points the device DB might miss. *)
  List.iter
    (fun (tpp, bw, licensed) ->
      Alcotest.(check bool)
        (Printf.sprintf "tpp=%.0f bw=%.0f" tpp bw)
        licensed
        (Regime.verdict Regime.acr_2022 (Regime.of_spec (spec tpp bw))
        = Regime.License))
    [
      (4800., 600., true); (4799., 600., false); (4800., 599., false);
      (1e6, 1e4, true); (0., 0., false);
    ]

(* --- bit-identity: October 2023, both markets --- *)

let t_identity_acr2023 () =
  (* Original chain, thresholds inline. *)
  let legacy market (s : Spec.t) =
    let tpp = s.Spec.tpp in
    let pd = Spec.performance_density s in
    match market with
    | Regime.Non_data_center ->
        if tpp >= 4800. then Regime.Nac else Regime.Unregulated
    | Regime.Data_center ->
        if tpp >= 4800. || (tpp >= 1600. && pd >= 5.92) then Regime.License
        else if
          (tpp >= 2400. && pd >= 1.6 && pd < 5.92)
          || (tpp >= 1600. && pd >= 3.2 && pd < 5.92)
        then Regime.Nac
        else Regime.Unregulated
  in
  (* The original Fig. 2 area floor: TPP over the PD line of the first
     data-center tier the TPP reaches. *)
  let legacy_floor tpp =
    if tpp >= 4800. then None
    else if tpp >= 2400. then Some (tpp /. 1.6)
    else if tpp >= 1600. then Some (tpp /. 3.2)
    else Some 0.
  in
  let crossings = [ 1599.; 1600.; 2399.; 2400.; 4799.; 4800.; 15000. ] in
  let specs =
    List.map Gpu.spec Database.all
    (* A planar + synthetic grid around every threshold crossing. *)
    @ [ spec ~non_planar:false 4992. 600. ]
    @ List.concat_map
        (fun tpp ->
          List.map
            (fun area -> spec ~area tpp 600.)
            [ 100.; 270.; 500.; 755.; 1000.; 1500.; 3001. ])
        crossings
  in
  List.iter
    (fun s ->
      List.iter
        (fun market ->
          let name =
            Printf.sprintf "tpp=%.0f area=%.0f %s" s.Spec.tpp
              s.Spec.die_area_mm2
              (Regime.market_to_string market)
          in
          Alcotest.(check bool) (name ^ " dsl") true
            (Regime.verdict ~market Regime.acr_2023 (Regime.of_spec s)
            = legacy market s))
        [ Regime.Data_center; Regime.Non_data_center ])
    specs;
  List.iter
    (fun tpp ->
      let bits = Option.map Int64.bits_of_float in
      Alcotest.(check bool)
        (Printf.sprintf "area floor at tpp=%.0f" tpp)
        true
        (bits (Regime.area_floor Regime.acr_2023 ~tpp) = bits (legacy_floor tpp)))
    (crossings @ List.init 201 (fun i -> 100. *. float_of_int i))

(* --- bit-identity: December 2024 HBM --- *)

let t_identity_hbm () =
  let legacy d =
    if d <= 2.0 then Regime.Unregulated
    else if d < 3.3 then Regime.Nac
    else Regime.License
  in
  List.iter
    (fun d ->
      (* Density [d] as [d] GB/s of memory bandwidth over 1 mm^2; the
         regime must measure exactly [d]. *)
      let subject =
        Regime.subject ~memory_bw_tb_s:(d /. 1000.)
          (Spec.make ~tpp:0. ~device_bw_gb_s:0. ~die_area_mm2:1. ())
      in
      let name = Printf.sprintf "density %.5f" d in
      Alcotest.(check bool) (name ^ " measured") true
        (Regime.measure subject Regime.Bw_density_gb_s_mm2 = Some d);
      Alcotest.(check bool) name true
        (Regime.verdict Regime.hbm_2024 subject = legacy d))
    [ -1.; 0.; 1.99; 2.0; 2.00001; 2.78; 3.29; 3.2999; 3.3; 3.31; 11.17 ];
  (* The regime sees real packages through memory bandwidth over area. *)
  let v bw area =
    Regime.verdict Regime.hbm_2024
      (Regime.subject ~memory_bw_tb_s:(bw /. 1000.)
         (Spec.make ~tpp:0. ~device_bw_gb_s:0. ~die_area_mm2:area ()))
  in
  Alcotest.(check bool) "HBM2 184/92 -> exception tier" true (v 184. 92. = Regime.Unregulated);
  Alcotest.(check bool) "HBM2 256/92 -> nac" true (v 256. 92. = Regime.Nac);
  Alcotest.(check bool) "HBM3e 1229/110 -> license" true (v 1229. 110. = Regime.License)

(* --- bit-identity: diffusion single-order tiers --- *)

let t_identity_diffusion () =
  let order units tpp = { Diffusion_2025.consignee = "c"; device_tpp = tpp; units } in
  let verdict_of = function
    | Diffusion_2025.Within_lpp_exception -> Regime.Unregulated
    | Diffusion_2025.Within_allocation -> Regime.Nac
    | Diffusion_2025.Exceeds_allocation -> Regime.License
  in
  List.iter
    (fun (units, tpp) ->
      let o = order units tpp in
      (* Fresh ledger per order: the regime models the stateless tier of a
         first order; cumulative accounting stays in Diffusion_2025. *)
      let ledger = Diffusion_2025.create () in
      let expect = verdict_of (Diffusion_2025.classify ledger o) in
      let subject =
        Regime.of_spec
          (Spec.make ~tpp:(Diffusion_2025.order_tpp o) ~device_bw_gb_s:0.
             ~die_area_mm2:1. ())
      in
      Alcotest.(check bool)
        (Printf.sprintf "%d x %.0f" units tpp)
        true
        (Regime.verdict Regime.diffusion_2025 subject = expect))
    [
      (1, 4800.); (1_500, 15824.); (1_700, 15824.); (25_000, 15824.);
      (49_000, 15824.); (50_000, 15824.); (1, 26.9e6); (2, 400e6);
    ]

(* --- bit-identity: the Sec. 5 proposals --- *)

let t_identity_proposals () =
  let pairs =
    [
      (Regime.proposal_tpp_4800, Proposals.tpp_only 4800.);
      (Regime.proposal_ai_targeted, Proposals.ai_targeted);
      (Regime.proposal_gaming_carveout, Proposals.gaming_carveout);
    ]
  in
  List.iter
    (fun g ->
      let dev = Gpu.to_template g in
      List.iter
        (fun ((regime : Regime.t), limits) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s on %s" regime.Regime.name g.Gpu.name)
            (not (Proposals.compliant ~memory_gb:g.Gpu.memory_gb limits dev))
            (Regime.regulated regime
               (Regime.of_device ~memory_gb:g.Gpu.memory_gb dev)))
        pairs)
    Database.all

(* --- timeline equivalence at era boundaries --- *)

let t_timeline_boundaries () =
  let a100 = spec ~area:826. 4992. 600. in
  let check_at y m expect =
    let d = Timeline.date y m in
    let ruling = Timeline.classify_at d ~market:Regime.Data_center a100 in
    Alcotest.(check string)
      (Printf.sprintf "%d-%02d" y m)
      expect
      (Timeline.ruling_to_string ruling)
  in
  check_at 2022 9 "unregulated";
  check_at 2022 10 "license required";
  check_at 2023 9 "license required";
  check_at 2023 10 "license required";
  check_at 2026 1 "license required";
  (* The schedule view agrees with the era enum at every boundary. *)
  List.iter
    (fun (y, m) ->
      let d = Timeline.date y m in
      let via_enum = Timeline.to_value (Timeline.regime_at d) in
      let via_schedule =
        Option.value (Timeline.regime_in_force d) ~default:Regime.pre_acr
      in
      Alcotest.(check bool)
        (Printf.sprintf "in force %d-%02d" y m)
        true
        (Regime.equal via_enum via_schedule))
    [ (2021, 1); (2022, 9); (2022, 10); (2023, 9); (2023, 10); (2025, 6) ]

let t_schedule_validation () =
  let d22 = Timeline.date 2022 10 and d23 = Timeline.date 2023 10 in
  check_raises_invalid "duplicate dates" (fun () ->
      ignore (Timeline.schedule [ (d22, Regime.acr_2022); (d22, Regime.acr_2023) ]));
  (* Out-of-order input is sorted, not rejected. *)
  let s = Timeline.schedule [ (d23, Regime.acr_2023); (d22, Regime.acr_2022) ] in
  Alcotest.(check bool) "sorted: 2022 rule in force mid-2023" true
    (Regime.equal
       (Option.get (Timeline.regime_in_force ~schedule:s (Timeline.date 2023 5)))
       Regime.acr_2022);
  Alcotest.(check bool) "empty schedule: nothing in force" true
    (Timeline.regime_in_force ~schedule:(Timeline.schedule []) (Timeline.date 2024 1)
    = None)

(* --- scope: per-package vs per-die --- *)

let t_scope () =
  let cores =
    Device.cores_for_tpp ~tpp:1199. ~lanes_per_core:2
      ~systolic:(Systolic.square 16) ()
  in
  let die =
    Device.make ~name:"die" ~core_count:cores ~lanes_per_core:2
      ~systolic:(Systolic.square 16) ~l1_kb:192. ~l2_mb:16.
      ~memory:(Memory.make ~capacity_gb:24. ~bandwidth_tb_s:0.8)
      ~interconnect:(Interconnect.of_total_gb_s 200.)
      ()
  in
  let pkg =
    Package.make ~name:"mcm" ~compute_die:die ~compute_die_area_mm2:400.
      ~compute_dies:4 ()
  in
  let per_package =
    Regime.classify_package ~device_bw_gb_s:800. Regime.acr_2023 pkg
  in
  let per_die =
    Regime.classify_package ~device_bw_gb_s:800.
      (Regime.with_scope Regime.Per_die Regime.acr_2023)
      pkg
  in
  (* Four ~1178-TPP dies aggregate into NAC territory, but each die alone
     is under every 2023 floor: the chiplet evasion the scope lever
     models. *)
  Alcotest.(check bool) "package caught" true (per_package <> Regime.Unregulated);
  Alcotest.(check bool) "dies escape" true (per_die = Regime.Unregulated)

(* --- threshold queries --- *)

let t_threshold () =
  let get ?verdict r q = Regime.threshold ?verdict r q in
  check_close "acr-2022 tpp line" 4800.
    (Option.get (get Regime.acr_2022 Regime.Tpp));
  check_close "acr-2022 bw line" 600.
    (Option.get (get Regime.acr_2022 Regime.Device_bw_gb_s));
  check_close "acr-2023 lowest tpp floor" 1600.
    (Option.get (get Regime.acr_2023 Regime.Tpp));
  check_close "hbm nac line" 2.0
    (Option.get (get ~verdict:Regime.Nac Regime.hbm_2024 Regime.Bw_density_gb_s_mm2));
  check_close "hbm license line" 3.3
    (Option.get (get ~verdict:Regime.License Regime.hbm_2024 Regime.Bw_density_gb_s_mm2));
  Alcotest.(check bool) "pre-acr has no tpp line" true
    (get Regime.pre_acr Regime.Tpp = None);
  Alcotest.(check bool) "acr-2022 says nothing about L1" true
    (get Regime.acr_2022 Regime.L1_kb = None)

let t_find () =
  Alcotest.(check bool) "by name" true
    (Regime.equal (Option.get (Regime.find "acr-2023")) Regime.acr_2023);
  Alcotest.(check bool) "case-insensitive" true
    (Regime.equal (Option.get (Regime.find "ACR-2023")) Regime.acr_2023);
  Alcotest.(check bool) "legacy token oct2022" true
    (Regime.equal (Option.get (Regime.find "oct2022")) Regime.acr_2022);
  Alcotest.(check bool) "legacy token pre_acr" true
    (Regime.equal (Option.get (Regime.find "pre_acr")) Regime.pre_acr);
  Alcotest.(check bool) "unknown" true (Regime.find "acr-1999" = None)

(* --- JSON --- *)

let t_json_registry_roundtrip () =
  List.iter
    (fun (r : Regime.t) ->
      Alcotest.(check bool)
        (r.Regime.name ^ " roundtrips")
        true
        (Regime.equal (Regime.of_json (Regime.to_json r)) r))
    Regime.registry

let t_json_errors () =
  let bad s =
    match Regime.of_json (Json.of_string s) with
    | exception Json.Error _ -> ()
    | _ -> Alcotest.failf "expected Json.Error on %s" s
  in
  bad {|{"rules": []}|};
  (* no name *)
  bad {|{"name": "x", "rules": [{"verdict": "license", "when": {"q": "tpp", "ge": -1}}]}|};
  bad {|{"name": "x", "rules": [{"verdict": "maybe", "when": {"q": "tpp", "ge": 1}}]}|};
  bad {|{"name": "x", "effective": "october", "rules": []}|};
  bad {|{"name": "x", "scope": "per-core", "rules": []}|}

(* --- qcheck: random regimes round-trip; tightening is monotone --- *)

let quantity_gen =
  QCheck.Gen.oneofl
    [
      Regime.Tpp; Regime.Performance_density; Regime.Device_bw_gb_s;
      Regime.Die_area_mm2; Regime.Bw_density_gb_s_mm2; Regime.Memory_bw_tb_s;
      Regime.Memory_gb; Regime.Systolic_dim; Regime.L1_kb; Regime.L2_mb;
    ]

let bound_gen =
  (* Exact binary fractions so float round-trips are never in question
     for the monotonicity division; the codec's own exactness is covered
     by the awkward values below. *)
  QCheck.Gen.oneofl [ 0.; 0.5; 1.; 1.5; 2.; 3.3; 5.92; 26.9e6; 790e6; 4800. ]

let rec pred_gen depth =
  let open QCheck.Gen in
  let atom =
    let* q = quantity_gen in
    let* v = bound_gen in
    oneofl [ Regime.at_least q v; Regime.above q v ]
  in
  if depth = 0 then atom
  else
    frequency
      [
        (3, atom);
        (1, map Regime.all_of (list_size (int_range 0 3) (pred_gen (depth - 1))));
        (1, map Regime.any_of (list_size (int_range 0 3) (pred_gen (depth - 1))));
        (1, map Regime.not_ (pred_gen (depth - 1)));
      ]

let regime_gen =
  let open QCheck.Gen in
  let rule_gen =
    let* market = oneofl [ None; Some Regime.Data_center; Some Regime.Non_data_center ] in
    let* verdict = oneofl [ Regime.Nac; Regime.License ] in
    let* requires = pred_gen 2 in
    return { Regime.market; verdict; requires }
  in
  let* name = oneofl [ "r"; "draft-1"; "x_y" ] in
  let* description = oneofl [ ""; "a draft" ] in
  let* effective =
    oneofl [ None; Some (Regime.date 2022 10); Some (Regime.date 2025 1) ]
  in
  let* scope = oneofl [ Regime.Per_die; Regime.Per_package ] in
  let* rules = list_size (int_range 0 4) rule_gen in
  return
    (Regime.with_scope scope
       (Regime.make ~description ?effective name rules))

let regime_arb =
  QCheck.make
    ~print:(fun r -> Json.to_string ~indent:2 (Regime.to_json r))
    regime_gen

let subject_gen =
  let open QCheck.Gen in
  let* tpp = oneofl [ 0.; 1599.; 1600.; 2400.; 4800.; 15824.; 27e6 ] in
  let* bw = oneofl [ 0.; 400.; 600.; 900. ] in
  let* area = oneofl [ 1.; 100.; 755.; 3000. ] in
  let* non_planar = bool in
  let* membw = oneofl [ None; Some 0.8; Some 3.35 ] in
  let* memgb = oneofl [ None; Some 24.; Some 80. ] in
  let* dim = oneofl [ None; Some 4; Some 16 ] in
  let* l1 = oneofl [ None; Some 32.; Some 192. ] in
  let* l2 = oneofl [ None; Some 8.; Some 40. ] in
  return
    {
      Regime.spec = spec ~area ~non_planar tpp bw;
      memory_bw_tb_s = membw;
      memory_gb = memgb;
      systolic_dim = dim;
      l1_kb = l1;
      l2_mb = l2;
    }

let t_qcheck_json_roundtrip =
  qcheck ~count:300 "Regime.of_json (to_json r) = r" regime_arb (fun r ->
      Regime.equal (Regime.of_json (Regime.to_json r)) r)

(* Awkward float thresholds must survive the printer exactly. *)
let t_json_awkward_floats () =
  List.iter
    (fun v ->
      let r =
        Regime.make "awkward" [ Regime.rule Regime.License (Regime.above Regime.Tpp v) ]
      in
      Alcotest.(check bool)
        (Printf.sprintf "%.17g roundtrips" v)
        true
        (Regime.equal (Regime.of_json (Regime.to_json r)) r))
    [ 0.1; 5.92; 2.0000000000000004; 1e-300; 26.9e6; Float.max_float ]

let verdict_rank = function
  | Regime.Unregulated -> 0
  | Regime.Nac -> 1
  | Regime.License -> 2

let t_qcheck_tighten_monotone =
  qcheck ~count:400 "tighten never un-regulates"
    (QCheck.pair regime_arb
       (QCheck.make
          ~print:(fun (f, _) -> string_of_float f)
          QCheck.Gen.(pair (oneofl [ 0.25; 0.5; 0.75; 1. ]) subject_gen)))
    (fun (r, (factor, subject)) ->
      List.for_all
        (fun market ->
          verdict_rank (Regime.verdict ~market (Regime.tighten ~factor r) subject)
          >= verdict_rank (Regime.verdict ~market r subject))
        [ Regime.Data_center; Regime.Non_data_center ])

let t_tighten_validation () =
  check_raises_invalid "factor 0" (fun () ->
      ignore (Regime.tighten ~factor:0. Regime.acr_2022));
  check_raises_invalid "factor > 1" (fun () ->
      ignore (Regime.tighten ~factor:1.5 Regime.acr_2022));
  (* factor 1 is the identity *)
  Alcotest.(check bool) "factor 1 = id" true
    (Regime.equal (Regime.tighten ~factor:1. Regime.acr_2023) Regime.acr_2023)

let suite =
  [
    test "predicate semantics" t_pred_semantics;
    test "verdict severity and market filter" t_verdict_severity;
    test "bit-identity: acr-2022 over device DB" t_identity_acr2022;
    test "bit-identity: acr-2023 over device DB and grid" t_identity_acr2023;
    test "bit-identity: hbm-2024 density tiers" t_identity_hbm;
    test "bit-identity: diffusion-2025 order tiers" t_identity_diffusion;
    test "bit-identity: Sec. 5 proposals" t_identity_proposals;
    test "timeline boundaries" t_timeline_boundaries;
    test "schedule validation" t_schedule_validation;
    test "per-die vs per-package scope" t_scope;
    test "threshold queries" t_threshold;
    test "registry lookup and aliases" t_find;
    test "registry JSON round-trip" t_json_registry_roundtrip;
    test "JSON rejects malformed regimes" t_json_errors;
    test "JSON round-trips awkward floats" t_json_awkward_floats;
    t_qcheck_json_roundtrip;
    test "tighten validation" t_tighten_validation;
    t_qcheck_tighten_monotone;
  ]
