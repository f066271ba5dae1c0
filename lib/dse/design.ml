module Area_model = Acs_area.Area_model
module Cost_model = Acs_cost.Cost_model

type t = {
  params : Space.params;
  device : Acs_hardware.Device.t;
  area_mm2 : float;
  sram_mb : float;
  within_reticle : bool;
  spec : Acs_policy.Spec.t;
  die_cost_usd : float;
  good_die_cost_usd : float;
  ttft_s : float;
  tbt_s : float;
}

let process = Cost_model.n7

(* Designs far beyond the reticle limit may not even fit a wafer; give
   them infinite cost instead of failing (they are filtered out as
   non-manufacturable anyway). *)
let die_cost_of_area area_mm2 =
  match Cost_model.die_cost_usd ~process ~die_area_mm2:area_mm2 with
  | cost -> cost
  | exception Invalid_argument _ -> infinity

let fits_reticle area_mm2 = area_mm2 <= Acs_hardware.Presets.reticle_limit_mm2

(* Everything except the latencies is derived deterministically from the
   device, so a design can be reconstituted from (params, device, ttft,
   tbt) alone - the on-disk eval cache stores exactly that and rebuilds a
   bitwise-equal value here. *)
let of_latencies params device ~ttft_s ~tbt_s =
  let area_mm2 = Area_model.total_mm2 device in
  let die_cost_usd = die_cost_of_area area_mm2 in
  let good_die_cost_usd =
    if die_cost_usd = infinity then infinity
    else Cost_model.good_die_cost_usd ~process ~die_area_mm2:area_mm2 ()
  in
  {
    params;
    device;
    area_mm2;
    sram_mb = Area_model.sram_mb device;
    within_reticle = fits_reticle area_mm2;
    spec = Acs_policy.Spec.of_device ~area_mm2 device;
    die_cost_usd;
    good_die_cost_usd;
    ttft_s;
    tbt_s;
  }

let of_result params device (result : Acs_perfmodel.Engine.result) =
  of_latencies params device ~ttft_s:result.Acs_perfmodel.Engine.ttft_s
    ~tbt_s:result.Acs_perfmodel.Engine.tbt_s

let evaluate ?calib ?tp ?request ~model params device =
  of_result params device
    (Acs_perfmodel.Engine.simulate ?calib ?tp ?request device model)

let evaluate_compiled ?calib compiled params device =
  of_result params device
    (Acs_perfmodel.Engine.simulate_compiled ?calib compiled device)

let evaluate_sweep ?calib ?tp ?request ~model ~tpp_target sweep =
  let params = Space.enumerate sweep in
  List.map
    (fun p -> evaluate ?calib ?tp ?request ~model p (Space.build ~tpp_target p))
    params

let manufacturable d = d.within_reticle

let subject d = Acs_policy.Regime.of_device ~area_mm2:d.area_mm2 d.device

let verdict ?market regime d =
  Acs_policy.Regime.verdict ?market regime (subject d)

let compliant_device ?market regime ~area_mm2 device =
  not
    (Acs_policy.Regime.regulated ?market regime
       (Acs_policy.Regime.of_device ~area_mm2 device))

let compliant ?market regime d =
  compliant_device ?market regime ~area_mm2:d.area_mm2 d.device

let compliant_2023 = compliant Acs_policy.Regime.acr_2023

let ttft_cost_product d = Acs_util.Units.to_ms d.ttft_s *. d.die_cost_usd
let tbt_cost_product d = Acs_util.Units.to_ms d.tbt_s *. d.die_cost_usd

(* The standard design CSV: one row per evaluated design point. Shared by
   the bench sections and `acs run` so a registry scenario and its bench
   section emit byte-identical rows. *)

let csv_header =
  [
    "systolic"; "lanes"; "l1_kb"; "l2_mb"; "membw_tb_s"; "devbw_gb_s";
    "area_mm2"; "pd"; "ttft_ms"; "tbt_ms"; "die_cost_usd"; "acr2023_dc";
    "within_reticle";
  ]

let csv_row d =
  let ms s = Acs_util.Units.to_ms s in
  [
    string_of_int d.params.Space.systolic_dim;
    string_of_int d.params.Space.lanes;
    Printf.sprintf "%.0f" d.params.Space.l1;
    Printf.sprintf "%.0f" d.params.Space.l2;
    Printf.sprintf "%.1f" d.params.Space.memory_bw;
    Printf.sprintf "%.0f" d.params.Space.device_bw;
    Printf.sprintf "%.1f" d.area_mm2;
    Printf.sprintf "%.2f" (Acs_policy.Spec.performance_density d.spec);
    Printf.sprintf "%.4f" (ms d.ttft_s);
    Printf.sprintf "%.5f" (ms d.tbt_s);
    Printf.sprintf "%.2f" d.die_cost_usd;
    Acs_policy.Regime.verdict_to_string (verdict Acs_policy.Regime.acr_2023 d);
    string_of_bool d.within_reticle;
  ]

let pp ppf d =
  Format.fprintf ppf
    "%dx%d x%d lanes, L1 %.0fKB, L2 %.0fMB, %.1fTB/s, %.0fGB/s: %.0f mm^2, \
     TTFT %.4g ms, TBT %.4g ms, $%.0f"
    d.params.Space.systolic_dim d.params.Space.systolic_dim
    d.params.Space.lanes d.params.Space.l1 d.params.Space.l2
    d.params.Space.memory_bw d.params.Space.device_bw d.area_mm2
    (Acs_util.Units.to_ms d.ttft_s)
    (Acs_util.Units.to_ms d.tbt_s)
    d.die_cost_usd
