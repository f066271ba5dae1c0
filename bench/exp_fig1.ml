(* Figures 1a, 1b and 2: classification of real devices under the October
   2022 and October 2023 rules, plus the die-area view of the PD floor. *)

open Core
open Common

let marker = function
  | Regime.License -> 'L'
  | Regime.Nac -> 'N'
  | Regime.Unregulated -> 'o'

let area_floor tpp = Regime.area_floor Regime.acr_2023 ~tpp

let run_fig1a () =
  section "Figure 1a: device classification under October 2022 rules";
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Left ]
      [ "device"; "dev BW (GB/s)"; "TPP"; "classification" ]
  in
  let plot = Scatter.create ~xlabel:"device bandwidth (GB/s)" ~ylabel:"TPP" () in
  let rows =
    List.map
      (fun g ->
        let c = Gpu.verdict Regime.acr_2022 g in
        Scatter.add plot ~marker:(marker c) ~x:g.Gpu.device_bw_gb_s ~y:g.Gpu.tpp;
        Table.add_row t
          [
            g.Gpu.name;
            Printf.sprintf "%.0f" g.Gpu.device_bw_gb_s;
            Printf.sprintf "%.0f" g.Gpu.tpp;
            Regime.verdict_to_string c;
          ];
        [
          g.Gpu.name;
          Printf.sprintf "%.0f" g.Gpu.device_bw_gb_s;
          Printf.sprintf "%.0f" g.Gpu.tpp;
          Regime.verdict_to_string c;
        ])
      Database.flagships_2022
  in
  Table.print t;
  Scatter.print
    ~legend:[ ('L', "license required"); ('o', "not applicable") ]
    plot;
  csv "fig1a.csv" [ "device"; "device_bw_gb_s"; "tpp"; "classification" ] rows

let run_fig1b () =
  section "Figure 1b: device classification under October 2023 rules";
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Left ]
      [ "device"; "PD (TPP/mm2)"; "TPP"; "classification" ]
  in
  let plot = Scatter.create ~xlabel:"performance density" ~ylabel:"TPP" () in
  let rows =
    List.map
      (fun g ->
        let c = Gpu.verdict Regime.acr_2023 g in
        let pd = Gpu.performance_density g in
        Scatter.add plot ~marker:(marker c) ~x:pd ~y:g.Gpu.tpp;
        let row =
          [
            g.Gpu.name;
            Printf.sprintf "%.2f" pd;
            Printf.sprintf "%.0f" g.Gpu.tpp;
            Regime.verdict_to_string c;
          ]
        in
        Table.add_row t row;
        row)
      Database.flagships_2023
  in
  Table.print t;
  Scatter.print
    ~legend:
      [ ('L', "license required"); ('N', "NAC eligible"); ('o', "not applicable") ]
    plot;
  csv "fig1b.csv" [ "device"; "pd"; "tpp"; "classification" ] rows

let run_fig2 () =
  section "Figure 2: die area vs TPP (the PD rule as an area floor)";
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Left; Table.Right ]
      [ "device"; "die area (mm2)"; "TPP"; "classification"; "area floor to be unregulated" ]
  in
  let rows =
    List.map
      (fun g ->
        let c = Gpu.verdict Regime.acr_2023 g in
        let floor_ =
          match area_floor g.Gpu.tpp with
          | None -> "impossible"
          | Some a when a = 0. -> "none"
          | Some a -> Printf.sprintf "%.0f mm2" a
        in
        let row =
          [
            g.Gpu.name;
            Printf.sprintf "%.0f" g.Gpu.die_area_mm2;
            Printf.sprintf "%.0f" g.Gpu.tpp;
            Regime.verdict_to_string c;
            floor_;
          ]
        in
        Table.add_row t row;
        row)
      Database.flagships_2023
  in
  Table.print t;
  note
    "Sec 2.5 floors: 2399 TPP needs > %.0f mm2; 1600 TPP needs > %.0f mm2; a \
     4799 TPP design needs > %.0f mm2 (3.5x the reticle limit)."
    (Option.get (area_floor 2399.))
    (Option.get (area_floor 1600.))
    (Option.get (area_floor 4799.));
  csv "fig2.csv"
    [ "device"; "die_area_mm2"; "tpp"; "classification"; "min_unregulated_area" ]
    rows

let run () =
  run_fig1a ();
  run_fig1b ();
  run_fig2 ()
