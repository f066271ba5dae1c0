(* Table 1: the Advanced Computing Rule definitions, printed from the
   regime registry and exercised against the device survey. *)

open Core
open Common

let run () =
  section "Table 1: Advanced Computing Rule definitions";
  List.iter
    (fun r -> Format.printf "%a@." Regime.pp r)
    [ Regime.acr_2022; Regime.acr_2023; Regime.hbm_2024 ];
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Left; Table.Left; Table.Left ]
      [ "device"; "segment"; "Oct 2022"; "Oct 2023" ]
  in
  let rows =
    List.map
      (fun g ->
        let row =
          [
            g.Gpu.name;
            Gpu.segment_to_string g.Gpu.segment;
            Regime.verdict_to_string (Gpu.verdict Regime.acr_2022 g);
            Regime.verdict_to_string (Gpu.verdict Regime.acr_2023 g);
          ]
        in
        Table.add_row t row;
        row)
      Database.survey
  in
  Table.print ~title:"Classification of the 65-device survey" t;
  csv "table1_classifications.csv"
    [ "device"; "segment"; "oct2022"; "oct2023" ]
    rows
