module Gpu = Acs_devicedb.Gpu
module Regime = Acs_policy.Regime

type status = Consistent | False_data_center | False_non_data_center

let status gpu =
  match (Gpu.marketing_market gpu, Gpu.architectural_market gpu) with
  | Regime.Data_center, Regime.Data_center
  | Regime.Non_data_center, Regime.Non_data_center ->
      Consistent
  | Regime.Data_center, Regime.Non_data_center -> False_data_center
  | Regime.Non_data_center, Regime.Data_center -> False_non_data_center

type analysis = {
  consistent_dc : Gpu.t list;
  false_dc : Gpu.t list;
  consistent_ndc : Gpu.t list;
  false_ndc : Gpu.t list;
}

let analyze gpus =
  let dc, ndc =
    List.partition (fun g -> Gpu.marketing_market g = Regime.Data_center) gpus
  in
  let false_dc, consistent_dc =
    List.partition (fun g -> status g = False_data_center) dc
  in
  let false_ndc, consistent_ndc =
    List.partition (fun g -> status g = False_non_data_center) ndc
  in
  { consistent_dc; false_dc; consistent_ndc; false_ndc }

let status_to_string = function
  | Consistent -> "Consistent"
  | False_data_center -> "False DC"
  | False_non_data_center -> "False NDC"
