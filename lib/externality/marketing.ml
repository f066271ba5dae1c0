module Gpu = Acs_devicedb.Gpu
module Regime = Acs_policy.Regime

type status = Consistent | False_data_center | False_non_data_center

let opposite = function
  | Regime.Data_center -> Regime.Non_data_center
  | Regime.Non_data_center -> Regime.Data_center

let rebranded_tier gpu =
  Gpu.verdict ~market:(opposite (Gpu.marketing_market gpu)) Regime.acr_2023 gpu

let status gpu =
  let current = Gpu.verdict Regime.acr_2023 gpu in
  let rebranded = rebranded_tier gpu in
  let regulated v = v <> Regime.Unregulated in
  match Gpu.marketing_market gpu with
  | Regime.Data_center ->
      if regulated current && not (regulated rebranded) then False_data_center
      else Consistent
  | Regime.Non_data_center ->
      if (not (regulated current)) && regulated rebranded then
        False_non_data_center
      else Consistent

type analysis = {
  consistent_dc : Gpu.t list;
  false_dc : Gpu.t list;
  consistent_ndc : Gpu.t list;
  false_ndc : Gpu.t list;
}

let analyze gpus =
  let is_dc g = Gpu.marketing_market g = Regime.Data_center in
  let part pred = List.partition pred in
  let dc, ndc = part is_dc gpus in
  let false_dc, consistent_dc =
    part (fun g -> status g = False_data_center) dc
  in
  let false_ndc, consistent_ndc =
    part (fun g -> status g = False_non_data_center) ndc
  in
  { consistent_dc; false_dc; consistent_ndc; false_ndc }

let status_to_string = function
  | Consistent -> "Consistent"
  | False_data_center -> "False DC"
  | False_non_data_center -> "False NDC"
