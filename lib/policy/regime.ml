module Json = Acs_util.Json
module Units = Acs_util.Units
module Device = Acs_hardware.Device
module Memory = Acs_hardware.Memory
module Systolic = Acs_hardware.Systolic
module Package = Acs_hardware.Package

(* Dates *)

type date = { year : int; month : int }

let date year month =
  if month < 1 || month > 12 then invalid_arg "Regime.date: month";
  { year; month }

let compare_date a b = compare (a.year, a.month) (b.year, b.month)
let pp_date ppf d = Format.fprintf ppf "%04d-%02d" d.year d.month

(* Markets and verdicts *)

type market = Data_center | Non_data_center
type verdict = Unregulated | Nac | License

let verdict_rank = function Unregulated -> 0 | Nac -> 1 | License -> 2
let compare_verdict a b = compare (verdict_rank a) (verdict_rank b)

let verdict_to_string = function
  | Unregulated -> "Not Applicable"
  | Nac -> "NAC Eligible"
  | License -> "License Required"

let market_to_string = function
  | Data_center -> "data center"
  | Non_data_center -> "non-data center"

(* Quantities and subjects *)

type quantity =
  | Tpp
  | Performance_density
  | Device_bw_gb_s
  | Die_area_mm2
  | Bw_density_gb_s_mm2
  | Memory_bw_tb_s
  | Memory_gb
  | Systolic_dim
  | L1_kb
  | L2_mb

let quantity_to_string = function
  | Tpp -> "tpp"
  | Performance_density -> "pd"
  | Device_bw_gb_s -> "device_bw_gb_s"
  | Die_area_mm2 -> "die_area_mm2"
  | Bw_density_gb_s_mm2 -> "bw_density_gb_s_mm2"
  | Memory_bw_tb_s -> "memory_bw_tb_s"
  | Memory_gb -> "memory_gb"
  | Systolic_dim -> "systolic_dim"
  | L1_kb -> "l1_kb"
  | L2_mb -> "l2_mb"

let quantities =
  [
    Tpp; Performance_density; Device_bw_gb_s; Die_area_mm2;
    Bw_density_gb_s_mm2; Memory_bw_tb_s; Memory_gb; Systolic_dim; L1_kb;
    L2_mb;
  ]

let quantity_of_token tok =
  match
    List.find_opt (fun q -> quantity_to_string q = tok) quantities
  with
  | Some q -> q
  | None -> raise (Json.Error ("Regime: unknown quantity " ^ tok))

type subject = {
  spec : Spec.t;
  memory_bw_tb_s : float option;
  memory_gb : float option;
  systolic_dim : int option;
  l1_kb : float option;
  l2_mb : float option;
}

let of_spec spec =
  {
    spec;
    memory_bw_tb_s = None;
    memory_gb = None;
    systolic_dim = None;
    l1_kb = None;
    l2_mb = None;
  }

let subject ?memory_bw_tb_s ?memory_gb ?systolic_dim ?l1_kb ?l2_mb spec =
  { spec; memory_bw_tb_s; memory_gb; systolic_dim; l1_kb; l2_mb }

(* Architectural quantities of a device template, matching the units
   [Proposals.violations] checks them in. *)
let with_arch ?memory_gb spec (dev : Device.t) =
  {
    spec;
    memory_bw_tb_s = Some (Device.memory_bandwidth dev /. Units.tera);
    memory_gb =
      Some
        (match memory_gb with
        | Some g -> g
        | None -> dev.Device.memory.Memory.capacity_bytes /. Units.giga);
    systolic_dim =
      Some (max dev.Device.systolic.Systolic.dim_x dev.Device.systolic.Systolic.dim_y);
    l1_kb = Some (dev.Device.l1_bytes /. Units.kilo);
    l2_mb = Some (dev.Device.l2_bytes /. Units.mega);
  }

let of_device ?area_mm2 ?memory_gb dev =
  with_arch ?memory_gb (Spec.of_device ?area_mm2 dev) dev

let of_package ?device_bw_gb_s pkg =
  let die = pkg.Package.compute_die in
  let n = float_of_int pkg.Package.compute_dies in
  let per_die = with_arch (Spec.of_package ?device_bw_gb_s pkg) die in
  {
    per_die with
    memory_bw_tb_s = Option.map (fun bw -> bw *. n) per_die.memory_bw_tb_s;
    memory_gb = Option.map (fun g -> g *. n) per_die.memory_gb;
  }

let measure s = function
  | Tpp -> Some s.spec.Spec.tpp
  | Performance_density -> Some (Spec.performance_density s.spec)
  | Device_bw_gb_s -> Some s.spec.Spec.device_bw_gb_s
  | Die_area_mm2 -> Some s.spec.Spec.die_area_mm2
  | Bw_density_gb_s_mm2 ->
      (* The HBM control meters the memory system; subjects that don't
         report memory bandwidth (bare specs) fall back to the spec's
         device bandwidth as the carrier. *)
      let bw =
        match s.memory_bw_tb_s with
        | Some tb -> tb *. 1000.
        | None -> s.spec.Spec.device_bw_gb_s
      in
      Some (bw /. s.spec.Spec.die_area_mm2)
  | Memory_bw_tb_s -> s.memory_bw_tb_s
  | Memory_gb -> s.memory_gb
  | Systolic_dim -> Option.map float_of_int s.systolic_dim
  | L1_kb -> s.l1_kb
  | L2_mb -> s.l2_mb

(* Predicates *)

type pred =
  | At_least of quantity * float
  | Above of quantity * float
  | All_of of pred list
  | Any_of of pred list
  | Not of pred

let check_bound ctx v =
  if not (Float.is_finite v) || v < 0. then
    invalid_arg (ctx ^ ": threshold must be finite and non-negative")

let at_least q v =
  check_bound "Regime.at_least" v;
  At_least (q, v)

let above q v =
  check_bound "Regime.above" v;
  Above (q, v)

let at_most q v = Not (above q v)
let below q v = Not (at_least q v)
let all_of ps = All_of ps
let any_of ps = Any_of ps
let not_ p = Not p
let always = All_of []
let never = Any_of []

let rec holds p subj =
  match p with
  | At_least (q, v) -> (
      match measure subj q with Some x -> x >= v | None -> false)
  | Above (q, v) -> (
      match measure subj q with Some x -> x > v | None -> false)
  | All_of ps -> List.for_all (fun p -> holds p subj) ps
  | Any_of ps -> List.exists (fun p -> holds p subj) ps
  | Not p -> not (holds p subj)

let rec pp_pred ppf = function
  | At_least (q, v) ->
      Format.fprintf ppf "%s >= %g" (quantity_to_string q) v
  | Above (q, v) -> Format.fprintf ppf "%s > %g" (quantity_to_string q) v
  | All_of [] -> Format.pp_print_string ppf "true"
  | Any_of [] -> Format.pp_print_string ppf "false"
  | All_of ps ->
      Format.fprintf ppf "(%a)"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " and ")
           pp_pred)
        ps
  | Any_of ps ->
      Format.fprintf ppf "(%a)"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " or ")
           pp_pred)
        ps
  | Not p -> Format.fprintf ppf "not %a" pp_pred p

(* Rules and regimes *)

type rule = { market : market option; verdict : verdict; requires : pred }

let rule ?market verdict requires = { market; verdict; requires }

type scope = Per_die | Per_package

type t = {
  name : string;
  description : string;
  effective : date option;
  scope : scope;
  rules : rule list;
}

let make ?(description = "") ?effective ?(scope = Per_package) name rules =
  if name = "" then invalid_arg "Regime.make: empty name";
  { name; description; effective; scope; rules }

let with_scope scope t = { t with scope }

let renamed ?description name t =
  if name = "" then invalid_arg "Regime.renamed: empty name";
  {
    t with
    name;
    description = Option.value description ~default:t.description;
  }

let verdict ?(market = Data_center) t subj =
  List.fold_left
    (fun acc r ->
      let applies =
        match r.market with None -> true | Some m -> m = market
      in
      if applies && compare_verdict r.verdict acc > 0 && holds r.requires subj
      then r.verdict
      else acc)
    Unregulated t.rules

let regulated ?market t subj = verdict ?market t subj <> Unregulated

let classify_package ?market ?device_bw_gb_s t pkg =
  match t.scope with
  | Per_package -> verdict ?market t (of_package ?device_bw_gb_s pkg)
  | Per_die ->
      (* Compute dies are identical, so one die's verdict is the maximum
         over the package. The die is judged on its own TPP and area. *)
      let die = pkg.Package.compute_die in
      let bw =
        match device_bw_gb_s with
        | Some bw -> bw
        | None -> Device.device_bandwidth_gb_s die
      in
      let spec =
        Spec.make
          ~non_planar:
            (Acs_hardware.Process.non_planar die.Device.process)
          ~tpp:(Device.tpp die) ~device_bw_gb_s:bw
          ~die_area_mm2:pkg.Package.compute_die_area_mm2 ()
      in
      verdict ?market t (with_arch spec die)

let active_at d t =
  match t.effective with
  | None -> true
  | Some e -> compare_date e d <= 0

(* Every bound on [q] in the rules (optionally only rules carrying
   [verdict]), paired with whether it sits under an even number of
   negations. *)
let bounds ?verdict t q =
  let rec atoms pos p acc =
    match p with
    | At_least (q', v) | Above (q', v) ->
        if q' = q then (pos, v) :: acc else acc
    | All_of ps | Any_of ps ->
        List.fold_left (fun acc p -> atoms pos p acc) acc ps
    | Not p -> atoms (not pos) p acc
  in
  List.fold_left
    (fun acc r ->
      match verdict with
      | Some v when r.verdict <> v -> acc
      | _ -> atoms true r.requires acc)
    [] t.rules

let threshold ?verdict t q =
  let positive (pos, v) = if pos then Some v else None in
  match List.filter_map positive (bounds ?verdict t q) with
  | [] -> None
  | l -> Some (List.fold_left min infinity l)

let area_floor t ~tpp =
  (* A data-center part of [tpp] at density [pd]; at TPP 0 every area
     has PD 0. *)
  let regulated_at pd =
    let die_area_mm2 = if tpp > 0. then tpp /. pd else 1. in
    regulated t (of_spec (Spec.make ~tpp ~device_bw_gb_s:0. ~die_area_mm2 ()))
  in
  let floor_at lo = if lo = 0. then None else Some (tpp /. lo) in
  (* The verdict is constant strictly inside each interval between
     consecutive bounds: judge one point per interval, from PD -> 0 (the
     largest areas) up, and stop at the first regulated one. *)
  let rec scan lo = function
    | hi :: rest ->
        if regulated_at ((lo +. hi) /. 2.) then floor_at lo else scan hi rest
    | [] -> if regulated_at ((2. *. lo) +. 1.) then floor_at lo else Some 0.
  in
  (* Bounds of either polarity are where the verdict can change. *)
  bounds t Performance_density
  |> List.filter_map (fun (_, v) -> if v > 0. then Some v else None)
  |> List.sort_uniq Float.compare
  |> scan 0.

let tighten ~factor t =
  if not (Float.is_finite factor) || factor <= 0. || factor > 1. then
    invalid_arg "Regime.tighten: factor must be in (0, 1]";
  let scale pos v = if pos then v *. factor else v /. factor in
  let rec go pos = function
    | At_least (q, v) -> At_least (q, scale pos v)
    | Above (q, v) -> Above (q, scale pos v)
    | All_of ps -> All_of (List.map (go pos) ps)
    | Any_of ps -> Any_of (List.map (go pos) ps)
    | Not p -> Not (go (not pos) p)
  in
  { t with rules = List.map (fun r -> { r with requires = go true r.requires }) t.rules }

let of_limits ?(name = "limits") ?(description = "") ?(verdict = License)
    (l : Proposals.limits) =
  let atom q = Option.map (above q) in
  let atoms =
    List.filter_map Fun.id
      [
        atom Tpp l.Proposals.max_tpp;
        Option.map
          (fun d -> above Systolic_dim (float_of_int d))
          l.Proposals.max_systolic_dim;
        atom L1_kb l.Proposals.max_l1_kb;
        atom L2_mb l.Proposals.max_l2_mb;
        atom Memory_bw_tb_s l.Proposals.max_memory_bw_tb_s;
        atom Memory_gb l.Proposals.max_memory_gb;
        atom Device_bw_gb_s l.Proposals.max_device_bw_gb_s;
      ]
  in
  make ~description name [ rule verdict (any_of atoms) ]

(* The registry *)

let pre_acr =
  make ~description:"Before October 2022: no device-level AI compute rule"
    "pre-acr" []

let acr_2022 =
  make
    ~description:
      "October 2022 ACR: license when TPP >= 4800 and device bandwidth >= \
       600 GB/s"
    ~effective:(date 2022 10) "acr-2022"
    [
      rule License
        (all_of [ at_least Tpp 4800.; at_least Device_bw_gb_s 600. ]);
    ]

let acr_2023 =
  make
    ~description:
      "October 2023 ACR: TPP x performance-density tiers with the \
       data-center / non-data-center split"
    ~effective:(date 2023 10) "acr-2023"
    [
      rule ~market:Data_center License
        (any_of
           [
             at_least Tpp 4800.;
             all_of
               [ at_least Tpp 1600.; at_least Performance_density 5.92 ];
           ]);
      rule ~market:Data_center Nac
        (any_of
           [
             all_of
               [
                 at_least Tpp 2400.;
                 at_least Performance_density 1.6;
                 below Performance_density 5.92;
               ];
             all_of
               [
                 at_least Tpp 1600.;
                 at_least Performance_density 3.2;
                 below Performance_density 5.92;
               ];
           ]);
      rule ~market:Non_data_center Nac (at_least Tpp 4800.);
    ]

let hbm_2024 =
  make
    ~description:
      "December 2024 HBM control: memory bandwidth density over package \
       area; NAC is the License Exception HBM tier"
    ~effective:(date 2024 12) "hbm-2024"
    [
      rule License (at_least Bw_density_gb_s_mm2 3.3);
      rule Nac (above Bw_density_gb_s_mm2 2.0);
    ]

let diffusion_2025 =
  make
    ~description:
      "January 2025 diffusion framework order tiers in aggregate TPP: LPP \
       exception under 26.9M, country allocation to 790M, license beyond"
    ~effective:(date 2025 1) "diffusion-2025"
    [ rule License (above Tpp 790e6); rule Nac (above Tpp 26.9e6) ]

let proposal_tpp_4800 =
  of_limits ~name:"proposal-tpp-4800"
    ~description:"Status-quo proposal: a bare TPP ceiling at 4800"
    (Proposals.tpp_only 4800.)

let proposal_ai_targeted =
  of_limits ~name:"proposal-ai-targeted"
    ~description:
      "Sec. 5.4 AI-targeted limits: TPP 4800, 32 KB L1, 0.8 TB/s memory \
       bandwidth"
    Proposals.ai_targeted

let proposal_gaming_carveout =
  of_limits ~name:"proposal-gaming-carveout"
    ~description:
      "Gaming carveout: systolic arrays at most 4x4 and GDDR-class (1.2 \
       TB/s) memory"
    Proposals.gaming_carveout

let registry =
  [
    pre_acr; acr_2022; acr_2023; hbm_2024; diffusion_2025; proposal_tpp_4800;
    proposal_ai_targeted; proposal_gaming_carveout;
  ]

let names () = List.map (fun r -> r.name) registry

let find name =
  let norm s = String.lowercase_ascii (String.trim s) in
  let aliases =
    [ ("oct2022", "acr-2022"); ("oct2023", "acr-2023"); ("pre_acr", "pre-acr") ]
  in
  let n = norm name in
  let n = match List.assoc_opt n aliases with Some c -> c | None -> n in
  List.find_opt (fun r -> norm r.name = n) registry

let equal (a : t) b = a = b

(* JSON codec *)

let rec pred_to_json = function
  | At_least (q, v) ->
      Json.obj
        [ ("q", Json.string (quantity_to_string q)); ("ge", Json.float v) ]
  | Above (q, v) ->
      Json.obj
        [ ("q", Json.string (quantity_to_string q)); ("gt", Json.float v) ]
  | All_of ps -> Json.obj [ ("all", Json.list pred_to_json ps) ]
  | Any_of ps -> Json.obj [ ("any", Json.list pred_to_json ps) ]
  | Not p -> Json.obj [ ("not", pred_to_json p) ]

let decode_bound j =
  let v = Json.to_float j in
  if not (Float.is_finite v) || v < 0. then
    raise (Json.Error "Regime: threshold must be finite and non-negative");
  v

let rec pred_of_json j =
  if Json.mem "all" j then
    All_of (List.map pred_of_json (Json.to_list (Json.member "all" j)))
  else if Json.mem "any" j then
    Any_of (List.map pred_of_json (Json.to_list (Json.member "any" j)))
  else if Json.mem "not" j then Not (pred_of_json (Json.member "not" j))
  else if Json.mem "q" j then begin
    let q = quantity_of_token (Json.to_str (Json.member "q" j)) in
    match (Json.mem "ge" j, Json.mem "gt" j) with
    | true, false -> At_least (q, decode_bound (Json.member "ge" j))
    | false, true -> Above (q, decode_bound (Json.member "gt" j))
    | _ ->
        raise
          (Json.Error "Regime: predicate needs exactly one of \"ge\"/\"gt\"")
  end
  else raise (Json.Error "Regime: unrecognized predicate")

let verdict_token = function
  | Unregulated -> "unregulated"
  | Nac -> "nac"
  | License -> "license"

let verdict_of_token = function
  | "unregulated" -> Unregulated
  | "nac" -> Nac
  | "license" -> License
  | s -> raise (Json.Error ("Regime: unknown verdict " ^ s))

let market_token = function
  | Data_center -> "data-center"
  | Non_data_center -> "non-data-center"

let market_of_token = function
  | "data-center" -> Data_center
  | "non-data-center" -> Non_data_center
  | s -> raise (Json.Error ("Regime: unknown market " ^ s))

let scope_token = function
  | Per_die -> "per-die"
  | Per_package -> "per-package"

let scope_of_token = function
  | "per-die" -> Per_die
  | "per-package" -> Per_package
  | s -> raise (Json.Error ("Regime: unknown scope " ^ s))

let rule_to_json r =
  Json.obj
    [
      ("market", Json.option (fun m -> Json.string (market_token m)) r.market);
      ("verdict", Json.string (verdict_token r.verdict));
      ("when", pred_to_json r.requires);
    ]

let rule_of_json j =
  {
    market =
      Json.to_option (fun m -> market_of_token (Json.to_str m))
        (Json.member "market" j);
    verdict = verdict_of_token (Json.to_str (Json.member "verdict" j));
    requires = pred_of_json (Json.member "when" j);
  }

let date_to_json d = Json.string (Format.asprintf "%a" pp_date d)

let date_of_json j =
  let s = Json.to_str j in
  match Scanf.sscanf_opt s "%d-%d%!" (fun y m -> (y, m)) with
  | None -> raise (Json.Error ("Regime: bad effective date " ^ s))
  | Some (y, m) -> (
      try date y m
      with Invalid_argument _ ->
        raise (Json.Error ("Regime: bad effective date " ^ s)))

let to_json t =
  Json.obj
    [
      ("name", Json.string t.name);
      ( "description",
        if t.description = "" then Json.Null else Json.string t.description );
      ("effective", Json.option date_to_json t.effective);
      ("scope", Json.string (scope_token t.scope));
      ("rules", Json.list rule_to_json t.rules);
    ]

let of_json j =
  let name = Json.to_str (Json.member "name" j) in
  if name = "" then raise (Json.Error "Regime: empty name");
  {
    name;
    description =
      Option.value ~default:""
        (Json.to_option Json.to_str (Json.member "description" j));
    effective = Json.to_option date_of_json (Json.member "effective" j);
    scope =
      (match Json.to_option Json.to_str (Json.member "scope" j) with
      | None -> Per_package
      | Some s -> scope_of_token s);
    rules = List.map rule_of_json (Json.to_list (Json.member "rules" j));
  }

let pp_rule ppf r =
  Format.fprintf ppf "%s%s when %a" (verdict_to_string r.verdict)
    (match r.market with
    | None -> ""
    | Some m -> " [" ^ market_to_string m ^ "]")
    pp_pred r.requires

let pp ppf t =
  Format.fprintf ppf "@[<v2>%s (%s%s):%a@]" t.name (scope_token t.scope)
    (match t.effective with
    | None -> ""
    | Some d -> Format.asprintf ", from %a" pp_date d)
    (fun ppf rules ->
      if rules = [] then Format.pp_print_string ppf " no rules"
      else
        List.iter (fun r -> Format.fprintf ppf "@,%a" pp_rule r) rules)
    t.rules
