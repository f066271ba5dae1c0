module Json = Acs_util.Json
module Model = Acs_workload.Model
module Request = Acs_workload.Request
module Calib = Acs_perfmodel.Calib
module Regime = Acs_policy.Regime

type target = Space of Space.sweep | Point of Space.params

type t = {
  name : string;
  description : string;
  model : Model.t;
  request : Request.t option;
  calib : Calib.t option;
  tp : int option;
  tpp_target : float;
  memory_gb : float option;
  target : target;
  regime : Regime.t;
}

let make ?(description = "") ?request ?calib ?tp ?memory_gb
    ?(regime = Regime.acr_2023) ~name ~model ~tpp_target target =
  let pos what v =
    if not (v > 0. && Float.abs v < infinity) then
      invalid_arg (Printf.sprintf "Scenario.make: %s must be positive and finite" what)
  in
  pos "tpp_target" tpp_target;
  Option.iter (pos "memory_gb") memory_gb;
  Option.iter
    (fun tp -> if tp <= 0 then invalid_arg "Scenario.make: tp must be positive")
    tp;
  { name; description; model; request; calib; tp; tpp_target; memory_gb;
    target; regime }

let size t =
  match t.target with Space s -> Space.size s | Point _ -> 1

let compliant t = Design.compliant t.regime

(* --- context equality and hashing ---

   The cache key must treat two scenarios as interchangeable exactly when
   [Design.evaluate] would produce the same result for them, so [name],
   [description] and [regime] are excluded (the regime changes how
   results are judged, not what is computed). All float comparisons go
   through
   [Float.compare]: nan = nan and -0. = 0. (the polymorphic [=] returns
   false on nan, which would make a nan-bearing key unfindable and the
   cache silently useless). The hash normalizes the same two cases -
   every nan hashes to one constant, and -0. is folded onto 0. by adding
   0. before taking its bits - keeping it consistent with [equal]. *)

let float_eq a b = Float.compare a b = 0

let opt_eq eq a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> eq x y
  | None, Some _ | Some _, None -> false

let model_eq (a : Model.t) (b : Model.t) =
  String.equal a.Model.name b.Model.name
  && a.Model.num_layers = b.Model.num_layers
  && a.Model.d_model = b.Model.d_model
  && a.Model.ffn_dim = b.Model.ffn_dim
  && a.Model.n_heads = b.Model.n_heads
  && a.Model.n_kv_heads = b.Model.n_kv_heads
  && a.Model.activation = b.Model.activation
  && opt_eq
       (fun (x : Model.moe) (y : Model.moe) ->
         x.Model.num_experts = y.Model.num_experts
         && x.Model.top_k = y.Model.top_k)
       a.Model.moe b.Model.moe
  && float_eq a.Model.bytes_per_param b.Model.bytes_per_param

let request_eq (a : Request.t) (b : Request.t) =
  a.Request.batch = b.Request.batch
  && a.Request.input_len = b.Request.input_len
  && a.Request.output_len = b.Request.output_len

let calib_eq (a : Calib.t) (b : Calib.t) =
  float_eq a.Calib.dram_efficiency b.Calib.dram_efficiency
  && float_eq a.Calib.dram_ramp_bytes b.Calib.dram_ramp_bytes
  && float_eq a.Calib.per_core_dram_bw b.Calib.per_core_dram_bw
  && float_eq a.Calib.kernel_overhead_s b.Calib.kernel_overhead_s
  && float_eq a.Calib.feed_bytes_16x16 b.Calib.feed_bytes_16x16
  && float_eq a.Calib.feed_knee_ratio b.Calib.feed_knee_ratio
  && float_eq a.Calib.feed_knee_power b.Calib.feed_knee_power
  && float_eq a.Calib.control_overhead b.Calib.control_overhead
  && float_eq a.Calib.drain_overhead b.Calib.drain_overhead
  && float_eq a.Calib.sched_overhead_per_core b.Calib.sched_overhead_per_core
  && float_eq a.Calib.overlap_leak b.Calib.overlap_leak
  && float_eq a.Calib.l2_reuse_bytes b.Calib.l2_reuse_bytes
  && float_eq a.Calib.hop_latency_s b.Calib.hop_latency_s
  && float_eq a.Calib.vector_efficiency b.Calib.vector_efficiency

let target_eq a b =
  match (a, b) with
  | Space x, Space y -> Space.sweep_equal x y
  | Point x, Point y -> Space.params_equal x y
  | Space _, Point _ | Point _, Space _ -> false

(* Everything but the target: the part of the key shared by every point
   of one sweep. [Eval]'s per-point cache key pairs this with raw
   [Space.params]. *)
let context_equal a b =
  float_eq a.tpp_target b.tpp_target
  && opt_eq float_eq a.memory_gb b.memory_gb
  && opt_eq ( = ) a.tp b.tp
  && model_eq a.model b.model
  && opt_eq request_eq a.request b.request
  && opt_eq calib_eq a.calib b.calib

let equal a b = context_equal a b && target_eq a.target b.target

(* Hash combination: h <+> x folds one component in; [land max_int]
   keeps the value non-negative on 63-bit ints. *)
let ( <+> ) h x = ((h * 31) + x) land max_int

let float_hash f =
  if Float.is_nan f then 0x7ff8
  else Int64.to_int (Int64.bits_of_float (f +. 0.)) land max_int

let opt_hash hash = function None -> 17 | Some x -> 19 <+> hash x

let model_hash (m : Model.t) =
  Hashtbl.hash m.Model.name
  <+> m.Model.num_layers <+> m.Model.d_model <+> m.Model.ffn_dim
  <+> m.Model.n_heads <+> m.Model.n_kv_heads
  <+> (match m.Model.activation with Model.Gelu -> 0 | Model.Swiglu -> 1)
  <+> opt_hash
        (fun (x : Model.moe) -> x.Model.num_experts <+> x.Model.top_k)
        m.Model.moe
  <+> float_hash m.Model.bytes_per_param

let request_hash (r : Request.t) =
  r.Request.batch <+> r.Request.input_len <+> r.Request.output_len

let calib_hash (c : Calib.t) =
  List.fold_left
    (fun h f -> h <+> float_hash f)
    29
    [
      c.Calib.dram_efficiency; c.Calib.dram_ramp_bytes;
      c.Calib.per_core_dram_bw; c.Calib.kernel_overhead_s;
      c.Calib.feed_bytes_16x16; c.Calib.feed_knee_ratio;
      c.Calib.feed_knee_power; c.Calib.control_overhead;
      c.Calib.drain_overhead; c.Calib.sched_overhead_per_core;
      c.Calib.overlap_leak; c.Calib.l2_reuse_bytes; c.Calib.hop_latency_s;
      c.Calib.vector_efficiency;
    ]

let target_hash = function
  | Space s -> 2 <+> Space.sweep_hash s
  | Point p -> 3 <+> Space.params_hash p

let context_hash t =
  float_hash t.tpp_target
  <+> opt_hash float_hash t.memory_gb
  <+> opt_hash Fun.id t.tp
  <+> model_hash t.model
  <+> opt_hash request_hash t.request
  <+> opt_hash calib_hash t.calib

(* [context_hash] stays raw (it names disk-cache files); the table
   hashes are finalized by [Space.mix], as [Space.params_hash] is for
   [Adaptive]. *)
let hash t = Space.mix (context_hash t <+> target_hash t.target)

let point_hash ~context_hash p =
  Space.mix (context_hash <+> (3 <+> Space.params_hash p))

module Key = struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end

(* --- JSON --- *)

let regime_token (r : Regime.t) =
  if r.Regime.name = "" then "custom" else r.Regime.name

(* Regimes that are (structurally) registry values serialize by name;
   anything else inlines the full Regime JSON. *)
let regime_to_json (r : Regime.t) =
  match Regime.find r.Regime.name with
  | Some canonical when Regime.equal canonical r ->
      Json.string r.Regime.name
  | Some _ | None -> Regime.to_json r

let regime_of_json = function
  | Json.String s -> (
      match Regime.find s with
      | Some r -> r
      | None ->
          raise
            (Json.Error
               (Printf.sprintf "unknown regime %S (known: %s)" s
                  (String.concat ", " (Regime.names ())))))
  | j -> Regime.of_json j

let model_to_json m =
  (* Presets serialize by name - the manifest stays readable and robust
     to preset-parameter edits. *)
  match Model.find_preset m.Model.name with
  | Some preset when model_eq preset m -> Json.string m.Model.name
  | Some _ | None -> Model.to_json m

let to_json t =
  Json.obj
    [
      ("name", if t.name = "" then Json.Null else Json.string t.name);
      ( "description",
        if t.description = "" then Json.Null else Json.string t.description );
      ("model", model_to_json t.model);
      ("request", Json.option Request.to_json t.request);
      ("calib", Json.option Calib.to_json t.calib);
      ("tp", Json.option Json.int t.tp);
      ("tpp_target", Json.float t.tpp_target);
      ("memory_gb", Json.option Json.float t.memory_gb);
      ( "space",
        match t.target with
        | Space s -> Space.sweep_to_json s
        | Point _ -> Json.Null );
      ( "point",
        match t.target with
        | Point p -> Space.params_to_json p
        | Space _ -> Json.Null );
      ("regime", regime_to_json t.regime);
    ]

let of_json j =
  let opt f k = Json.to_option f (Json.member k j) in
  let target =
    match (Json.member "space" j, Json.member "point" j) with
    | Json.Null, Json.Null ->
        raise (Json.Error "scenario needs a \"space\" or a \"point\"")
    | s, Json.Null -> Space (Space.sweep_of_json s)
    | Json.Null, p -> Point (Space.params_of_json p)
    | _, _ -> raise (Json.Error "scenario has both \"space\" and \"point\"")
  in
  let scenario =
    make
      ?description:(opt Json.to_str "description")
      ?request:(opt Request.of_json "request")
      ?calib:(opt Calib.of_json "calib")
      ?tp:(opt Json.to_int "tp")
      ?memory_gb:(opt Json.to_float "memory_gb")
      ?regime:(opt regime_of_json "regime")
      ~name:(Option.value ~default:"" (opt Json.to_str "name"))
      ~model:(Model.of_json (Json.member "model" j))
      ~tpp_target:(Json.to_float (Json.member "tpp_target" j))
      target
  in
  scenario

(* --- registry --- *)

let sweep_scenario ~name ~description ~model ~tpp_target ~regime space =
  make ~name ~description ~model ~tpp_target ~regime (Space space)

let fig7_family ~fig ~description_of model tag =
  List.map
    (fun (tpp, headline) ->
      let name =
        if headline then Printf.sprintf "%s-%s" fig tag
        else Printf.sprintf "%s-%s-%.0f" fig tag tpp
      in
      sweep_scenario ~name
        ~description:(description_of tpp)
        ~model ~tpp_target:tpp ~regime:Regime.acr_2023 Space.oct2023)
    [ (1600., false); (2400., false); (4800., false); (2400., true) ]

let registry =
  let gpt3 = Model.gpt3_175b and llama3 = Model.llama3_8b in
  [
    sweep_scenario ~name:"fig6-gpt3"
      ~description:
        "Fig 6 / Table 3: October 2022 DSE at 4800 TPP, GPT-3 175B"
      ~model:gpt3 ~tpp_target:4800. ~regime:Regime.acr_2022
      Space.oct2022;
    sweep_scenario ~name:"fig6-llama3"
      ~description:
        "Fig 6 / Table 3: October 2022 DSE at 4800 TPP, Llama 3 8B"
      ~model:llama3 ~tpp_target:4800. ~regime:Regime.acr_2022
      Space.oct2022;
  ]
  @ fig7_family ~fig:"fig7"
      ~description_of:(fun tpp ->
        Printf.sprintf "Fig 7: October 2023 DSE at %.0f TPP, GPT-3 175B" tpp)
      gpt3 "gpt3"
  @ fig7_family ~fig:"fig7"
      ~description_of:(fun tpp ->
        Printf.sprintf "Fig 7: October 2023 DSE at %.0f TPP, Llama 3 8B" tpp)
      llama3 "llama3"
  @ [
      sweep_scenario ~name:"fig8-gpt3"
        ~description:
          "Fig 8: latency x die-cost products over the 2400-TPP Fig 7 \
           sweep, GPT-3 175B"
        ~model:gpt3 ~tpp_target:2400. ~regime:Regime.acr_2023
        Space.oct2023;
      sweep_scenario ~name:"fig8-llama3"
        ~description:
          "Fig 8: latency x die-cost products over the 2400-TPP Fig 7 \
           sweep, Llama 3 8B"
        ~model:llama3 ~tpp_target:2400. ~regime:Regime.acr_2023
        Space.oct2023;
      sweep_scenario ~name:"table4"
        ~description:
          "Table 4: PD-compliance cost at the 2400 TPP target, GPT-3 175B"
        ~model:gpt3 ~tpp_target:2400. ~regime:Regime.acr_2023
        Space.oct2023;
      sweep_scenario ~name:"fig11-gpt3"
        ~description:
          "Fig 11: indicator distributions over the 4800-TPP Fig 7 sweep, \
           GPT-3 175B"
        ~model:gpt3 ~tpp_target:4800. ~regime:Regime.acr_2023
        Space.oct2023;
      sweep_scenario ~name:"fig11-llama3"
        ~description:
          "Fig 11: indicator distributions over the 4800-TPP Fig 7 sweep, \
           Llama 3 8B"
        ~model:llama3 ~tpp_target:4800. ~regime:Regime.acr_2023
        Space.oct2023;
      sweep_scenario ~name:"fig12-gpt3"
        ~description:
          "Fig 12 / Table 5: restricted (at-or-below-A100) DSE, GPT-3 175B"
        ~model:gpt3 ~tpp_target:4800. ~regime:Regime.acr_2023
        Space.restricted;
      sweep_scenario ~name:"fig12-llama3"
        ~description:
          "Fig 12 / Table 5: restricted (at-or-below-A100) DSE, Llama 3 8B"
        ~model:llama3 ~tpp_target:4800. ~regime:Regime.acr_2023
        Space.restricted;
      sweep_scenario ~name:"table5"
        ~description:
          "Table 5 alias of fig12-gpt3: the restricted design space"
        ~model:gpt3 ~tpp_target:4800. ~regime:Regime.acr_2023
        Space.restricted;
      sweep_scenario ~name:"scorecard"
        ~description:
          "Scorecard: the 2400-TPP October 2023 sweep most paper claims \
           are measured on, GPT-3 175B"
        ~model:gpt3 ~tpp_target:2400. ~regime:Regime.acr_2023
        Space.oct2023;
      sweep_scenario ~name:"search-widened"
        ~description:
          "Adaptive search demo: the ~1e9-point widened lattice at the \
           2400 TPP October 2023 target, Llama 3 8B (never enumerated - \
           use `acs search`)"
        ~model:llama3 ~tpp_target:2400. ~regime:Regime.acr_2023
        Space.widened;
      make ~name:"a100-proxy"
        ~description:
          "Single point: the 16x16 x4-lane 103-core A100-like anchor of \
           Fig 5 (4759 TPP under the 4800 target)"
        ~model:gpt3 ~tpp_target:4800. ~regime:Regime.pre_acr
        (Point
           {
             Space.systolic_dim = 16;
             lanes = 4;
             l1 = 192.;
             l2 = 40.;
             memory_bw = 2.;
             device_bw = 600.;
             clock_mhz = Space.default_clock_mhz;
           });
    ]

let () =
  (* Registry names must be unique - [find] depends on it. *)
  let seen = Hashtbl.create 32 in
  List.iter
    (fun s ->
      if Hashtbl.mem seen s.name then
        invalid_arg (Printf.sprintf "Scenario.registry: duplicate name %S" s.name)
      else Hashtbl.add seen s.name ())
    registry

let find name =
  let norm s = String.lowercase_ascii (String.trim s) in
  List.find_opt (fun s -> norm s.name = norm name) registry

let names () = List.map (fun s -> s.name) registry

let pp ppf t =
  let target_descr =
    match t.target with
    | Space s -> (
        match Space.name_of s with
        | Some n -> Printf.sprintf "%s (%d designs)" n (Space.size s)
        | None -> Printf.sprintf "custom space (%d designs)" (Space.size s))
    | Point _ -> "single point"
  in
  Format.fprintf ppf "%s: %s, %s @@ %.0f TPP, %s%s"
    (if t.name = "" then "(anonymous)" else t.name)
    t.model.Model.name target_descr t.tpp_target
    (regime_token t.regime)
    (match t.tp with
    | Some tp -> Printf.sprintf ", tp=%d" tp
    | None -> "")
