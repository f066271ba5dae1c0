(* Secs. 2.3 / 2.5 chiplet study: the October 2023 PD floor makes large
   multi-chip modules the only path for high-TPP compliant devices, and
   chiplets are also the economic answer to giant dies. *)

open Core
open Common

let compute_die tpp l2 membw =
  let cores =
    Device.cores_for_tpp ~tpp ~lanes_per_core:2 ~systolic:(Systolic.square 16) ()
  in
  Device.make ~name:"chiplet" ~core_count:cores ~lanes_per_core:2
    ~systolic:(Systolic.square 16) ~l1_kb:192. ~l2_mb:l2
    ~memory:(Memory.make ~capacity_gb:24. ~bandwidth_tb_s:membw)
    ~interconnect:(Interconnect.of_total_gb_s 200.)
    ()

let verdict regime pkg =
  Regime.verdict_to_string
    (Regime.classify_package ~device_bw_gb_s:800. regime pkg)

(* The same rule set applied per die instead of per package: if the rule
   measured each chiplet on its own TPP and area, would the module still
   be caught? The gap between this column and the package verdict is the
   evasion headroom a per-package scope closes. *)
let per_die = Regime.with_scope Regime.Per_die Regime.acr_2023

let run_compliance () =
  note "A ~4799-TPP device needs > %.0f mm2 of applicable silicon to be \
        unregulated - 3.5x the %.0f mm2 reticle. Chiplets are the only way:"
    (Option.get (Regime.area_floor Regime.acr_2023 ~tpp:4799.))
    Presets.reticle_limit_mm2;
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Left; Table.Left; Table.Right ]
      [ "package"; "TPP"; "total area (mm2)"; "PD"; "Oct 2023 (DC)"; "per-die scope"; "package cost" ]
  in
  let rows = ref [] in
  let record name pkg =
    let cost =
      Cost_model.package_cost_usd ~process:Cost_model.n7
        ~die_areas_mm2:(Package.die_areas pkg) ()
    in
    let cells =
      [
        name;
        Printf.sprintf "%.0f" (Package.total_tpp pkg);
        Printf.sprintf "%.0f" (Package.total_area_mm2 pkg);
        Printf.sprintf "%.2f" (Package.performance_density pkg);
        verdict Regime.acr_2023 pkg;
        verdict per_die pkg;
        Printf.sprintf "$%.0f" cost;
      ]
    in
    Table.add_row t cells;
    rows := cells :: !rows
  in
  let die = compute_die 1199. 16. 0.8 in
  List.iter
    (fun dies ->
      let pkg =
        Package.make
          ~name:(Printf.sprintf "%d-die" dies)
          ~compute_die:die ~compute_die_area_mm2:755. ~compute_dies:dies ()
      in
      record (Printf.sprintf "%d x 755 mm2 compute dies" dies) pkg)
    [ 1; 2; 3; 4 ];
  (* Shrinking the dies keeps PD constant: the Sec. 2.3 trap. *)
  let pkg_small =
    Package.make ~name:"small-dies" ~compute_die:die ~compute_die_area_mm2:400.
      ~compute_dies:4 ()
  in
  record "4 x 400 mm2 (same dies, less area)" pkg_small;
  Table.print ~title:"Multi-chip compliance under the PD floor" t;
  note "Only the 4 x 755 mm2 module clears PD < 1.6 at ~4796 TPP; removing \
        or shrinking chiplets scales TPP and area together, so PD never \
        improves - compliant chiplet designs must waste silicon, as the \
        paper argues.";
  note "Per-die scope: every module above reads as a stack of unregulated \
        ~1199-TPP dies - the rule's per-package aggregation is what closes \
        that evasion channel.";
  csv "chiplet_compliance.csv"
    [ "package"; "tpp"; "area_mm2"; "pd"; "tier"; "per_die"; "cost_usd" ]
    (List.rev !rows)

let run_economics () =
  let t =
    Table.create
      ~aligns:[ Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "total silicon (mm2)"; "dies"; "package cost"; "vs monolithic" ]
  in
  let rows = ref [] in
  List.iter
    (fun total ->
      List.iter
        (fun dies ->
          let areas = List.init dies (fun _ -> total /. float_of_int dies) in
          if List.for_all (fun a -> a <= Presets.reticle_limit_mm2) areas then begin
            let cost =
              Cost_model.package_cost_usd ~process:Cost_model.n7
                ~die_areas_mm2:areas ()
            in
            let advantage =
              Cost_model.chiplet_advantage ~process:Cost_model.n7
                ~total_area_mm2:total ~dies ()
            in
            let cells =
              [
                Printf.sprintf "%.0f" total;
                string_of_int dies;
                Printf.sprintf "$%.0f" cost;
                (match advantage with
                | Some a when dies > 1 -> Printf.sprintf "%.2fx cheaper" a
                | Some _ -> "baseline";
                | None -> "monolithic impossible");
              ]
            in
            Table.add_row t cells;
            rows := cells :: !rows
          end)
        [ 1; 2; 4; 8 ])
    [ 600.; 860.; 1600.; 3000. ];
  Table.print ~title:"Known-good package cost: monolithic vs chiplets (7nm)" t;
  csv "chiplet_economics.csv"
    [ "total_mm2"; "dies"; "cost_usd"; "advantage" ]
    (List.rev !rows)

let run () =
  section "Chiplet study: compliance and economics of multi-chip modules";
  run_compliance ();
  run_economics ()
