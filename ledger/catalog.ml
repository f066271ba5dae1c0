(* The ledger's metric catalogue and the shape of a workload result, as
   printed by a workload process and stored in run files. The names and
   units here must match BENCHMARK.json; the smoke test checks that they
   do. *)

open Core

(* Every workload reports every metric: the end-to-end set in an
   untraced run, the per-layer set in a traced one. A layer a workload
   does not exercise reads 0 (counts and shares only). *)
let end_to_end =
  [
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("items_per_s", "1/s");
    ("op_p50_ms", "ms");
    ("op_tail_ms", "ms");
  ]

(* Layers, in the order the traced accounting prints them. "other"
   collects spans the ledger does not map to a layer by name. *)
let layers =
  [ "sweep"; "adaptive"; "fleet"; "trace"; "serve"; "eval"; "engine";
    "parallel"; "http"; "jobq"; "server"; "other" ]

let per_layer =
  List.map (fun l -> (l ^ ".self_frac", "frac")) layers
  @ [
      ("unattributed_frac", "frac");
      ("tracing.overhead_frac", "frac");
      ("engine.calls", "count");
      ("engine.us_per_call", "us");
      ("eval.evaluations", "count");
      ("eval.hit_rate", "frac");
      ("parallel.maps", "count");
      ("parallel.idle_frac", "frac");
      ("adaptive.evaluated_per_search", "count");
      ("adaptive.bounded_per_search", "count");
      ("adaptive.budget_used_frac", "frac");
      ("serving.steps", "count");
      ("fleet.routed", "count");
      ("daemon.warm_hit_rate", "frac");
      ("disk.entries", "count");
      ("disk.open_share_of_warm_job", "frac");
      ("gc.minor_words_per_op", "words");
      ("gc.minor_words_per_point", "words");
      ("gc.minor_words_per_step", "words");
    ]

let catalogue ~trace = if trace then per_layer else end_to_end
let unit_of name = List.assoc name (end_to_end @ per_layer)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;  (** in catalogue order *)
  digest : string;  (** of the simulated statistics, not of timings *)
  detail : (string * Json.t) list;  (** supporting numbers, printed and stored *)
}

let failed_frac r = float_of_int r.failed /. float_of_int (max 1 r.attempted)

(* The one-line JSON object a workload process prints last. *)
let result_line r =
  Json.obj
    [
      ("correct", Json.bool r.correct);
      ("attempted", Json.int r.attempted);
      ("failed", Json.int r.failed);
      ( "metrics",
        Json.obj
          (List.map
             (fun (name, v) ->
               ( name,
                 Json.obj
                   [ ("value", Json.float v); ("unit", Json.string (unit_of name)) ]
               ))
             r.metrics) );
    ]

(* Detail line marker: the line before the result carries the digest
   and the supporting numbers, so a parent process can keep them. *)
let detail_prefix = "ledger-detail "

let detail_line r =
  Json.obj (("digest", Json.string r.digest) :: r.detail)

let print r =
  List.iter
    (fun (name, v) -> Printf.printf "  %-32s %14.6g %s\n" name v (unit_of name))
    r.metrics;
  Printf.printf "  %-32s %14.6g frac (%d of %d operations)\n" "failed_frac"
    (failed_frac r) r.failed r.attempted;
  Printf.printf "  %-32s %s\n" "digest" r.digest;
  print_string detail_prefix;
  print_endline (Json.to_string (detail_line r));
  print_endline (Json.to_string (result_line r))

(* Parse a workload process's stdout back into a result. *)
let of_output out =
  let lines =
    String.split_on_char '\n' out |> List.filter (fun l -> String.trim l <> "")
  in
  match List.rev lines with
  | [] -> Error "no output"
  | last :: _ -> (
      match Json.of_string last with
      | exception Json.Error m -> Error ("last line is not JSON: " ^ m)
      | j -> (
          let detail =
            List.find_map
              (fun l ->
                if String.starts_with ~prefix:detail_prefix l then
                  let n = String.length detail_prefix in
                  Some (Json.of_string (String.sub l n (String.length l - n)))
                else None)
              lines
          in
          try
            let metrics =
              match Json.member "metrics" j with
              | Json.Obj ms ->
                  List.map
                    (fun (k, v) -> (k, Json.to_float (Json.member "value" v)))
                    ms
              | _ -> raise (Json.Error "metrics is not an object")
            in
            let detail =
              match detail with Some (Json.Obj ms) -> ms | _ -> []
            in
            Ok
              {
                correct = Json.to_bool (Json.member "correct" j);
                attempted = Json.to_int (Json.member "attempted" j);
                failed = Json.to_int (Json.member "failed" j);
                metrics;
                digest =
                  (match List.assoc_opt "digest" detail with
                  | Some (Json.String d) -> d
                  | _ -> "");
                detail = List.remove_assoc "digest" detail;
              }
          with Json.Error m -> Error ("malformed result: " ^ m)))

(* --- BENCHMARK.json --- *)

type declared = { name : string; unit_ : string; higher : bool; bound : float option }

let declared ~benchmark =
  let j = Json.of_file benchmark in
  let section key =
    List.map
      (fun m ->
        {
          name = Json.to_str (Json.member "name" m);
          unit_ = Json.to_str (Json.member "unit" m);
          higher = Json.to_str (Json.member "better" m) = "higher";
          bound = Json.to_option Json.to_float (Json.member "bound" m);
        })
      (Json.to_list (Json.member key j))
  in
  let workloads =
    List.map
      (fun w -> Json.to_str (Json.member "name" w))
      (Json.to_list (Json.member "workloads" j))
  in
  (workloads, section "end_to_end", section "per_layer")
