(* Run files: one JSON document per `ledger run`, holding every workload's
   end-to-end result (and per-layer result when traced) under the
   experiment harness's provenance stamp. [diff] reads them back. *)

open Core

let schema = 1

type workload = {
  name : string;
  e2e : Catalog.result;
  layers : Catalog.result option;
}

type t = {
  seed : int;
  seconds : float;
  scale : float;
  workloads : workload list;
}

let metrics_json ms =
  Json.obj
    (List.map
       (fun (name, v) ->
         ( name,
           Json.obj
             [ ("value", Json.float v); ("unit", Json.string (Catalog.unit_of name)) ] ))
       ms)

let result_json (r : Catalog.result) =
  Json.obj
    [
      ("correct", Json.bool r.Catalog.correct);
      ("attempted", Json.int r.Catalog.attempted);
      ("failed", Json.int r.Catalog.failed);
      ("failed_frac", Json.float (Catalog.failed_frac r));
      ("digest", Json.string r.Catalog.digest);
      ("metrics", metrics_json r.Catalog.metrics);
      ("detail", Json.obj r.Catalog.detail);
    ]

let to_json ~jobs t =
  Json.obj
    (Parallel.with_jobs jobs Acs_experiments.Common.stamp
    @ [
        ("ledger_schema", Json.int schema);
        ("cores", Json.int (Measure.cores ()));
        ("seed", Json.int t.seed);
        ("seconds", Json.float t.seconds);
        ("scale", Json.float t.scale);
        ( "workloads",
          Json.list
            (fun w ->
              Json.obj
                [
                  ("name", Json.string w.name);
                  ("end_to_end", result_json w.e2e);
                  ("per_layer", Json.option result_json w.layers);
                ])
            t.workloads );
      ])

let write ~jobs path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Json.to_channel ~indent:1 oc (to_json ~jobs t);
      output_char oc '\n')

let result_of_json j =
  let metrics =
    match Json.member "metrics" j with
    | Json.Obj ms -> List.map (fun (k, v) -> (k, Json.to_float (Json.member "value" v))) ms
    | _ -> raise (Json.Error "metrics is not an object")
  in
  {
    Catalog.correct = Json.to_bool (Json.member "correct" j);
    attempted = Json.to_int (Json.member "attempted" j);
    failed = Json.to_int (Json.member "failed" j);
    metrics;
    digest = Json.to_str (Json.member "digest" j);
    detail = (match Json.member "detail" j with Json.Obj d -> d | _ -> []);
  }

let read path =
  let j = Json.of_file path in
  {
    seed = Json.to_int (Json.member "seed" j);
    seconds = Json.to_float (Json.member "seconds" j);
    scale = Json.to_float (Json.member "scale" j);
    workloads =
      List.map
        (fun w ->
          {
            name = Json.to_str (Json.member "name" w);
            e2e = result_of_json (Json.member "end_to_end" w);
            layers = Json.to_option result_of_json (Json.member "per_layer" w);
          })
        (Json.to_list (Json.member "workloads" j));
  }
