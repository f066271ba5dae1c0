(* `ledger diff A... -- B...`: compare two sets of run files, workload by
   workload and metric by metric. For each end-to-end metric it reports
   both sets' medians and quartiles and a verdict against the metric's
   bound in BENCHMARK.json:

   - "unresolved": either set's spread (interquartile range over median)
     is wider than the bound, and B does not beat A on every run;
   - "REGRESSION": B's median is worse than A's by more than the bound;
   - "better": B's median is better by more than the bound (or, when the
     spread is wide, every run of B beats every run of A);
   - "same" otherwise.

   Sets whose digests differ ran different simulated work (another seed,
   scale or program behaviour) and are refused. Exit status: 0, 1 on any
   regression, 2 when the sets cannot be compared. *)

let values runs ~workload ~pick =
  List.filter_map
    (fun (r : Runfile.t) ->
      List.find_opt (fun (w : Runfile.workload) -> w.Runfile.name = workload) r.Runfile.workloads
      |> Option.map pick)
    runs

let metric_values results name =
  List.filter_map (fun (r : Catalog.result) -> List.assoc_opt name r.Catalog.metrics) results

let spread xs =
  let q1, med, q3 = Measure.quartiles xs in
  (q1, med, q3, if med = 0. then 0. else (q3 -. q1) /. Float.abs med)

let verdict ~(m : Catalog.declared) a b =
  let bound = Option.value ~default:0. m.Catalog.bound in
  let _, ma, _, sa = spread a and _, mb, _, sb = spread b in
  let better x y = if m.Catalog.higher then x > y else x < y in
  let change = if ma = 0. then 0. else (mb -. ma) /. Float.abs ma in
  let worse = if m.Catalog.higher then -.change else change in
  let b_wins_all = List.for_all (fun y -> List.for_all (fun x -> better y x) a) b in
  if sa > bound || sb > bound then if b_wins_all then "better" else "unresolved"
  else if worse > bound then "REGRESSION"
  else if -.worse > bound then "better"
  else "same"

let pp_quart xs =
  let q1, med, q3, _ = spread xs in
  Printf.sprintf "%.6g [%.6g, %.6g]" med q1 q3

let run ~benchmark a_files b_files =
  let declared, e2e, layers = Catalog.declared ~benchmark in
  let a = List.map Runfile.read a_files and b = List.map Runfile.read b_files in
  let present =
    List.concat_map
      (fun (r : Runfile.t) -> List.map (fun (w : Runfile.workload) -> w.Runfile.name) r.Runfile.workloads)
      (a @ b)
  in
  (* In BENCHMARK.json order, then any others. *)
  let names =
    List.filter (fun n -> List.mem n present) declared
    @ List.filter (fun n -> not (List.mem n declared)) (List.sort_uniq String.compare present)
  in
  let refused = ref false and regressed = ref false in
  List.iter
    (fun workload ->
      let da = values a ~workload ~pick:(fun w -> w.Runfile.e2e.Catalog.digest)
      and db = values b ~workload ~pick:(fun w -> w.Runfile.e2e.Catalog.digest) in
      Printf.printf "\n== %s (%d vs %d runs)\n" workload (List.length da) (List.length db);
      match List.sort_uniq String.compare (da @ db) with
      | _ when da = [] || db = [] ->
          print_endline "  missing from one set; not compared";
          refused := true
      | [ _ ] ->
          let ra = values a ~workload ~pick:(fun w -> w.Runfile.e2e)
          and rb = values b ~workload ~pick:(fun w -> w.Runfile.e2e) in
          List.iter
            (fun (m : Catalog.declared) ->
              match (metric_values ra m.Catalog.name, metric_values rb m.Catalog.name) with
              | [], _ | _, [] -> Printf.printf "  %-30s missing\n" m.Catalog.name
              | va, vb ->
                  let v = verdict ~m va vb in
                  if v = "REGRESSION" then regressed := true;
                  let _, ma, _, _ = spread va and _, mb, _, _ = spread vb in
                  Printf.printf "  %-30s %-30s -> %-30s %+7.2f%% (bound %.0f%%) %s\n"
                    m.Catalog.name (pp_quart va) (pp_quart vb)
                    (if ma = 0. then 0. else 100. *. (mb -. ma) /. Float.abs ma)
                    (100. *. Option.value ~default:0. m.Catalog.bound)
                    v)
            e2e;
          let la = List.filter_map Fun.id (values a ~workload ~pick:(fun w -> w.Runfile.layers))
          and lb = List.filter_map Fun.id (values b ~workload ~pick:(fun w -> w.Runfile.layers)) in
          if la <> [] && lb <> [] then begin
            print_endline "  per layer (medians; no bound; layers idle in both sets omitted):";
            List.iter
              (fun (m : Catalog.declared) ->
                match (metric_values la m.Catalog.name, metric_values lb m.Catalog.name) with
                | [], _ | _, [] -> ()
                | va, vb when List.for_all (( = ) 0.) (va @ vb) -> ()
                | va, vb ->
                    let ma = Measure.median va and mb = Measure.median vb in
                    let counts_moved =
                      m.Catalog.unit_ = "count"
                      && List.sort_uniq Float.compare (va @ vb) |> List.length > 1
                    in
                    Printf.printf "    %-34s %14.6g -> %-14.6g %s\n" m.Catalog.name ma mb
                      (if counts_moved then "(count changed)" else ""))
              layers
          end
      | _ ->
          Printf.printf
            "  digests differ (%d distinct): the sets simulated different work; \
             refusing to compare\n"
            (List.length (List.sort_uniq String.compare (da @ db)));
          refused := true)
    names;
  if !refused then 2 else if !regressed then 1 else 0
