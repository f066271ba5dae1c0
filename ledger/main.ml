(* The perf ledger: end-to-end and per-layer performance of the four
   user-facing paths (see README.md).

     main.exe run --seed N --out FILE [--seconds S] [--scale X] [--traced]
     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--scale X]
     main.exe diff A.json... -- B.json... [--benchmark FILE]
     main.exe smoke [--benchmark FILE]

   `run` re-executes this program once per workload (and once more per
   workload with --traced), so the peak RSS, the GC and the domain pool
   are each workload's own; it prints every metric and writes one run
   file. The single-workload form is what `run` calls; its last line of
   output is the result as one JSON object. *)

open Core

let usage () =
  prerr_endline
    "usage:\n\
    \  main.exe run --seed N --out FILE [--seconds S] [--scale X] [--traced]\n\
    \  main.exe --workload NAME --seed N --seconds S --trace 0|1 [--scale X]\n\
    \  main.exe diff A.json... -- B.json... [--benchmark FILE]\n\
    \  main.exe smoke [--benchmark FILE]";
  exit 2

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("ledger: " ^ m); exit 2) fmt

(* --- flags --- *)

let rec flags = function
  | [] -> []
  | "--traced" :: rest -> ("--traced", "1") :: flags rest
  | k :: v :: rest when String.starts_with ~prefix:"--" k -> (k, v) :: flags rest
  | k :: _ -> fail "unexpected argument %S" k

let flag fl name parse ~default =
  match List.assoc_opt name fl with
  | None -> (
      match default with Some d -> d | None -> fail "missing %s" name)
  | Some v -> (
      match parse v with Some x -> x | None -> fail "bad value %S for %s" v name)

let seed_flag fl = flag fl "--seed" int_of_string_opt ~default:None

let nonneg_float v =
  match float_of_string_opt v with Some x when x >= 0. -> Some x | _ -> None

let pos_float v =
  match float_of_string_opt v with Some x when x > 0. -> Some x | _ -> None

let workload_named name =
  match Workloads.find name with
  | Some w -> w
  | None ->
      fail "unknown workload %S (known: %s)" name
        (String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all))

(* --- one workload, in this process --- *)

let tmp_root = ".ledger-tmp"

(* Set in the environment when a workload process starts over. *)
let restarted_env = "LEDGER_RESTARTED"

let workload_main fl =
  let w = workload_named (flag fl "--workload" Option.some ~default:None) in
  let seed = seed_flag fl in
  let seconds = flag fl "--seconds" nonneg_float ~default:None in
  let trace =
    flag fl "--trace" (function "0" -> Some false | "1" -> Some true | _ -> None)
      ~default:None
  in
  let scale = flag fl "--scale" pos_float ~default:(Some 1.) in
  let jobs = Measure.jobs () in
  (* The first pool map loses a race inside the library about once in 400
     processes (see [Workloads.warm_up]); the pool's helper domain then
     dies, and a pool with a dead helper can be neither used nor joined at
     exit. Nothing is measured or printed yet, so the process starts over
     in place, once. *)
  (try Workloads.warm_up ~jobs
   with e when Sys.getenv_opt restarted_env = None ->
     prerr_endline ("ledger: warm-up failed, starting over: " ^ Printexc.to_string e);
     Unix.putenv restarted_env "1";
     Unix.execv Sys.executable_name Sys.argv);
  let tmp = Filename.concat tmp_root (string_of_int (Unix.getpid ())) in
  Printf.printf "%s (%s): seed %d, %g s, scale %g, %d job(s) on %d core(s)\n%!"
    w.Workloads.name
    (if trace then "per layer, traced" else "end to end")
    seed seconds scale jobs (Measure.cores ());
  Fs.mkdir_p tmp;
  Workloads.sync_dir tmp;
  let ctx = { Workloads.seed; seconds; scale; jobs; tmp } in
  let r =
    Fun.protect
      ~finally:(fun () ->
        (try Workloads.rm_rf tmp with Sys_error _ -> ());
        try Sys.rmdir tmp_root with Sys_error _ -> ())
      (fun () ->
        Parallel.with_jobs jobs (fun () ->
            (if trace then w.Workloads.layers else w.Workloads.e2e) ctx))
  in
  Catalog.print
    {
      r with
      Catalog.detail =
        r.Catalog.detail
        @ [ ("jobs", Json.int jobs); ("cores", Json.int (Measure.cores ())) ];
    }

(* --- child processes --- *)

let spawn ?(relay = true) ~seed ~seconds ~scale ~trace (w : Workloads.t) =
  let args =
    [| Sys.executable_name; "--workload"; w.Workloads.name; "--seed"; string_of_int seed;
       "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0");
       "--scale"; Printf.sprintf "%g" scale |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let buf = Buffer.create 4096 in
  (try
     while true do
       let line = input_line ic in
       (* Relay everything but the machine-readable lines. *)
       if
         relay
         && not
              (String.starts_with ~prefix:Catalog.detail_prefix line
              || String.starts_with ~prefix:"{" line)
       then print_endline line;
       Buffer.add_string buf line;
       Buffer.add_char buf '\n'
     done
   with End_of_file -> ());
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> Catalog.of_output (Buffer.contents buf)
  | Unix.WEXITED n -> Error (Printf.sprintf "exited with status %d" n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> Error (Printf.sprintf "killed by signal %d" n)

let spawn_or_fail ?relay ~seed ~seconds ~scale ~trace w =
  match spawn ?relay ~seed ~seconds ~scale ~trace w with
  | Ok r -> r
  | Error m -> fail "%s: %s" w.Workloads.name m

let run_main fl =
  let seed = seed_flag fl in
  let out = flag fl "--out" Option.some ~default:None in
  let seconds = flag fl "--seconds" nonneg_float ~default:(Some 25.) in
  let scale = flag fl "--scale" pos_float ~default:(Some 1.) in
  let traced = List.mem_assoc "--traced" fl in
  let results =
    List.map
      (fun w ->
        let e2e = spawn_or_fail ~seed ~seconds ~scale ~trace:false w in
        let layers =
          if traced then Some (spawn_or_fail ~seed ~seconds ~scale ~trace:true w)
          else None
        in
        { Runfile.name = w.Workloads.name; e2e; layers })
      Workloads.all
  in
  Runfile.write ~jobs:(Measure.jobs ()) out { Runfile.seed; seconds; scale; workloads = results };
  Printf.printf "\nwrote %s\n" out;
  let bad =
    List.filter
      (fun (w : Runfile.workload) ->
        (not w.Runfile.e2e.Catalog.correct)
        || Option.fold ~none:false ~some:(fun r -> not r.Catalog.correct) w.Runfile.layers)
      results
  in
  List.iter (fun (w : Runfile.workload) -> Printf.printf "FAILED checks: %s\n" w.Runfile.name) bad;
  if bad <> [] then exit 1

(* --- smoke test: every workload at a tiny scale --- *)

let smoke_main fl =
  let benchmark = flag fl "--benchmark" Option.some ~default:(Some "BENCHMARK.json") in
  let declared_workloads, e2e, layers = Catalog.declared ~benchmark in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let same_names what (declared : Catalog.declared list) catalogue =
    let d = List.map (fun (m : Catalog.declared) -> (m.Catalog.name, m.Catalog.unit_)) declared in
    if d <> catalogue then problem "%s metrics in %s differ from the ledger's" what benchmark
  in
  if declared_workloads <> List.map (fun w -> w.Workloads.name) Workloads.all then
    problem "workloads in %s differ from the ledger's" benchmark;
  same_names "end_to_end" e2e Catalog.end_to_end;
  same_names "per_layer" layers Catalog.per_layer;
  let seed = 3 and seconds = 0.2 and scale = 0.02 in
  List.iter
    (fun w ->
      let emitted ~trace (r : Catalog.result) =
        if List.map fst r.Catalog.metrics <> List.map fst (Catalog.catalogue ~trace) then
          problem "%s emitted other metric names than declared" w.Workloads.name;
        if not r.Catalog.correct then problem "%s failed its checks" w.Workloads.name
      in
      let spawn = spawn_or_fail ~relay:false ~seed ~seconds ~scale in
      let first = spawn ~trace:false w in
      let second = spawn ~trace:false w in
      let traced = spawn ~trace:true w in
      emitted ~trace:false first;
      emitted ~trace:true traced;
      if first.Catalog.digest <> second.Catalog.digest then
        problem "%s: digests differ across identical runs" w.Workloads.name)
    Workloads.all;
  match !problems with
  | [] -> print_endline "ledger smoke: ok"
  | ps ->
      List.iter (fun p -> prerr_endline ("ledger smoke: " ^ p)) (List.rev ps);
      exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: rest -> run_main (flags rest)
  | "smoke" :: rest -> smoke_main (flags rest)
  | "diff" :: rest ->
      let rec split acc = function
        | "--" :: b -> (List.rev acc, b)
        | x :: rest -> split (x :: acc) rest
        | [] -> usage ()
      in
      let a, b = split [] rest in
      let benchmark, b =
        match List.rev b with
        | path :: "--benchmark" :: rest -> (path, List.rev rest)
        | _ -> ("BENCHMARK.json", b)
      in
      if a = [] || b = [] then usage ();
      exit (Diff.run ~benchmark a b)
  | args when List.mem "--workload" args -> (
      Printexc.record_backtrace true;
      try workload_main (flags args)
      with e ->
        Printf.eprintf "ledger: %s\n%s" (Printexc.to_string e) (Printexc.get_backtrace ());
        exit 1)
  | _ -> usage ()
