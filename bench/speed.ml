(* Bechamel microbenchmarks of the simulator itself: how fast one design
   evaluation is determines how large a DSE is practical. Also measures
   the evaluation engine's sequential-vs-parallel sweep throughput. *)

open Bechamel
open Toolkit

(* A thinned Fig-7-style sweep (48 points) so each bechamel run stays in
   the low-millisecond range while still giving the pool real work. *)
let thinned =
  {
    Core.Space.systolic_dims = [ 16; 32 ];
    lanes_per_core = [ 4; 8 ];
    l1_kb = [ 96.; 192. ];
    l2_mb = [ 40.; 80. ];
    memory_bw_tb_s = [ 1.; 2.; 3. ];
    device_bw_gb_s = [ 600. ];
    clock_mhz = [ Core.Space.default_clock_mhz ];
  }

let sweep_once jobs () =
  Core.Parallel.with_jobs jobs (fun () ->
      ignore
        (Core.Eval.sweep ~cache:false ~model:Core.Model.llama3_8b
           ~tpp_target:2400. thinned))

let seq_name = "sweep/thinned-fig7-1job"
let par_jobs = 4
let par_name = Printf.sprintf "sweep/thinned-fig7-%djobs" par_jobs

(* Tracing on vs off around the same engine call. Both variants toggle the
   flag so the ratio isolates the instrumentation itself: the off variant
   should cost the untraced baseline plus a branch, nothing more. *)
let simulate_traced enabled () =
  Core.Tracing.set_enabled enabled;
  Fun.protect
    ~finally:(fun () -> Core.Tracing.set_enabled false)
    (fun () -> ignore (Core.Engine.simulate Core.Presets.a100 Core.Model.gpt3_175b))

let trace_off_name = "trace/simulate-gpt3-off"
let trace_on_name = "trace/simulate-gpt3-on"

let tests =
  let a100 = Core.Presets.a100 in
  let params =
    {
      Core.Space.systolic_dim = 16;
      lanes = 4;
      l1 = 192.;
      l2 = 40.;
      memory_bw = 2.;
      device_bw = 600.;
      clock_mhz = Core.Space.default_clock_mhz;
    }
  in
  Test.make_grouped ~name:"acs"
    [
      Test.make ~name:"simulate-gpt3"
        (Staged.stage (fun () ->
             ignore (Core.Engine.simulate a100 Core.Model.gpt3_175b)));
      Test.make ~name:"simulate-llama3"
        (Staged.stage (fun () ->
             ignore (Core.Engine.simulate a100 Core.Model.llama3_8b)));
      Test.make ~name:"design-evaluate"
        (Staged.stage (fun () ->
             ignore
               (Core.Design.evaluate ~model:Core.Model.llama3_8b params a100)));
      Test.make ~name:"area-model"
        (Staged.stage (fun () -> ignore (Core.Area_model.total_mm2 a100)));
      Test.make ~name:"classify-survey"
        (Staged.stage (fun () ->
             List.iter
               (fun g -> ignore (Core.Gpu.verdict Core.Regime.acr_2023 g))
               Core.Database.survey));
      Test.make ~name:"good-die-cost"
        (Staged.stage (fun () ->
             ignore
               (Core.Cost_model.good_die_cost_usd ~process:Core.Cost_model.n7
                  ~die_area_mm2:753. ())));
      (* The trace pair must run before the sweep tests: the first parallel
         sweep leaves idle pool domains behind, and every minor collection
         thereafter pays a cross-domain synchronization that would swamp
         the branch being measured here. *)
      Test.make_grouped ~name:"trace"
        [
          Test.make ~name:"simulate-gpt3-off"
            (Staged.stage (simulate_traced false));
          Test.make ~name:"simulate-gpt3-on"
            (Staged.stage (simulate_traced true));
        ];
      Test.make_grouped ~name:"sweep"
        [
          Test.make ~name:"thinned-fig7-1job" (Staged.stage (sweep_once 1));
          Test.make
            ~name:(Printf.sprintf "thinned-fig7-%djobs" par_jobs)
            (Staged.stage (sweep_once par_jobs));
        ];
    ]

(* --- sweep throughput: the compiled fast path and the sharded cache ---

   Wall-clock points/s over a full canonical registry sweep (fig6-llama3,
   512 points), reported for the legacy per-op path ([Design.evaluate],
   which rebuilds the op list per point) against the compiled path
   ([Eval.run ~cache:false], which compiles the context once), at 1 job
   and at [par_jobs]; plus warm-cache lookup throughput of the sharded
   cache ([Eval.probe]) against a reconstruction of the pre-sharding
   design (one global [Hashtbl] behind one mutex, keyed on full per-point
   scenarios). Manual best-of-N timing rather than bechamel: each run is
   tens of milliseconds, far above clock resolution, and a cold sweep
   must not be iterated inside one bechamel quota. *)

let quick () =
  match Sys.getenv_opt "ACS_BENCH_QUICK" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

let time_best ~repeats f =
  (* One untimed warm-up run: the first invocation pays first-touch cache
     and allocator effects that would otherwise bias whichever variant
     happens to be measured first. *)
  f ();
  let best = ref infinity in
  for _ = 1 to repeats do
    let t0 = Common.wall_s () in
    f ();
    let dt = Common.wall_s () -. t0 in
    if dt < !best then best := dt
  done;
  !best

let throughput_scenario = "fig6-llama3"

module Mutex_cache = Hashtbl.Make (Core.Scenario.Key)

let sweep_throughput () =
  Common.section
    "Sweep throughput: compiled workloads and the sharded eval cache";
  let s = Common.scenario throughput_scenario in
  let model = s.Core.Scenario.model
  and tpp_target = s.Core.Scenario.tpp_target in
  let points =
    match s.Core.Scenario.target with
    | Core.Scenario.Space sw -> Array.of_list (Core.Space.enumerate sw)
    | Core.Scenario.Point p -> [| p |]
  in
  let n_points = Array.length points in
  (* Best-of-5 even in quick mode: one cold sweep is ~3 ms, and a single
     sample is noisy enough to invert the compiled-vs-legacy ratio. *)
  let repeats = 5 in
  let at jobs f () = Core.Parallel.with_jobs jobs f in
  (* The legacy cold sweep: per-point [Design.evaluate] with the same
     per-point instrumentation (evaluation counter + latency histogram)
     [Eval.run ~cache:false] carries - exactly what it did before
     workload precompilation, so the ratio isolates the compiled
     representation. *)
  let m_evals = Core.Metrics.counter "dse_evaluations_total" in
  let m_eval_seconds = Core.Metrics.histogram "dse_eval_seconds" in
  let legacy () =
    ignore
      (Core.Parallel.map_array
         (fun p ->
           Core.Metrics.incr m_evals;
           Core.Metrics.time m_eval_seconds (fun () ->
               Core.Design.evaluate ~model p (Core.Space.build ~tpp_target p)))
         points)
  in
  let compiled () = ignore (Core.Eval.run ~cache:false s) in
  (* Sequential variants run first, before any pool domain exists; then
     the pool is spun up once so neither parallel variant pays domain
     spawn-up inside its timing (and both sequential variants saw the
     same domain-free GC). *)
  let timed_at name jobs f = (name, jobs, time_best ~repeats (at jobs f)) in
  let cold_seq =
    [ timed_at "cold-legacy" 1 legacy; timed_at "cold-compiled" 1 compiled ]
  in
  Core.Parallel.with_jobs par_jobs (fun () ->
      ignore (Core.Parallel.map_array Fun.id (Array.init 64 Fun.id)));
  let cold =
    cold_seq
    @ [
        timed_at "cold-legacy" par_jobs legacy;
        timed_at "cold-compiled" par_jobs compiled;
      ]
  in
  (* Warm lookups. Populate the real (sharded) cache, and mirror its
     contents into a reconstruction of the pre-sharding design: one
     global table behind one mutex, keyed on full per-point scenarios,
     the hash computed under the lock (inside [find_opt]). Each probe
     pass touches every point [rounds] times from [par_jobs] domains. *)
  Core.Parallel.with_jobs par_jobs (fun () -> ignore (Core.Eval.run s));
  let designs = Core.Eval.run s in
  let mcache = Mutex_cache.create 4096 in
  let mlock = Mutex.create () in
  List.iteri
    (fun i d ->
      Mutex_cache.replace mcache
        { s with Core.Scenario.target = Core.Scenario.Point points.(i) }
        d)
    designs;
  let rounds = if quick () then 4 else 16 in
  let probes = n_points * rounds in
  let probe_all probe_one =
    Core.Parallel.map_array
      (fun p ->
        let found = ref 0 in
        for _ = 1 to rounds do
          if probe_one p then incr found
        done;
        !found)
      points
  in
  let mutex_probe p =
    let key = { s with Core.Scenario.target = Core.Scenario.Point p } in
    Mutex.lock mlock;
    let r = Mutex_cache.find_opt mcache key in
    Mutex.unlock mlock;
    Option.is_some r
  in
  let warm =
    List.map
      (fun (name, probe_one) ->
        ( name,
          par_jobs,
          time_best ~repeats
            (at par_jobs (fun () -> ignore (probe_all probe_one))) ))
      [
        ("warm-mutex", mutex_probe);
        ("warm-sharded", (fun p -> Core.Eval.probe s p));
      ]
  in
  let t =
    Core.Table.create
      ~aligns:[ Core.Table.Left; Core.Table.Right; Core.Table.Right;
                Core.Table.Right ]
      [ "variant"; "jobs"; "ms"; "points/s" ]
  in
  let work = function
    | name when String.length name >= 4 && String.sub name 0 4 = "warm" ->
        probes
    | _ -> n_points
  in
  let rows =
    List.map
      (fun (name, jobs, dt) ->
        (name, jobs, dt, float_of_int (work name) /. dt))
      (cold @ warm)
  in
  List.iter
    (fun (name, jobs, dt, rate) ->
      Core.Table.add_row t
        [ name; string_of_int jobs; Printf.sprintf "%.1f" (1e3 *. dt);
          Printf.sprintf "%.0f" rate ])
    rows;
  Core.Table.print t;
  let rate_of name jobs =
    List.find_map
      (fun (n, j, _, r) -> if n = name && j = jobs then Some r else None)
      rows
  in
  (match (rate_of "cold-legacy" 1, rate_of "cold-compiled" 1) with
  | Some lg, Some cp when lg > 0. ->
      Common.note
        "[speed] cold %s sweep (%d points, 1 job): compiled %.0f points/s vs \
         legacy %.0f points/s (%.2fx)"
        throughput_scenario n_points cp lg (cp /. lg)
  | _ -> ());
  (match (rate_of "cold-legacy" par_jobs, rate_of "cold-compiled" par_jobs) with
  | Some lg, Some cp when lg > 0. ->
      Common.note
        "[speed] cold %s sweep (%d points, %d jobs): compiled %.0f points/s \
         vs legacy %.0f points/s (%.2fx)"
        throughput_scenario n_points par_jobs cp lg (cp /. lg)
  | _ -> ());
  (match (rate_of "warm-mutex" par_jobs, rate_of "warm-sharded" par_jobs) with
  | Some mx, Some sh when mx > 0. ->
      Common.note
        "[speed] warm cache (%d probes, %d jobs): sharded %.0f lookups/s vs \
         single-mutex %.0f lookups/s (%.2fx)"
        probes par_jobs sh mx (sh /. mx)
  | _ -> ());
  (try Sys.mkdir Common.results_dir 0o755 with Sys_error _ -> ());
  let json =
    Core.Json.obj
      (Common.stamp ()
      @ [
        ("scenario", Core.Json.string throughput_scenario);
        ("points", Core.Json.int n_points);
        ("repeats", Core.Json.int repeats);
        ("quick", Core.Json.bool (quick ()));
        ( "results",
          Core.Json.list
            (fun (name, jobs, dt, rate) ->
              Core.Json.obj
                [
                  ("variant", Core.Json.string name);
                  ("jobs", Core.Json.int jobs);
                  ("seconds", Core.Json.float dt);
                  ("per_second", Core.Json.float rate);
                ])
            rows );
      ])
  in
  let path = Filename.concat Common.results_dir "sweep_throughput.json" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Core.Json.to_channel ~indent:2 oc json);
  Common.note "[json] wrote %s (%d variants)" path (List.length rows)

(* --- serving throughput: the scheduler on the compiled engine path ---

   Wall-clock scheduler iterations/s over a fixed synthetic trace, legacy
   engine (one [Engine.simulate] per step) against the compiled stepper
   ([Engine.compile] + [simulate_compiled], memoized per (phase, batch,
   context-bucket)). Both engines bucket contexts identically, so the
   resulting stats are equal and the ratio isolates the stepping cost.
   Manual best-of-N for the same reason as the sweep above: one run is
   tens of milliseconds and must not be iterated inside a bechamel
   quota. *)

let serving_throughput () =
  Common.section "Serving throughput: scheduler steps on the compiled engine";
  let duration_s = if quick () then 15. else 60. in
  let trace =
    Core.Trace.synthetic ~rate_per_s:3. ~duration_s ~mean_input:512
      ~mean_output:128 ()
  in
  let device = Core.Presets.a100 and model = Core.Model.llama3_8b in
  let repeats = if quick () then 3 else 5 in
  let variants =
    [
      ( "legacy",
        { Core.Simulator.default_config with
          Core.Simulator.engine = Core.Simulator.Legacy } );
      ("compiled", Core.Simulator.default_config);
      ( "compiled-decode-fair",
        { Core.Simulator.default_config with
          Core.Simulator.policy = Core.Simulator.Decode_fair } );
    ]
  in
  let rows =
    List.map
      (fun (name, config) ->
        let stats = ref None in
        let dt =
          time_best ~repeats (fun () ->
              stats := Some (Core.Simulator.run ~config device model trace))
        in
        let s = Option.get !stats in
        let steps = s.Core.Simulator.prefill_batches
                    + s.Core.Simulator.decode_steps in
        (name, config, s, steps, dt, float_of_int steps /. dt))
      variants
  in
  let t =
    Core.Table.create
      ~aligns:[ Core.Table.Left; Core.Table.Left; Core.Table.Right;
                Core.Table.Right; Core.Table.Right; Core.Table.Right ]
      [ "variant"; "policy"; "steps"; "ms"; "steps/s"; "sim tok/s" ]
  in
  List.iter
    (fun (name, config, s, steps, dt, rate) ->
      Core.Table.add_row t
        [ name;
          Core.Simulator.policy_to_string config.Core.Simulator.policy;
          string_of_int steps; Printf.sprintf "%.1f" (1e3 *. dt);
          Printf.sprintf "%.0f" rate;
          Printf.sprintf "%.0f" s.Core.Simulator.throughput_tokens_per_s ])
    rows;
  Core.Table.print
    ~title:
      (Printf.sprintf "Llama 3 8B on A100, %d requests over %.0f s"
         (List.length trace) duration_s)
    t;
  let rate_of name =
    List.find_map
      (fun (n, _, _, _, _, r) -> if n = name then Some r else None)
      rows
  in
  (match (rate_of "legacy", rate_of "compiled") with
  | Some lg, Some cp when lg > 0. ->
      Common.note
        "[speed] serving steps (%d requests): compiled %.0f steps/s vs \
         legacy %.0f steps/s (%.2fx)"
        (List.length trace) cp lg (cp /. lg)
  | _ -> ());
  (* The two engines must tell the same story; a drift here means the
     memo key (or the bucketing) diverged from the legacy stepper. *)
  (match rows with
  | (_, _, legacy_stats, _, _, _) :: (_, _, compiled_stats, _, _, _) :: _
    when legacy_stats <> compiled_stats ->
      Common.note
        "[speed] WARNING: legacy and compiled serving stats diverge"
  | _ -> ());
  (try Sys.mkdir Common.results_dir 0o755 with Sys_error _ -> ());
  let json =
    Core.Json.obj
      (Common.stamp ()
      @ [
        ("device", Core.Json.string device.Core.Device.name);
        ("model", Core.Json.string model.Core.Model.name);
        ("requests", Core.Json.int (List.length trace));
        ("trace_duration_s", Core.Json.float duration_s);
        ("repeats", Core.Json.int repeats);
        ("quick", Core.Json.bool (quick ()));
        ( "results",
          Core.Json.list
            (fun (name, config, s, steps, dt, rate) ->
              Core.Json.obj
                [
                  ("variant", Core.Json.string name);
                  ( "engine",
                    Core.Json.string
                      (Core.Simulator.engine_to_string
                         config.Core.Simulator.engine) );
                  ( "policy",
                    Core.Json.string
                      (Core.Simulator.policy_to_string
                         config.Core.Simulator.policy) );
                  ("steps", Core.Json.int steps);
                  ("seconds", Core.Json.float dt);
                  ("steps_per_second", Core.Json.float rate);
                  ( "sim_tokens_per_second",
                    Core.Json.float s.Core.Simulator.throughput_tokens_per_s
                  );
                ])
            rows );
      ])
  in
  let path = Filename.concat Common.results_dir "serving_throughput.json" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Core.Json.to_channel ~indent:2 oc json);
  Common.note "[json] wrote %s (%d variants)" path (List.length rows)

(* --- fleet throughput: the cluster simulator over the same trace ---

   Wall-clock scheduler iterations/s across a whole fleet: the same trace
   dispatched to a homogeneous pool, a disaggregated prefill/decode
   split, and a heterogeneous mix. Each group owns its compiled stepper
   (memoized per group, so steppers can run on different domains), and
   the fleet's step rate measures routing and bookkeeping overhead on top
   of the memoized engine path.

   A second part drives the streamed engine ([Fleet.run_stream]) over an
   [ACS_BENCH_FLEET_N]-request trace that is never materialized, once on
   1 domain and once on [par_jobs], recording the parallel speedup (and
   that the two runs agree token for token). *)

(* Streamed trace length: env override, else 20K quick / 100K full. *)
let fleet_stream_n () =
  match Sys.getenv_opt "ACS_BENCH_FLEET_N" with
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n > 0 -> n
      | _ -> invalid_arg "ACS_BENCH_FLEET_N must be a positive integer")
  | None -> if quick () then 20_000 else 100_000

let fleet_throughput () =
  Common.section "Fleet throughput: multi-device cluster simulation";
  let duration_s = if quick () then 15. else 60. in
  let trace =
    Core.Trace.synthetic ~rate_per_s:6. ~duration_s ~mean_input:512
      ~mean_output:128 ()
  in
  let device = Core.Presets.a100 and model = Core.Model.llama3_8b in
  let slow =
    { device with
      Core.Device.name = "a100-slow";
      memory = Core.Memory.make ~capacity_gb:80. ~bandwidth_tb_s:1. }
  in
  let repeats = if quick () then 3 else 5 in
  let variants =
    [
      ( "homogeneous-x4",
        Core.Fleet.make [ Core.Fleet.pool ~count:4 device ] );
      ( "disaggregated-1p3d",
        Core.Fleet.make
          [
            Core.Fleet.pool ~role:Core.Fleet.Prefill ~count:1 device;
            Core.Fleet.pool ~role:Core.Fleet.Decode ~count:3 device;
          ] );
      ( "heterogeneous-affine",
        Core.Fleet.make ~routing:Core.Fleet.Phase_affine
          [
            Core.Fleet.pool ~count:2 device;
            Core.Fleet.pool ~count:2 slow;
          ] );
    ]
  in
  let rows =
    List.map
      (fun (name, fleet) ->
        let stats = ref None in
        let dt =
          time_best ~repeats (fun () ->
              stats := Some (Core.Fleet.run fleet model trace))
        in
        let fs = Option.get !stats in
        let steps =
          List.fold_left
            (fun acc ps ->
              Array.fold_left
                (fun acc s ->
                  acc + s.Core.Simulator.prefill_batches
                  + s.Core.Simulator.decode_steps)
                acc ps.Core.Fleet.per_group)
            0 fs.Core.Fleet.pools
        in
        (name, fleet, fs, steps, dt, float_of_int steps /. dt))
      variants
  in
  let t =
    Core.Table.create
      ~aligns:[ Core.Table.Left; Core.Table.Right; Core.Table.Right;
                Core.Table.Right; Core.Table.Right; Core.Table.Right ]
      [ "fleet"; "groups"; "steps"; "ms"; "steps/s"; "sim tok/s" ]
  in
  List.iter
    (fun (name, _, fs, steps, dt, rate) ->
      Core.Table.add_row t
        [ name; string_of_int fs.Core.Fleet.groups; string_of_int steps;
          Printf.sprintf "%.1f" (1e3 *. dt); Printf.sprintf "%.0f" rate;
          Printf.sprintf "%.0f" fs.Core.Fleet.throughput_tokens_per_s ])
    rows;
  Core.Table.print
    ~title:
      (Printf.sprintf "Llama 3 8B fleets, %d requests over %.0f s"
         (List.length trace) duration_s)
    t;
  (* Streamed engine scaling: the same 4-group fleet over a pull-based
     trace of [fleet_stream_n] requests (never materialized), on 1 domain
     and on [par_jobs]. The merged stats must be bit-identical; the wall
     clock gap is the domain-parallel speedup. Offered load is ~80% of
     what 4 groups sustain, so the router backlog - and with it peak
     memory - stays bounded however long the trace runs. *)
  let stream_n = fleet_stream_n () in
  let stream_rate = 8. in
  let stream_fleet = Core.Fleet.make [ Core.Fleet.pool ~count:4 device ] in
  let mk_stream () =
    Core.Trace.stream ~limit:stream_n ~rate_per_s:stream_rate ~mean_input:512
      ~mean_output:128 ()
  in
  let timed_stream jobs =
    let stats = ref None in
    let t0 = Common.wall_s () in
    Core.Parallel.with_jobs jobs (fun () ->
        stats := Some (Core.Fleet.run_stream stream_fleet model (mk_stream ())));
    (Common.wall_s () -. t0, Option.get !stats)
  in
  let dt1, fs1 = timed_stream 1 in
  let dtp, fsp = timed_stream par_jobs in
  let speedup = dt1 /. dtp in
  if fs1 <> fsp then
    Common.note
      "[speed] WARNING: streamed fleet stats differ between 1 and %d jobs"
      par_jobs;
  (* Process high-water mark, for the bounded-memory claim in the docs. *)
  let peak_rss_mb =
    try
      let ic = open_in "/proc/self/status" in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:"
              ->
                Scanf.sscanf
                  (String.sub line 6 (String.length line - 6))
                  " %d"
                  (fun kb -> Some (float_of_int kb /. 1024.))
            | _ -> scan ()
            | exception End_of_file -> None
          in
          scan ())
    with Sys_error _ | Scanf.Scan_failure _ -> None
  in
  Common.note
    "[speed] streamed fleet (%d requests, %d groups): 1 job %.2f s, %d jobs \
     %.2f s (%.2fx); %d completed, %d rejected, %d tokens%s"
    stream_n fs1.Core.Fleet.groups dt1 par_jobs dtp speedup
    fs1.Core.Fleet.completed fs1.Core.Fleet.rejected_count
    fs1.Core.Fleet.generated_tokens
    (match peak_rss_mb with
    | Some mb -> Printf.sprintf "; peak RSS %.0f MB" mb
    | None -> "");
  (try Sys.mkdir Common.results_dir 0o755 with Sys_error _ -> ());
  let json =
    Core.Json.obj
      (Common.stamp ()
      @ [
        ("device", Core.Json.string device.Core.Device.name);
        ("model", Core.Json.string model.Core.Model.name);
        ("requests", Core.Json.int (List.length trace));
        ("trace_duration_s", Core.Json.float duration_s);
        ("repeats", Core.Json.int repeats);
        ("quick", Core.Json.bool (quick ()));
        ( "results",
          Core.Json.list
            (fun (name, fleet, fs, steps, dt, rate) ->
              Core.Json.obj
                [
                  ("variant", Core.Json.string name);
                  ( "routing",
                    Core.Json.string
                      (Core.Fleet.routing_to_string fleet.Core.Fleet.routing)
                  );
                  ("groups", Core.Json.int fs.Core.Fleet.groups);
                  ( "disaggregated",
                    Core.Json.bool (Core.Fleet.disaggregated fleet) );
                  ("steps", Core.Json.int steps);
                  ("seconds", Core.Json.float dt);
                  ("steps_per_second", Core.Json.float rate);
                  ( "sim_tokens_per_second",
                    Core.Json.float fs.Core.Fleet.throughput_tokens_per_s );
                  ( "handoff_transfers",
                    Core.Json.int fs.Core.Fleet.handoff_transfers );
                ])
            rows );
        ( "stream",
          Core.Json.obj
            [
              ("requests", Core.Json.int stream_n);
              ("rate_per_s", Core.Json.float stream_rate);
              ("groups", Core.Json.int fs1.Core.Fleet.groups);
              ("seconds_1job", Core.Json.float dt1);
              ("jobs_parallel", Core.Json.int par_jobs);
              ("seconds_parallel", Core.Json.float dtp);
              ("speedup", Core.Json.float speedup);
              ("identical_across_jobs", Core.Json.bool (fs1 = fsp));
              ("completed", Core.Json.int fs1.Core.Fleet.completed);
              ("rejected", Core.Json.int fs1.Core.Fleet.rejected_count);
              ( "generated_tokens",
                Core.Json.int fs1.Core.Fleet.generated_tokens );
              ("peak_rss_mb", Core.Json.option Core.Json.float peak_rss_mb);
            ] );
      ])
  in
  let path = Filename.concat Common.results_dir "fleet_throughput.json" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Core.Json.to_channel ~indent:2 oc json);
  Common.note "[json] wrote %s (%d variants)" path (List.length rows)

(* --- search throughput: the adaptive strategies and the disk tier ---

   Wall-clock per strategy on the fig6-llama3 oracle space (budget 64,
   cold memo cache each run, so the timing includes the evaluations the
   strategy actually chose to pay for), one budget-256 halving run on the
   ~1e9-point widened lattice, and the disk tier's cold-write vs
   warm-read cost on a temp directory. *)

let search_throughput () =
  Common.section "Search throughput: adaptive strategies over the lattice";
  let s = Common.scenario throughput_scenario in
  let budget = 64 in
  let repeats = if quick () then 3 else 5 in
  let timed_strategy (name, strategy) =
    let outcome = ref None in
    let dt =
      time_best ~repeats (fun () ->
          Core.Eval.clear ();
          outcome := Some (Core.Adaptive.search ~budget ~strategy s))
    in
    (name, Option.get !outcome, dt)
  in
  let rows = List.map timed_strategy Core.Adaptive.strategies in
  (* The widened lattice: one timed cold run, budget 256. *)
  let widened = Common.scenario "search-widened" in
  let wide_outcome = ref None in
  let wide_dt =
    time_best ~repeats (fun () ->
        Core.Eval.clear ();
        wide_outcome :=
          Some
            (Core.Adaptive.search ~budget:256 ~strategy:Core.Adaptive.Halving
               widened))
  in
  let wide = Option.get !wide_outcome in
  (* Disk tier: cold run writes through, warm run (memo cleared) answers
     every evaluation from disk. *)
  let dir = Filename.temp_file "acs_bench_cache" "" in
  Sys.remove dir;
  let disk_run () =
    Core.Eval.clear ();
    Core.Adaptive.search ~budget ~strategy:Core.Adaptive.Zoom ~cache_dir:dir s
  in
  let t0 = Common.wall_s () in
  let cold_o = disk_run () in
  let disk_cold = Common.wall_s () -. t0 in
  let t0 = Common.wall_s () in
  let warm_o = disk_run () in
  let disk_warm = Common.wall_s () -. t0 in
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  (try rm_rf dir with Sys_error _ -> ());
  let t =
    Core.Table.create
      ~aligns:[ Core.Table.Left; Core.Table.Right; Core.Table.Right;
                Core.Table.Right; Core.Table.Right ]
      [ "strategy"; "evaluated"; "bounded"; "ms"; "evals/s" ]
  in
  List.iter
    (fun (name, (o : Core.Adaptive.outcome), dt) ->
      Core.Table.add_row t
        [ name; string_of_int o.Core.Adaptive.evaluated;
          string_of_int o.Core.Adaptive.bounded;
          Printf.sprintf "%.1f" (1e3 *. dt);
          Printf.sprintf "%.0f" (float_of_int o.Core.Adaptive.evaluated /. dt) ])
    rows;
  Core.Table.print t;
  Common.note
    "[speed] widened lattice (%.3g implicit points): halving budget 256 \
     evaluated %d (+%d bound probes) in %.1f ms"
    wide.Core.Adaptive.implicit wide.Core.Adaptive.evaluated
    wide.Core.Adaptive.bounded (1e3 *. wide_dt);
  Common.note
    "[speed] disk tier (zoom, budget %d): cold %.1f ms (%d stores), \
     disk-warm %.1f ms (%d hits)"
    budget (1e3 *. disk_cold)
    (Option.get cold_o.Core.Adaptive.disk).Core.Disk_cache.stores
    (1e3 *. disk_warm)
    warm_o.Core.Adaptive.provenance.Core.Adaptive.disk;
  (try Sys.mkdir Common.results_dir 0o755 with Sys_error _ -> ());
  let json =
    Core.Json.obj
      (Common.stamp ()
      @ [
        ("scenario", Core.Json.string throughput_scenario);
        ("budget", Core.Json.int budget);
        ("repeats", Core.Json.int repeats);
        ("quick", Core.Json.bool (quick ()));
        ( "strategies",
          Core.Json.list
            (fun (name, (o : Core.Adaptive.outcome), dt) ->
              Core.Json.obj
                [
                  ("strategy", Core.Json.string name);
                  ("seconds", Core.Json.float dt);
                  ("evaluated", Core.Json.int o.Core.Adaptive.evaluated);
                  ("bounded", Core.Json.int o.Core.Adaptive.bounded);
                  ( "evals_per_second",
                    Core.Json.float
                      (float_of_int o.Core.Adaptive.evaluated /. dt) );
                ])
            rows );
        ( "widened",
          Core.Json.obj
            [
              ("implicit", Core.Json.float wide.Core.Adaptive.implicit);
              ("evaluated", Core.Json.int wide.Core.Adaptive.evaluated);
              ("bounded", Core.Json.int wide.Core.Adaptive.bounded);
              ("seconds", Core.Json.float wide_dt);
            ] );
        ( "disk",
          Core.Json.obj
            [
              ("cold_seconds", Core.Json.float disk_cold);
              ("warm_seconds", Core.Json.float disk_warm);
              ( "warm_disk_hits",
                Core.Json.int warm_o.Core.Adaptive.provenance.Core.Adaptive.disk
              );
            ] );
      ])
  in
  let path = Filename.concat Common.results_dir "search_throughput.json" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Core.Json.to_channel ~indent:2 oc json);
  Common.note "[json] wrote %s" path

let run_bechamel () =
  Common.section "Microbenchmarks (bechamel): simulator throughput";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  (* The traced variant records thousands of spans per quota; keep the ring
     tiny so the retained spans don't become GC ballast that drags every
     measurement taken after it. *)
  Core.Tracing.set_capacity 64;
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] -> rows := (name, est) :: !rows
      | Some _ | None -> ())
    results;
  let rows = List.sort compare !rows in
  let t =
    Core.Table.create ~aligns:[ Core.Table.Left; Core.Table.Right ]
      [ "benchmark"; "ns/run" ]
  in
  List.iter
    (fun (name, est) -> Core.Table.add_row t [ name; Printf.sprintf "%.0f" est ])
    rows;
  Core.Table.print t;
  (* Sequential-vs-parallel sweep throughput. Ratios > 1 need real cores:
     on a single-core machine the extra domains only add overhead. *)
  let find suffix =
    List.find_opt (fun (name, _) -> String.ends_with ~suffix name) rows
  in
  (match (find seq_name, find par_name) with
  | Some (_, seq_ns), Some (_, par_ns) when par_ns > 0. ->
      Common.note
        "[speed] thinned Fig-7 sweep (%d points): %.2fx throughput with %d \
         jobs vs 1 (%d job(s) default on this machine)"
        (Core.Space.size thinned) (seq_ns /. par_ns) par_jobs (Common.jobs ())
  | _ -> Common.note "[speed] sweep benchmarks missing from OLS estimates");
  (match (find trace_off_name, find trace_on_name, find "acs/simulate-gpt3") with
  | Some (_, off_ns), Some (_, on_ns), Some (_, base_ns)
    when off_ns > 0. && base_ns > 0. ->
      Common.note
        "[speed] tracing on simulate-gpt3: untraced %.0f ns/run, disabled \
         %.0f ns/run (%.2fx - the enabled-flag branch), enabled %.0f ns/run \
         (%.2fx)"
        base_ns off_ns (off_ns /. base_ns) on_ns (on_ns /. base_ns)
  | _, _, _ -> Common.note "[speed] trace benchmarks missing from OLS estimates");
  (* Drop the bench ring and restore the default capacity (which clears). *)
  Core.Tracing.set_capacity 65536;
  Common.csv "speed.csv"
    [ "benchmark"; "ns_per_run" ]
    (List.map (fun (name, est) -> [ name; Printf.sprintf "%.1f" est ]) rows)

(* --- daemon throughput: job latency over the socket, cold vs warm ---

   Wall-clock for the same scenario submitted to a live in-process daemon
   twice: once against cold caches and once against the memo tier the
   first run left warm. The gap is what a long-running `acs daemon` buys
   over one-shot `acs run` processes. A third number prices the wire
   itself: round-trips/s of the cheapest endpoint (GET /healthz), i.e.
   connect + parse + respond with no evaluation behind it. *)

let daemon_throughput () =
  Common.section "Daemon throughput: warm-vs-cold jobs over the socket";
  let dir = Filename.temp_file "acs_bench_daemon" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  let socket = Filename.concat dir "d.sock" in
  let t =
    Core.Daemon.Server.start
      { Core.Daemon.Server.default_config with
        Core.Daemon.Server.socket;
        workers = 2;
        batch = 64;
        eval_jobs = Some (Common.jobs ());
        cache_dir = None }
  in
  Fun.protect
    ~finally:(fun () ->
      Core.Daemon.Server.stop ~drain:false t;
      try rm_rf dir with Sys_error _ -> ())
  @@ fun () ->
  let s = Common.scenario throughput_scenario in
  let manifest = Core.Scenario.to_json s in
  let n_points = Core.Scenario.size s in
  let submit () =
    let t0 = Common.wall_s () in
    let r = Core.Daemon.Client.submit_wait ~socket manifest in
    let dt = Common.wall_s () -. t0 in
    if r.Core.Daemon.Client.status <> 200 then
      failwith
        (Printf.sprintf "daemon submit failed: HTTP %d"
           r.Core.Daemon.Client.status);
    (dt, r.Core.Daemon.Client.body)
  in
  Core.Eval.clear ();
  let cold_s, _ = submit () in
  let warm_s, warm_job = submit () in
  let warm_rate =
    match Core.Json.member "warm_hit_rate" warm_job with
    | Core.Json.Number r -> r
    | _ -> 0.
  in
  (* Wire overhead: healthz round-trips (one connection each, like every
     daemon request). *)
  let pings = if quick () then 100 else 500 in
  let t0 = Common.wall_s () in
  for _ = 1 to pings do
    ignore (Core.Daemon.Client.health ~socket)
  done;
  let ping_dt = Common.wall_s () -. t0 in
  let ping_rate = float_of_int pings /. ping_dt in
  Common.note
    "[speed] daemon %s (%d points): cold %.1f ms, warm %.1f ms (%.1fx, \
     %.0f%% warm hits); healthz %.0f round-trips/s (%.0f us each)"
    throughput_scenario n_points (1e3 *. cold_s) (1e3 *. warm_s)
    (cold_s /. warm_s) (100. *. warm_rate) ping_rate (1e6 /. ping_rate);
  (try Sys.mkdir Common.results_dir 0o755 with Sys_error _ -> ());
  let json =
    Core.Json.obj
      (Common.stamp ()
      @ [
        ("scenario", Core.Json.string throughput_scenario);
        ("points", Core.Json.int n_points);
        ("cold_seconds", Core.Json.float cold_s);
        ("warm_seconds", Core.Json.float warm_s);
        ("warm_speedup", Core.Json.float (cold_s /. warm_s));
        ("warm_hit_rate", Core.Json.float warm_rate);
        ("healthz_round_trips", Core.Json.int pings);
        ("healthz_per_second", Core.Json.float ping_rate);
      ])
  in
  let path = Filename.concat Common.results_dir "daemon_throughput.json" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Core.Json.to_channel ~indent:2 oc json);
  Common.note "[json] wrote %s" path

let run () =
  (* Quick mode (ACS_BENCH_QUICK=1, the CI smoke step) runs only the
     wall-clock sweep-throughput group; the bechamel microbenchmarks need
     multi-second quotas to stabilize. *)
  if not (quick ()) then run_bechamel ();
  sweep_throughput ();
  search_throughput ();
  serving_throughput ();
  fleet_throughput ();
  daemon_throughput ()
