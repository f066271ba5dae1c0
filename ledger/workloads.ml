(* The four ledger workloads. Each drives only public [Core] functions and
   times the calls from outside; per-layer numbers come from what the
   program already exposes ([Eval.stats], the [Metrics] registry, daemon
   job records and the library's own spans) plus the ledger's spans
   around each call into a layer.

   Every workload has two modes:
   - [e2e]: set up 9 times (the median is [setup_s]), then repeat the
     workload's operation for [seconds], untraced, and verify every
     result;
   - [layers]: set up once, then run a fixed shortened version three
     times - untraced at J jobs (counts, pool idle time, the overhead
     baseline), traced at J jobs (self time per layer), and untraced at
     one job (minor-heap words, which OCaml only folds together across
     domains at collections). *)

open Core
module M = Measure

type ctx = {
  seed : int;
  seconds : float;
  scale : float;  (** shrinks every input size; 1 is the ledger proper *)
  jobs : int;  (** the domain-pool size each workload is pinned to *)
  tmp : string;  (** temporary directory, inside the working directory *)
}

let scaled ctx n ~min =
  max min (int_of_float (Float.round (float_of_int n *. ctx.scale)))

let setup_reps ctx = scaled ctx 9 ~min:3

let scenario name =
  match Scenario.find name with
  | Some s -> s
  | None -> failwith ("ledger: scenario missing from the registry: " ^ name)

let bits = Int64.bits_of_float

(* --- verification tally --- *)

type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let check t ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    Printf.eprintf "ledger: check failed: %s\n%!" what
  end

(* --- shared loops --- *)

(* Run [f] [setup_reps] times, timing each; returns the last result and
   every time. *)
let setup ctx f =
  let rec go k acc =
    let r, dt = M.timed f in
    if k = setup_reps ctx then (r, List.rev (dt :: acc)) else go (k + 1) (dt :: acc)
  in
  go 1 []

(* Call [op i] for i = 0, 1, ... and return the results in order. After
   [min_ops] (at least 1) calls it stops at [seconds], or earlier when one
   more call, as long as the mean call so far, would end more than 10%
   past [seconds]: a workload whose operation takes seconds then overruns
   the run by at most that, and leaves less unmeasured than a strict
   deadline would. *)
let repeat ctx ~min_ops op =
  let t0 = M.now () in
  let rec go i acc =
    let elapsed = M.now () -. t0 in
    if
      i >= max 1 min_ops
      && (elapsed >= ctx.seconds
         || elapsed +. (elapsed /. float_of_int i) > 1.1 *. ctx.seconds)
    then List.rev acc
    else go (i + 1) (op i :: acc)
  in
  go 0 []

let end_to_end ~setup ~items_per_s op_times =
  let tail, pct = M.tail op_times in
  ( [
      ("setup_s", M.median setup);
      ("peak_rss_mb", M.peak_rss_mb ());
      ("items_per_s", items_per_s);
      ("op_p50_ms", 1e3 *. M.median op_times);
      ("op_tail_ms", 1e3 *. tail);
    ],
    [
      ("ops", Json.int (List.length op_times));
      ("tail_percentile", Json.float pct);
      ("setup_times_s", Json.list Json.float setup);
    ] )

(* Fill the per-layer catalogue from what a workload measured; layers it
   does not exercise read 0. *)
let per_layer measured =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name Catalog.per_layer) then
        invalid_arg ("ledger: per-layer metric not in the catalogue: " ^ name))
    measured;
  List.map
    (fun (name, _) ->
      (name, Option.value ~default:0. (List.assoc_opt name measured)))
    Catalog.per_layer

let result t ~metrics ~digest ~detail =
  {
    Catalog.correct = t.failed = 0;
    attempted = t.attempted;
    failed = t.failed;
    metrics;
    digest;
    detail;
  }

(* Ring size for a traced pass: generous (the fleet pass records about a
   million spans), and checked afterwards. *)
let ring = 1 lsl 21

(* The ledger's own domain: the traced accounting partitions its
   timeline. *)
let main_domain = (Domain.self () :> int)

let engine_calls_metrics ~ops (tr : M.summary) =
  let calls = tr.M.engine_calls in
  [
    ("engine.calls", float_of_int calls /. float_of_int ops);
    ( "engine.us_per_call",
      if calls = 0 then 0. else 1e6 *. M.self_over tr "engine" /. float_of_int calls );
  ]

(* [self] maps layer -> seconds; [wall] is the accounted interval.

   Two checks. The sum of the shares and [unattributed_frac] must be 1
   within 5%: with correctly nested spans the self times telescope to the
   covered time, so this is a sanity check on span nesting and cannot
   fail otherwise. Every share must be non-negative: that one can fail,
   when a residual (the daemon's [server] share, or [unattributed] when
   the ledger's timings disagree with the spans) is charged more than its
   interval holds. *)
let shares t ~wall ~self ~unattributed =
  let total = List.fold_left (fun acc (_, s) -> acc +. s) unattributed self in
  let err = Float.abs (total -. wall) /. wall in
  check t (err <= 0.05)
    (Printf.sprintf "span nesting: layers + unattributed = %.4f s vs wall %.4f s"
       total wall);
  Printf.printf
    "  span nesting: layers %.4f s + unattributed %.4f s = %.4f s; wall %.4f s \
     (error %.2f%%)\n"
    (total -. unattributed) unattributed total wall (100. *. err);
  List.iter
    (fun (layer, _) ->
      if not (List.mem layer Catalog.layers) then
        invalid_arg ("ledger: unknown layer " ^ layer))
    self;
  let fracs =
    List.map
      (fun layer ->
        ( layer ^ ".self_frac",
          Option.value ~default:0. (List.assoc_opt layer self) /. wall ))
      Catalog.layers
    @ [ ("unattributed_frac", unattributed /. wall) ]
  in
  let negative = List.filter (fun (_, f) -> not (f >= 0.)) fracs in
  check t (negative = [])
    ("traced accounting: negative shares: "
    ^ String.concat ", " (List.map (fun (n, f) -> Printf.sprintf "%s %.6f" n f) negative));
  (fracs, [ ("accounting_error_frac", Json.float err) ])

let main_shares t ~wall (tr : M.summary) =
  let acc =
    Option.value ~default:{ M.self = []; covered = 0. }
      (List.assoc_opt main_domain tr.M.domains)
  in
  shares t ~wall ~self:acc.M.self ~unattributed:(wall -. acc.M.covered)

let check_ring t dropped =
  check t (dropped = 0)
    (Printf.sprintf "trace ring overflowed: %d spans dropped" dropped)

(* The three passes of a [layers] run for the in-process workloads;
   [work ()] runs the shortened workload once. *)
type passes = {
  untraced_wall : float;
  traced_wall : float;
  trace : M.summary;
  words : float;  (** minor words of one single-job pass *)
  busy_s : float;  (** pool busy seconds during the untraced pass *)
  maps : int;  (** pool maps during the untraced pass *)
}

let run_passes ?(verify = ignore) t work =
  let busy0 = M.gauge_sum "parallel_busy_seconds"
  and maps0 = M.counter "parallel_maps_total" in
  let (), untraced_wall = M.timed work in
  let busy_s = M.gauge_sum "parallel_busy_seconds" -. busy0
  and maps = M.counter "parallel_maps_total" - maps0 in
  verify ();
  let (), traced_wall, trace, dropped = M.traced ~capacity:ring work in
  check_ring t dropped;
  verify ();
  let (), words = M.minor_words (fun () -> Parallel.with_jobs 1 work) in
  verify ();
  { untraced_wall; traced_wall; trace; words; busy_s; maps }

let common_layers t ctx p ~ops =
  let ops_f = float_of_int ops in
  let overhead = (p.traced_wall /. p.untraced_wall) -. 1. in
  Printf.printf "  tracing overhead: %+.1f%% (traced %.3f s vs untraced %.3f s)\n"
    (100. *. overhead) p.traced_wall p.untraced_wall;
  let share_metrics, share_detail = main_shares t ~wall:p.traced_wall p.trace in
  ( share_metrics
    @ [ ("tracing.overhead_frac", overhead) ]
    @ engine_calls_metrics ~ops p.trace
    @ [
        ("parallel.maps", float_of_int p.maps /. ops_f);
        ( "parallel.idle_frac",
          1. -. (p.busy_s /. (float_of_int ctx.jobs *. p.untraced_wall)) );
        ("gc.minor_words_per_op", p.words /. ops_f);
      ],
    share_detail
    @ [
        (* Work the helper domains did off the main domain's timeline. *)
        ("helper_worker_s", Json.float p.trace.M.worker_s);
        ("traced_wall_s", Json.float p.traced_wall);
        ("untraced_wall_s", Json.float p.untraced_wall);
        ("spans", Json.int p.trace.M.spans);
      ] )

(* ===================================================================
   sweep-cold: the `acs run` / paper-figure path
   =================================================================== *)

(* The registry's enumerable sweeps (everything but the ~1e9-point
   widened lattice and single points). *)
let enumerable_limit = 1_000_000

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let sweep_scenarios ctx =
  let all =
    List.filter
      (fun s ->
        match s.Scenario.target with
        | Scenario.Space _ -> Scenario.size s <= enumerable_limit
        | Scenario.Point _ -> false)
      Scenario.registry
  in
  let k = scaled ctx (List.length all) ~min:1 in
  List.filteri (fun i _ -> i < k) (shuffle (Random.State.make [| ctx.seed |]) all)

let sweep_round scs =
  Tracing.with_span "ledger.round" (fun () ->
      Eval.clear ();
      List.map (fun sc -> (sc, Eval.run sc)) scs)

(* Order-independent fingerprint of a round: by scenario name. *)
let round_digest results =
  M.digest_of (fun buf ->
      List.iter
        (fun ((sc : Scenario.t), ds) ->
          Buffer.add_string buf sc.Scenario.name;
          List.iter (M.add_design buf) ds)
        (List.sort
           (fun ((a : Scenario.t), _) ((b : Scenario.t), _) ->
             String.compare a.Scenario.name b.Scenario.name)
           results))

(* The compiled engine behind [Eval] must agree bit for bit with the
   per-op reference fold on seed-sampled points. *)
let engine_spot_check t ctx results =
  let rng = Random.State.make [| ctx.seed; 32 |] in
  let arr = Array.of_list (List.map (fun (sc, ds) -> (sc, Array.of_list ds)) results) in
  for _ = 1 to 32 do
    let (sc : Scenario.t), ds = arr.(Random.State.int rng (Array.length arr)) in
    let d = ds.(Random.State.int rng (Array.length ds)) in
    let r =
      Engine.simulate ?calib:sc.Scenario.calib ?tp:sc.Scenario.tp
        ?request:sc.Scenario.request d.Design.device sc.Scenario.model
    in
    check t
      (bits r.Engine.ttft_s = bits d.Design.ttft_s
      && bits r.Engine.tbt_s = bits d.Design.tbt_s)
      (Printf.sprintf "%s: design differs from Engine.simulate" sc.Scenario.name)
  done

let sweep_points scs = List.fold_left (fun acc s -> acc + Scenario.size s) 0 scs

let sweep_e2e ctx =
  let t = tally () in
  let scs, setup =
    setup ctx (fun () ->
        let scs = sweep_scenarios ctx in
        ignore (sweep_round scs);
        scs)
  in
  let reference = round_digest (sweep_round scs) in
  let last = ref [] in
  let times =
    repeat ctx ~min_ops:3 (fun i ->
        let results, dt = M.timed (fun () -> sweep_round scs) in
        check t (round_digest results = reference)
          (Printf.sprintf "round %d designs differ from the first round" i);
        last := results;
        dt)
  in
  engine_spot_check t ctx !last;
  let points = sweep_points scs in
  let metrics, detail =
    end_to_end ~setup
      ~items_per_s:
        (float_of_int (points * List.length times)
        /. List.fold_left ( +. ) 0. times)
      times
  in
  result t ~metrics ~digest:reference
    ~detail:
      (detail
      @ [
          ("scenarios", Json.int (List.length scs));
          ("points_per_round", Json.int points);
          ("evaluations_per_round", Json.int (Eval.stats ()).Eval.evaluations);
        ])

let sweep_layers ctx =
  let t = tally () in
  let scs = sweep_scenarios ctx in
  ignore (sweep_round scs);
  let reference = round_digest (sweep_round scs) in
  let rounds = 3 in
  (* Verified after each pass, so hashing stays out of the timed work. *)
  let last = ref [] and stats = ref (Eval.stats ()) in
  let work () =
    for _ = 1 to rounds do
      last := sweep_round scs;
      stats := Eval.stats ()
    done
  in
  let verify () = check t (round_digest !last = reference) "round designs differ" in
  let p = run_passes ~verify t work in
  let st = !stats in
  let common, detail = common_layers t ctx p ~ops:rounds in
  let points = sweep_points scs in
  let metrics =
    per_layer
      (common
      @ [
          ("eval.evaluations", float_of_int st.Eval.evaluations);
          ( "eval.hit_rate",
            float_of_int st.Eval.hits /. float_of_int (max 1 st.Eval.lookups) );
          ("gc.minor_words_per_point", p.words /. float_of_int (rounds * points));
        ])
  in
  result t ~metrics ~digest:reference ~detail

(* ===================================================================
   search-widened: the `acs search` path
   =================================================================== *)

let strategies = Array.of_list Adaptive.strategies

let search_budget ctx = scaled ctx 1024 ~min:16

(* Search i: strategies rotate, the search seed is seed + i, and the memo
   cache starts cold. *)
let search_op ctx sc i =
  let _, strategy = strategies.(i mod Array.length strategies) in
  Eval.clear ();
  M.timed (fun () ->
      Tracing.with_span "ledger.search" (fun () ->
          Adaptive.search ~budget:(search_budget ctx) ~seed:(ctx.seed + i)
            ~strategy sc))

let outcome_digest (o : Adaptive.outcome) =
  M.digest_of (fun buf ->
      Buffer.add_string buf (Adaptive.strategy_to_string o.Adaptive.strategy);
      M.add_int buf o.Adaptive.evaluated;
      M.add_int buf o.Adaptive.bounded;
      match o.Adaptive.best with
      | Some d -> M.add_design buf d
      | None -> Buffer.add_string buf "none")

let check_outcome t ctx i (o : Adaptive.outcome) =
  let pv = o.Adaptive.provenance in
  check t
    (o.Adaptive.evaluated <= search_budget ctx
    && pv.Adaptive.memory + pv.Adaptive.disk + pv.Adaptive.cold
       = o.Adaptive.evaluated
    && o.Adaptive.disk = None)
    (Printf.sprintf "search %d: budget or provenance accounting broken" i)

let search_e2e ctx =
  let t = tally () in
  let sc, setup =
    setup ctx (fun () ->
        let sc = scenario "search-widened" in
        ignore (search_op ctx sc 0);
        sc)
  in
  let runs =
    repeat ctx ~min_ops:(Array.length strategies) (fun i ->
        let o, dt = search_op ctx sc i in
        check_outcome t ctx i o;
        (outcome_digest o, dt))
  in
  (* A repeated search seed must reproduce best and evaluated. *)
  let firsts = List.filteri (fun i _ -> i < Array.length strategies) runs in
  List.iteri
    (fun i (d, _) ->
      let o, _ = search_op ctx sc i in
      check t (outcome_digest o = d)
        (Printf.sprintf "search %d is not reproducible" i))
    firsts;
  let times = List.map snd runs in
  let metrics, detail =
    end_to_end ~setup
      ~items_per_s:
        (float_of_int (List.length times) /. List.fold_left ( +. ) 0. times)
      times
  in
  result t ~metrics
    ~digest:(M.digest_of (fun buf -> List.iter (fun (d, _) -> Buffer.add_string buf d) firsts))
    ~detail:(detail @ [ ("budget", Json.int (search_budget ctx)) ])

let search_layers ctx =
  let t = tally () in
  let sc = scenario "search-widened" in
  ignore (search_op ctx sc 0);
  let searches = 24 in
  let outcomes = ref [] and evals = ref [] in
  let work () =
    outcomes := [];
    evals := [];
    for i = 0 to searches - 1 do
      let o, _ = search_op ctx sc i in
      check_outcome t ctx i o;
      outcomes := o :: !outcomes;
      evals := Eval.stats () :: !evals
    done
  in
  let p = run_passes t work in
  let common, detail = common_layers t ctx p ~ops:searches in
  let n = float_of_int searches in
  let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
  let evaluated = sum (fun (o : Adaptive.outcome) -> o.Adaptive.evaluated) !outcomes in
  let bounded = sum (fun (o : Adaptive.outcome) -> o.Adaptive.bounded) !outcomes in
  let e = sum (fun (s : Eval.stats) -> s.Eval.evaluations) !evals in
  let lookups = sum (fun (s : Eval.stats) -> s.Eval.lookups) !evals in
  let hits = sum (fun (s : Eval.stats) -> s.Eval.hits) !evals in
  let metrics =
    per_layer
      (common
      @ [
          ("eval.evaluations", float_of_int e /. n);
          ("eval.hit_rate", float_of_int hits /. float_of_int (max 1 lookups));
          ("adaptive.evaluated_per_search", float_of_int evaluated /. n);
          ("adaptive.bounded_per_search", float_of_int bounded /. n);
          ( "adaptive.budget_used_frac",
            float_of_int evaluated /. (n *. float_of_int (search_budget ctx)) );
          ("gc.minor_words_per_point", p.words /. float_of_int (max 1 lookups));
        ])
  in
  result t ~metrics
    ~digest:
      (M.digest_of (fun buf ->
           List.iter (fun o -> Buffer.add_string buf (outcome_digest o)) !outcomes))
    ~detail

(* ===================================================================
   fleet-stream: the `acs fleet --stream` path
   =================================================================== *)

(* One operation streams the bounded-memory path's full-size trace, so a
   regression that grows with the stream's length (memory, or cost that
   appears only after many diurnal and burst cycles) shows in full. *)
let fleet_requests ctx = scaled ctx 500_000 ~min:200

(* The traced pass: enough requests for one whole diurnal period, with a
   margin (21,000 requests spanned 3,718-3,815 s on two seeds). It records
   about 44 spans per request, so this also sets the traced process's
   memory: about 400 MB. *)
let fleet_traced_requests ctx = scaled ctx 23_000 ~min:200
let diurnal_period_s = 3600.

let fleet_stream ctx n =
  Trace.stream ~seed:ctx.seed
    ~shape:
      (Trace.Compose
         ( Trace.Diurnal { period_s = diurnal_period_s; trough = 0.3 },
           Trace.Bursts { every_s = 600.; width_s = 30.; factor = 3. } ))
    ~limit:n ~rate_per_s:8. ~mean_input:512 ~mean_output:128 ()

let fleet_run ctx n =
  let fleet =
    Fleet.make ~routing:Fleet.Least_loaded [ Fleet.pool ~count:4 Presets.a100 ]
  in
  let stream = fleet_stream ctx n in
  Tracing.with_span "ledger.stream" (fun () ->
      Fleet.run_stream ~slo:(2., 0.2) fleet Model.llama3_8b stream)

let fleet_steps (fs : Fleet.fleet_stats) =
  List.fold_left
    (fun acc ps ->
      Array.fold_left
        (fun acc s -> acc + s.Simulator.prefill_batches + s.Simulator.decode_steps)
        acc ps.Fleet.per_group)
    0 fs.Fleet.pools

let fleet_digest (fs : Fleet.fleet_stats) =
  M.digest_of (fun buf ->
      List.iter (M.add_int buf)
        [ fs.Fleet.completed; fs.Fleet.rejected_count; fs.Fleet.generated_tokens;
          fs.Fleet.produced_tokens; fleet_steps fs ];
      List.iter (M.add_float buf)
        [ fs.Fleet.makespan_s; fs.Fleet.p50_ttft_s; fs.Fleet.p95_ttft_s;
          fs.Fleet.p50_tbt_s; fs.Fleet.p95_tbt_s;
          Option.value ~default:nan fs.Fleet.slo_attained ])

let check_fleet t n (fs : Fleet.fleet_stats) =
  check t
    (fs.Fleet.completed + fs.Fleet.rejected_count = n
    && fs.Fleet.generated_tokens = fs.Fleet.produced_tokens)
    (Printf.sprintf
       "fleet: %d completed + %d rejected of %d; generated %d vs produced %d"
       fs.Fleet.completed fs.Fleet.rejected_count n fs.Fleet.generated_tokens
       fs.Fleet.produced_tokens)

let fleet_e2e ctx =
  let t = tally () in
  let n = fleet_requests ctx in
  (* Set-up builds the fleet and a stream and runs a 2,500-request
     warm-up through them. *)
  let (), setup = setup ctx (fun () -> ignore (fleet_run ctx (max 1 (n / 200)))) in
  let reference = ref None and makespan = ref 0. in
  let times =
    repeat ctx ~min_ops:2 (fun _ ->
        let fs, dt = M.timed (fun () -> fleet_run ctx n) in
        check_fleet t n fs;
        let d = fleet_digest fs in
        (match !reference with
        | None -> reference := Some d
        | Some r -> check t (d = r) "fleet: repeated stream gave different statistics");
        makespan := fs.Fleet.makespan_s;
        dt)
  in
  let metrics, detail =
    end_to_end ~setup
      ~items_per_s:
        (float_of_int (n * List.length times) /. List.fold_left ( +. ) 0. times)
      times
  in
  result t ~metrics
    ~digest:(Option.get !reference)
    ~detail:
      (detail @ [ ("requests_per_op", Json.int n); ("makespan_s", Json.float !makespan) ])

let fleet_layers ctx =
  let t = tally () in
  let n = fleet_traced_requests ctx in
  ignore (fleet_run ctx n);
  (* Trace generation, timed apart from the fleet: an identically seeded
     drain of the same stream. *)
  let drain () =
    Tracing.with_span "ledger.trace_gen" (fun () ->
        let s = fleet_stream ctx n in
        while Trace.next s <> None do
          ()
        done)
  in
  let stats = ref None and routed = ref 0 in
  let work () =
    drain ();
    let r0 = M.counter "fleet_routed_total" in
    let fs = fleet_run ctx n in
    routed := M.counter "fleet_routed_total" - r0;
    check_fleet t n fs;
    stats := Some fs
  in
  let p = run_passes t work in
  let fs = Option.get !stats in
  if ctx.scale >= 1. then
    check t
      (fs.Fleet.makespan_s >= diurnal_period_s)
      (Printf.sprintf "fleet: the traced stream spans %.0f s, less than one diurnal period"
         fs.Fleet.makespan_s);
  let steps = fleet_steps fs in
  let (), gen_s = M.timed drain in
  let common, detail = common_layers t ctx p ~ops:1 in
  let metrics =
    per_layer
      (common
      @ [
          ("serving.steps", float_of_int steps);
          ("fleet.routed", float_of_int !routed);
          ("gc.minor_words_per_step", p.words /. float_of_int steps);
        ])
  in
  result t ~metrics ~digest:(fleet_digest fs)
    ~detail:
      (detail
      @ [
          ("requests_per_op", Json.int n);
          ("makespan_s", Json.float fs.Fleet.makespan_s);
          ("trace_gen_s", Json.float gen_s);
          ( "fleet_ns_per_step",
            Json.float (1e9 *. (p.untraced_wall -. gen_s) /. float_of_int steps) );
        ])

(* ===================================================================
   daemon-mixed: the `acs submit` path
   =================================================================== *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* Commit pending filesystem metadata (on a journaling filesystem an
   fsync commits the whole journal), so the thousands of cache entries a
   daemon run creates and deletes are paid for here, untimed, rather than
   inside the next timed section or the next process's set-up. *)
let sync_dir path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd
  | exception Unix.Unix_error _ -> ()

type daemon = { server : Daemon.Server.t; socket : string; dir : string; cache : string }

let daemon_counter = ref 0

let primed = [ "fig6-llama3"; "fig6-gpt3" ]

(* What the ledger does before each daemon starts, untimed: a fresh
   directory for its socket and disk tier, and a cleared memo cache. *)
let fresh_daemon_dir ctx =
  incr daemon_counter;
  let dir = Filename.concat ctx.tmp (Printf.sprintf "d%d" !daemon_counter) in
  Fs.mkdir_p dir;
  Eval.clear ();
  dir

(* Start a daemon in [dir] and wait until /healthz answers. *)
let start_daemon dir =
  let socket = Filename.concat dir "s" and cache = Filename.concat dir "cache" in
  let server =
    Daemon.Server.start
      {
        Daemon.Server.socket;
        workers = 2;
        queue = 8;
        batch = 64;
        throttle_s = 0.;
        eval_jobs = Some 1;
        cache_dir = Some cache;
      }
  in
  (* [start] is listening when it returns, so the first probe answers. *)
  (match Daemon.Client.health ~socket with
  | { Daemon.Client.status = 200; _ } -> ()
  | { Daemon.Client.status; _ } ->
      failwith (Printf.sprintf "ledger: /healthz answered %d" status));
  { server; socket; dir; cache }

(* Prime the two fig6 scenarios: cold evaluations written to the disk
   tier, after which resubmitting them reads the memo. *)
let prime t d =
  List.iter
    (fun name ->
      let r = Daemon.Client.submit_wait ~socket:d.socket (Json.string name) in
      check t (r.Daemon.Client.status = 200) ("priming " ^ name))
    primed

let ready_daemon t ctx =
  let d = start_daemon (fresh_daemon_dir ctx) in
  prime t d;
  d

let stop_daemon d =
  Daemon.Server.stop d.server;
  (try rm_rf d.dir with Sys_error _ -> ());
  sync_dir (Filename.dirname d.dir)

type spec = { payload : Json.t; sc : Scenario.t; fresh : bool }

(* The job sequence, fixed in advance from the seed: nine in ten resubmit
   a primed scenario by name (memo reads); every tenth submits a
   fresh-context fig6-llama3 manifest at a seed-drawn TPP target (cold
   evaluations plus a disk write per point). *)
let job_sequence ctx n =
  let rng = Random.State.make [| ctx.seed; 10 |] in
  let llama = scenario "fig6-llama3" and gpt = scenario "fig6-gpt3" in
  let used = Hashtbl.create 16 in
  List.init n (fun k ->
      if (k + 1) mod 10 = 0 then begin
        let rec draw () =
          let tpp = 2400 + Random.State.int rng 2399 in
          if Hashtbl.mem used tpp then draw ()
          else begin
            Hashtbl.add used tpp ();
            tpp
          end
        in
        let tpp = draw () in
        let sc =
          {
            llama with
            Scenario.tpp_target = float_of_int tpp;
            name = Printf.sprintf "fig6-llama3-tpp%d" tpp;
          }
        in
        { payload = Scenario.to_json sc; sc; fresh = true }
      end
      else
        let sc = if Random.State.bool rng then llama else gpt in
        { payload = Json.string sc.Scenario.name; sc; fresh = false })

type job_result = {
  spec : spec;
  latency_s : float;  (** client-observed *)
  response : (Daemon.Client.response, string) Stdlib.result;
}

let submit d spec =
  let response, latency_s =
    M.timed (fun () ->
        try
          Ok
            (Tracing.with_span "ledger.job" (fun () ->
                 Daemon.Client.submit_wait ~socket:d.socket spec.payload))
        with Daemon.Client.Error m -> Error m)
  in
  { spec; latency_s; response }

(* [clients] closed-loop client threads work through the sequence. *)
let run_clients d ~clients specs =
  let specs = Array.of_list specs in
  let out = Array.make (Array.length specs) None in
  let next = Atomic.make 0 in
  let client () =
    let rec loop () =
      let k = Atomic.fetch_and_add next 1 in
      if k < Array.length specs then begin
        out.(k) <- Some (submit d specs.(k));
        loop ()
      end
    in
    loop ()
  in
  List.iter Thread.join (List.init clients (fun _ -> Thread.create client ()));
  Array.to_list (Array.map Option.get out)

(* The job summary a daemon should return: what the in-process engine
   gives for the same scenario. *)
let expected_summary (sc : Scenario.t) =
  let ds = Eval.run sc in
  let ok = List.filter (fun d -> Scenario.compliant sc d && Design.manufacturable d) ds in
  let best f = List.fold_left (fun acc d -> Float.min acc (f d)) infinity ok in
  ( List.length ds,
    List.length ok,
    (if ok = [] then None else Some (best (fun d -> d.Design.ttft_s))),
    if ok = [] then None else Some (best (fun d -> d.Design.tbt_s)) )

(* Expected summaries by scenario name, for every scenario in [specs].
   The daemon runs in this process and fills the same memo cache, so the
   cache is cleared first: the expectations are then evaluated afresh
   instead of read back from what the daemon wrote. Call it only when no
   daemon job is running. *)
let expectations specs =
  Eval.clear ();
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun spec ->
      let name = spec.sc.Scenario.name in
      if not (Hashtbl.mem tbl name) then Hashtbl.add tbl name (expected_summary spec.sc))
    specs;
  tbl

let job_field name j = Json.member name j
let job_time name j = Json.to_option Json.to_float (job_field name j)

let summary_of_job j =
  let r = job_field "result" j in
  let opt name = Json.to_option Json.to_float (Json.member name r) in
  ( Json.to_int (Json.member "designs" r),
    Json.to_int (Json.member "compliant" r),
    opt "best_ttft_s",
    opt "best_tbt_s" )

let same_summary (d1, c1, t1, b1) (d2, c2, t2, b2) =
  let same a b =
    match (a, b) with
    | Some x, Some y -> bits x = bits y
    | None, None -> true
    | _ -> false
  in
  d1 = d2 && c1 = c2 && same t1 t2 && same b1 b2

(* Verify every job: HTTP 200, status done, and a summary equal to the
   in-process result in [expected] (from [expectations]). Returns the
   digest over the sequence. *)
let verify_jobs t expected results =
  let expect (sc : Scenario.t) = Hashtbl.find expected sc.Scenario.name in
  M.digest_of (fun buf ->
      List.iteri
        (fun k r ->
          let summary =
            match r.response with
            | Ok { Daemon.Client.status = 200; body } -> (
                match Json.to_str (job_field "status" body) with
                | "done" -> (
                    match summary_of_job body with
                    | s when same_summary s (expect r.spec.sc) -> Ok s
                    | _ -> Error "summary differs from the in-process result"
                    | exception Json.Error m -> Error ("malformed job record: " ^ m))
                | status ->
                    Error
                      (Printf.sprintf "status %s: %s" status
                         (Json.to_string (job_field "error" body)))
                | exception Json.Error m -> Error ("malformed job record: " ^ m))
            | Ok { Daemon.Client.status; body } ->
                Error (Printf.sprintf "HTTP %d: %s" status (Json.to_string body))
            | Error m -> Error m
          in
          check t (Result.is_ok summary)
            (Printf.sprintf "daemon job %d (%s): %s" k r.spec.sc.Scenario.name
               (match summary with Ok _ -> "" | Error m -> m));
          Buffer.add_string buf r.spec.sc.Scenario.name;
          match summary with
          | Ok (designs, compliant, ttft, tbt) ->
              M.add_int buf designs;
              M.add_int buf compliant;
              List.iter
                (fun x -> M.add_float buf (Option.value ~default:nan x))
                [ ttft; tbt ]
          | Error _ -> Buffer.add_string buf "failed")
        results)

let daemon_jobs ctx = scaled ctx 200 ~min:10

let daemon_e2e ctx =
  let t = tally () in
  (* Set-up is the daemon's start until /healthz answers. Priming is left
     out: its 1,024 disk writes took 0.09 to 0.68 s from one run to the
     next on a 2-core KVM guest, whose file creation swung tenfold, and
     that would drown the start-up cost set-up guards. Its time is in the
     detail line. *)
  let setup =
    List.init (setup_reps ctx) (fun _ ->
        let dir = fresh_daemon_dir ctx in
        let d, dt = M.timed (fun () -> start_daemon dir) in
        stop_daemon d;
        dt)
  in
  let specs = job_sequence ctx (daemon_jobs ctx) in
  let clients = min 2 (Measure.cores ()) in
  (* The fixed sequence, each time on a fresh primed daemon, for as long as
     --seconds allows. Only a whole sequence is comparable between runs:
     every fresh job grows the disk tier, and later jobs pay for it. *)
  let primes = ref [] in
  let sequences =
    repeat ctx ~min_ops:1 (fun _ ->
        let d = start_daemon (fresh_daemon_dir ctx) in
        Fun.protect
          ~finally:(fun () -> stop_daemon d)
          (fun () ->
            primes := snd (M.timed (fun () -> prime t d)) :: !primes;
            M.timed (fun () -> run_clients d ~clients specs)))
  in
  let expected = expectations specs in
  (* Every sequence is verified; they all run the same jobs, so the
     first one's digest stands for the run. *)
  let digests = List.map (fun (results, _) -> verify_jobs t expected results) sequences in
  let results = List.concat_map fst sequences in
  let metrics, detail =
    end_to_end ~setup
      ~items_per_s:
        (float_of_int (List.length results)
        /. List.fold_left (fun acc (_, wall) -> acc +. wall) 0. sequences)
      (List.map (fun r -> r.latency_s) results)
  in
  result t ~metrics ~digest:(List.hd digests)
    ~detail:
      (detail
      @ [
          ("clients", Json.int clients);
          ("sequences", Json.int (List.length sequences));
          ("jobs_per_sequence", Json.int (List.length specs));
          ("prime_s", Json.list Json.float (List.rev !primes));
        ])

(* Per-job decomposition from the job record: queue wait, server run,
   and the HTTP/stream overhead the client saw on top. *)
type record = { wait_s : float; run_s : float; http_s : float; warm : int; looked : int; points : int }

let record_of r =
  match r.response with
  | Ok { Daemon.Client.body; _ } -> (
      match
        ( job_time "submitted_at" body,
          job_time "started_at" body,
          job_time "finished_at" body )
      with
      | Some sub, Some start, Some fin ->
          let cache = job_field "cache" body in
          let count name = Json.to_int (Json.member name cache) in
          let memo = count "memo" and disk = count "disk" and cold = count "cold" in
          Some
            {
              wait_s = start -. sub;
              run_s = fin -. start;
              http_s = r.latency_s -. (fin -. sub);
              warm = memo + disk;
              looked = memo + disk + cold;
              points = Json.to_int (job_field "total" body);
            }
      | _ -> None)
  | Error _ -> None

let daemon_layers ctx =
  let t = tally () in
  (* Jobs past the last fresh one (the 30th) see the final directory,
     which is what [disk.open_share_of_warm_job] compares against. *)
  let n = scaled ctx 35 ~min:15 in
  let specs = job_sequence ctx n in
  let llama = scenario "fig6-llama3" in
  (* A throwaway daemon first, as the other workloads run their operation
     once before measuring: the first daemon in a process also pays for
     growing the heap. *)
  let d = ready_daemon t ctx in
  List.iteri (fun i spec -> if i < 10 then ignore (submit d spec)) specs;
  stop_daemon d;
  (* Untraced, one client: counts, job records, disk and wire probes. *)
  let d = ready_daemon t ctx in
  let e0 = Eval.stats () in
  let results, untraced_wall = M.timed (fun () -> List.map (submit d) specs) in
  let e1 = Eval.stats () in
  let records = List.filter_map record_of results in
  let entries = Array.length (Sys.readdir d.cache) in
  let open_s =
    M.median
      (List.init 3 (fun _ -> snd (M.timed (fun () -> Disk_cache.open_dir ~dir:d.cache llama))))
  in
  let healthz =
    M.median
      (List.init 200 (fun _ ->
           snd (M.timed (fun () -> ignore (Daemon.Client.health ~socket:d.socket)))))
  in
  stop_daemon d;
  (* Traced, one client: the client's wait per job splits into HTTP,
     queue wait and server run; the run splits further by the eval and
     engine spans the worker domains recorded. *)
  let d = ready_daemon t ctx in
  let traced_results, traced_wall, trace, dropped =
    M.traced ~capacity:ring (fun () -> List.map (submit d) specs)
  in
  stop_daemon d;
  check_ring t dropped;
  let traced_records = List.filter_map record_of traced_results in
  check t
    (List.length traced_records = n)
    "traced daemon run: a job record is missing";
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0. traced_records in
  let worker_self = M.self_over ~keep:(fun dom -> dom <> main_domain) trace in
  let in_jobs = [ "eval"; "engine"; "parallel" ] in
  let worker = List.map (fun l -> (l, worker_self l)) in_jobs in
  let self =
    [
      ("http", sum (fun r -> r.http_s));
      ("jobq", sum (fun r -> r.wait_s));
      ( "server",
        sum (fun r -> r.run_s) -. List.fold_left (fun acc (_, s) -> acc +. s) 0. worker );
    ]
    @ worker
  in
  let client_s =
    List.fold_left (fun acc r -> acc +. r.latency_s) 0. traced_results
  in
  let share_metrics, share_detail =
    shares t ~wall:traced_wall ~self ~unattributed:(traced_wall -. client_s)
  in
  (* Allocation per job: a whole daemon lifetime with the jobs minus one
     without them. Worker domains fold their words into the global count
     only when joined, so each lifetime ends inside the measurement. *)
  let lifetime jobs =
    M.minor_words (fun () ->
        let d = ready_daemon t ctx in
        let r = List.map (submit d) jobs in
        stop_daemon d;
        r)
  in
  let gc_results, with_jobs = lifetime specs in
  let _, without = lifetime [] in
  let words = with_jobs -. without in
  let expected = expectations specs in
  let digest = verify_jobs t expected results in
  ignore (verify_jobs t expected traced_results);
  ignore (verify_jobs t expected gc_results);
  let nf = float_of_int n in
  let isum f = List.fold_left (fun acc r -> acc + f r) 0 records in
  (* Warm jobs on the final directory: those after the last fresh one. *)
  let warm_latencies =
    List.fold_left
      (fun acc r -> if r.spec.fresh then [] else r.latency_s :: acc)
      [] results
  in
  let overhead = (traced_wall /. untraced_wall) -. 1. in
  Printf.printf "  tracing overhead: %+.1f%% (traced %.3f s vs untraced %.3f s)\n"
    (100. *. overhead) traced_wall untraced_wall;
  let p q f = M.quantile (List.map f records) q in
  let metrics =
    per_layer
      (share_metrics
      @ [
          ("tracing.overhead_frac", overhead);
        ]
      @ engine_calls_metrics ~ops:n trace
      @ [
          ("eval.evaluations", float_of_int (e1.Eval.evaluations - e0.Eval.evaluations) /. nf);
          ( "eval.hit_rate",
            float_of_int (e1.Eval.hits - e0.Eval.hits)
            /. float_of_int (max 1 (e1.Eval.lookups - e0.Eval.lookups)) );
          ("parallel.idle_frac", 1.);
          ( "daemon.warm_hit_rate",
            float_of_int (isum (fun r -> r.warm))
            /. float_of_int (max 1 (isum (fun r -> r.looked))) );
          ("disk.entries", float_of_int entries);
          ("disk.open_share_of_warm_job", open_s /. M.median warm_latencies);
          ("gc.minor_words_per_op", words /. nf);
          ("gc.minor_words_per_point", words /. float_of_int (isum (fun r -> r.points)));
        ])
  in
  result t ~metrics ~digest
    ~detail:
      (share_detail
      @ [
          ("jobs_per_pass", Json.int n);
          ("traced_wall_s", Json.float traced_wall);
          ("untraced_wall_s", Json.float untraced_wall);
          ("spans", Json.int trace.M.spans);
          ("jobq_wait_ms_p50", Json.float (1e3 *. p 0.5 (fun r -> r.wait_s)));
          ("jobq_wait_ms_p95", Json.float (1e3 *. p 0.95 (fun r -> r.wait_s)));
          ("server_run_ms_p50", Json.float (1e3 *. p 0.5 (fun r -> r.run_s)));
          ("server_run_ms_p95", Json.float (1e3 *. p 0.95 (fun r -> r.run_s)));
          ("http_overhead_ms_p50", Json.float (1e3 *. p 0.5 (fun r -> r.http_s)));
          ("http_healthz_us", Json.float (1e6 *. healthz));
          ("disk_open_ms", Json.float (1e3 *. open_s));
          ("final_warm_job_ms_p50", Json.float (1e3 *. M.median warm_latencies));
          ( "eval_us_per_point",
            Json.float
              (1e6 *. M.hist_sum "dse_eval_seconds"
              /. float_of_int (max 1 (M.counter "dse_evaluations_total"))) );
        ])

(* The library creates some metric handles lazily and first forces them
   inside parallel maps or on whichever daemon worker gets there first;
   two domains forcing one at once raise CamlinternalLazy.Undefined. It
   failed about one 2-domain fleet process in ten, and the first two
   concurrent warm daemon jobs (the memo-hit counter). A single-job
   evaluation (a miss, then a hit) and fleet run force them on this
   domain first, so the race cannot fail a measured operation. The pool's
   own chunk counter is forced by every domain in the first pool map, so
   that map runs here too, before anything is measured: it still lost the
   race in 4 of 1,500 processes, killing the pool's helper domain, and the
   caller then starts the process over. *)
let warm_up ~jobs =
  Parallel.with_jobs 1 (fun () ->
      let sc = scenario "a100-proxy" in
      ignore (Eval.run sc);
      ignore (Eval.run sc);
      Eval.clear ();
      ignore
        (Fleet.run_stream
           (Fleet.make [ Fleet.pool ~count:1 Presets.a100 ])
           Model.llama3_8b
           (Trace.stream ~limit:8 ~rate_per_s:8. ~mean_input:512 ~mean_output:128 ())));
  ignore (Parallel.map_array ~jobs ~chunk:1 succ (Array.init (2 * jobs) Fun.id))

(* ===================================================================
   The registry of workloads
   =================================================================== *)

type t = {
  name : string;
  e2e : ctx -> Catalog.result;
  layers : ctx -> Catalog.result;
}

let all =
  [
    {
      name = "sweep-cold";
      e2e = sweep_e2e;
      layers = sweep_layers;
    };
    {
      name = "search-widened";
      e2e = search_e2e;
      layers = search_layers;
    };
    {
      name = "fleet-stream";
      e2e = fleet_e2e;
      layers = fleet_layers;
    };
    {
      name = "daemon-mixed";
      e2e = daemon_e2e;
      layers = daemon_layers;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
