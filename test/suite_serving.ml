open Core
open Helpers

let small_trace =
  Trace.synthetic ~rate_per_s:4. ~duration_s:10. ~mean_input:256
    ~mean_output:32 ()

let t_trace_determinism () =
  let a = Trace.synthetic ~seed:7 ~rate_per_s:2. ~duration_s:20. ~mean_input:100 ~mean_output:50 () in
  let b = Trace.synthetic ~seed:7 ~rate_per_s:2. ~duration_s:20. ~mean_input:100 ~mean_output:50 () in
  Alcotest.(check bool) "same trace" true (a = b);
  let c = Trace.synthetic ~seed:8 ~rate_per_s:2. ~duration_s:20. ~mean_input:100 ~mean_output:50 () in
  Alcotest.(check bool) "different seed differs" true (a <> c)

let t_trace_shape () =
  let rate = 5. and duration = 40. in
  let tr = Trace.synthetic ~rate_per_s:rate ~duration_s:duration ~mean_input:512 ~mean_output:128 () in
  let n = List.length tr in
  check_between "arrival count near rate x duration" 120. 280. (float_of_int n);
  List.iter
    (fun r ->
      if r.Trace.arrival_s < 0. || r.Trace.arrival_s > duration then
        Alcotest.fail "arrival outside window";
      if r.Trace.input_len < 8 || r.Trace.output_len < 8 then
        Alcotest.fail "length floor violated")
    tr;
  let sorted = List.sort (fun a b -> compare a.Trace.arrival_s b.Trace.arrival_s) tr in
  Alcotest.(check bool) "sorted by arrival" true (tr = sorted)

let t_trace_validation () =
  check_raises_invalid "rate" (fun () ->
      ignore (Trace.synthetic ~rate_per_s:0. ~duration_s:1. ~mean_input:1 ~mean_output:1 ()));
  check_raises_invalid "means" (fun () ->
      ignore (Trace.synthetic ~rate_per_s:1. ~duration_s:1. ~mean_input:0 ~mean_output:1 ()))

let t_trace_realized_mean () =
  (* Regression for the length-floor bias: the old [max 8] clamp on a
     plain geometric silently inflated realized means above the requested
     ones (a requested mean of 8 realized at ~11.6, +45% offered load).
     The shifted geometric must realize the requested mean... *)
  let tr =
    Trace.synthetic ~rate_per_s:200. ~duration_s:50. ~mean_input:12
      ~mean_output:64 ()
  in
  let n = float_of_int (List.length tr) in
  let mean f = List.fold_left (fun acc r -> acc +. float_of_int (f r)) 0. tr /. n in
  check_within "realized mean input" ~tolerance:0.05 12.
    (mean (fun r -> r.Trace.input_len));
  check_within "realized mean output" ~tolerance:0.05 64.
    (mean (fun r -> r.Trace.output_len));
  (* ...degenerating to the constant floor at the floor itself... *)
  let at_floor =
    Trace.synthetic ~rate_per_s:50. ~duration_s:10.
      ~mean_input:Trace.min_mean_len ~mean_output:Trace.min_mean_len ()
  in
  List.iter
    (fun r ->
      if r.Trace.input_len <> Trace.min_mean_len
         || r.Trace.output_len <> Trace.min_mean_len then
        Alcotest.failf "mean at the floor must be constant, got %d/%d"
          r.Trace.input_len r.Trace.output_len)
    at_floor;
  (* ...and rejecting means below the floor instead of rounding them up. *)
  check_raises_invalid "mean below floor" (fun () ->
      ignore
        (Trace.synthetic ~rate_per_s:1. ~duration_s:1.
           ~mean_input:(Trace.min_mean_len - 1)
           ~mean_output:Trace.min_mean_len ()))

let t_geometric_overflow () =
  (* Regression: with u within one ulp of 1, [log (1. -. u)] is -inf and
     [int_of_float] of the infinite quotient was undefined - lengths came
     back huge or negative. The clamped transform must stay bounded and
     positive over the whole closed interval, endpoints included. *)
  let mean = 128 in
  List.iter
    (fun u ->
      let len = Trace.geometric_of_u ~mean u in
      if len < 1 then
        Alcotest.failf "geometric_of_u %.17g: non-positive length %d" u len;
      if len > 30 * mean then
        Alcotest.failf "geometric_of_u %.17g: unbounded length %d" u len)
    [ 0.; 1e-16; 0.5; 0.999999; 1. -. 1e-16; 1. ];
  Alcotest.(check int) "mean <= 1 degenerates" 1 (Trace.geometric_of_u ~mean:1 0.9);
  (* The exponential transform must never produce an infinite gap (which
     silently truncated the trace) - not even at u = 0, a real return
     value of [Random.State.float]. *)
  List.iter
    (fun u ->
      let gap = Trace.exponential_of_u ~rate:2. u in
      if not (Float.is_finite gap) || gap <= 0. then
        Alcotest.failf "exponential_of_u %.17g: bad gap %g" u gap)
    [ 0.; 1e-16; 0.5; 1. -. 1e-16; 1. ]

let t_run_accounting () =
  let stats = Simulator.run Presets.a100 Model.llama3_8b small_trace in
  Alcotest.(check int) "every request finishes"
    (List.length small_trace)
    (List.length stats.Simulator.outcomes);
  Alcotest.(check int) "nothing rejected" 0 (List.length stats.Simulator.rejected);
  Alcotest.(check int) "token accounting"
    (Trace.total_output_tokens small_trace)
    stats.Simulator.generated_tokens;
  Alcotest.(check int) "token conservation (scheduler-counted)"
    (Trace.total_output_tokens small_trace)
    stats.Simulator.produced_tokens;
  Alcotest.(check bool) "positive makespan" true (stats.Simulator.makespan_s > 0.);
  Alcotest.(check bool) "steps counted" true
    (stats.Simulator.prefill_batches > 0 && stats.Simulator.decode_steps > 0);
  List.iter
    (fun o ->
      if o.Simulator.ttft_s <= 0. then Alcotest.fail "non-positive ttft";
      if o.Simulator.finish_s > stats.Simulator.makespan_s +. 1e-9 then
        Alcotest.fail "finish beyond makespan";
      if
        o.Simulator.request.Trace.output_len > 1
        && o.Simulator.tbt_s <= 0.
      then Alcotest.fail "missing tbt")
    stats.Simulator.outcomes

let t_percentiles_ordered () =
  let s = Simulator.run Presets.a100 Model.llama3_8b small_trace in
  Alcotest.(check bool) "ttft p50 <= p95" true (s.Simulator.p50_ttft_s <= s.Simulator.p95_ttft_s);
  Alcotest.(check bool) "tbt p50 <= p95" true (s.Simulator.p50_tbt_s <= s.Simulator.p95_tbt_s)

let t_kv_capacity () =
  let cap =
    Simulator.kv_capacity_batch Simulator.default_config Presets.a100
      Model.llama3_8b ~context:2048
  in
  Alcotest.(check bool) "positive, at most max batch" true
    (cap > 0 && cap <= Simulator.default_config.Simulator.max_batch);
  (* GPT-3 on one device does not even fit its weights. *)
  let none =
    Simulator.kv_capacity_batch
      { Simulator.default_config with Simulator.tp = 1 }
      Presets.a100 Model.gpt3_175b ~context:2048
  in
  Alcotest.(check int) "gpt-3 weights exceed one device" 0 none;
  check_raises_invalid "context" (fun () ->
      ignore
        (Simulator.kv_capacity_batch Simulator.default_config Presets.a100
           Model.llama3_8b ~context:0))

let t_infeasible_deployment () =
  (* Regression: weights alone exceeding HBM used to be silently patched
     over with [max 1 (kv_capacity_batch ...)], simulating a deployment
     that cannot exist. It must raise a clear error instead. *)
  let trace = [ { Trace.id = 0; arrival_s = 0.; input_len = 64; output_len = 8 } ] in
  match
    Simulator.run
      ~config:{ Simulator.default_config with Simulator.tp = 1 }
      Presets.a100 Model.gpt3_175b trace
  with
  | _ -> Alcotest.fail "expected Infeasible"
  | exception Simulator.Infeasible msg ->
      Alcotest.(check bool) "message names the model" true
        (String.length msg > 0
        && String.exists (fun _ -> true) msg
        &&
        let contains s sub =
          let n = String.length s and m = String.length sub in
          let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
          go 0
        in
        contains msg Model.gpt3_175b.Model.name)

(* A device with just enough HBM above the Llama-3-8B tp=1 weights that
   small requests fit but a huge one never can. *)
let tight_device ~free_gb =
  (* [Memory.make] takes decimal GB; leave exactly [free_gb] of KV room
     above the tp=1 weights. *)
  let weights_gb =
    Model.total_params Model.llama3_8b *. Model.llama3_8b.Model.bytes_per_param
    /. 1e9
  in
  Device.make ~name:"tight-hbm" ~core_count:108 ~lanes_per_core:4
    ~systolic:(Systolic.square 16) ~l1_kb:192. ~l2_mb:40.
    ~memory:
      (Memory.make ~capacity_gb:(weights_gb +. free_gb) ~bandwidth_tb_s:2.)
    ~interconnect:(Interconnect.of_total_gb_s 600.)
    ()

let tight_config = { Simulator.default_config with Simulator.tp = 1 }

let t_never_fit_rejected () =
  (* free_gb = 2 leaves room for ~15k KV tokens at tp=1; the 20k-token
     request can never fit and must be rejected instead of pinning the
     FCFS queue (or silently overcommitting KV as the old scheduler did). *)
  let dev = tight_device ~free_gb:2. in
  let trace =
    [
      { Trace.id = 0; arrival_s = 0.; input_len = 256; output_len = 32 };
      { Trace.id = 1; arrival_s = 0.1; input_len = 20_000; output_len = 64 };
      { Trace.id = 2; arrival_s = 0.2; input_len = 512; output_len = 16 };
    ]
  in
  let s = Simulator.run ~config:tight_config dev Model.llama3_8b trace in
  Alcotest.(check int) "two complete" 2 (List.length s.Simulator.outcomes);
  Alcotest.(check (list int)) "the huge request is rejected" [ 1 ]
    (List.map (fun r -> r.Trace.id) s.Simulator.rejected);
  Alcotest.(check int) "tokens from completed requests only" (32 + 16)
    s.Simulator.generated_tokens;
  Alcotest.(check int) "conservation over completed" (32 + 16)
    s.Simulator.produced_tokens;
  Alcotest.(check bool) "kv never exceeds capacity" true
    (s.Simulator.peak_hbm_bytes <= s.Simulator.hbm_capacity_bytes)

let t_kv_admission_is_safe () =
  (* Heavy homogeneous load against a tight KV budget: concurrency must be
     clipped by per-request reservations, never by luck, and the live-KV
     high-water mark must stay under HBM at every step. *)
  let dev = tight_device ~free_gb:1. in
  let trace =
    Trace.synthetic ~rate_per_s:40. ~duration_s:5. ~mean_input:512
      ~mean_output:64 ()
  in
  let s = Simulator.run ~config:tight_config dev Model.llama3_8b trace in
  Alcotest.(check int) "everything eventually completes"
    (List.length trace)
    (List.length s.Simulator.outcomes);
  Alcotest.(check bool) "kv never exceeds capacity" true
    (s.Simulator.peak_hbm_bytes <= s.Simulator.hbm_capacity_bytes);
  Alcotest.(check bool) "occupancy within the mean-context bound" true
    (s.Simulator.mean_batch_occupancy
    <= float_of_int s.Simulator.kv_limited_batch +. 1e-9)

let t_engine_identity () =
  (* The compiled stepper must be a pure speedup: simulate_compiled is
     bit-identical to simulate, both engines bucket step lengths the same
     way, so whole-run stats compare [=] - every float, both policies. *)
  List.iter
    (fun policy ->
      let config engine =
        { Simulator.default_config with Simulator.policy; engine }
      in
      let legacy =
        Simulator.run ~config:(config Simulator.Legacy) Presets.a100
          Model.llama3_8b small_trace
      in
      let compiled =
        Simulator.run ~config:(config Simulator.Compiled) Presets.a100
          Model.llama3_8b small_trace
      in
      Alcotest.(check bool)
        (Simulator.policy_to_string policy ^ ": legacy = compiled")
        true (legacy = compiled))
    [ Simulator.Prefill_priority; Simulator.Decode_fair ]

(* The compiled stepper memoizes step times under one int per (phase,
   batch, length). A fixed-width packing (say 20 bits per field) would
   alias these pairs - a batch past 2^20 spills into the length's bits -
   and a hit would then return another step's time. Every query, first
   (a miss) and again in reverse order (a hit), must equal the legacy
   engine's evaluation bit for bit, including a batch above [max_batch]
   and lengths past what the packing can hold, which bypass the memo. *)
let t_stepper_memo_key () =
  let config engine =
    {
      Simulator.default_config with
      Simulator.engine;
      max_batch = 1 lsl 22;
      context_bucket = 1;
    }
  in
  let compiled =
    Simulator.make_stepper ~config:(config Simulator.Compiled) Presets.a100
      Model.llama3_8b
  and legacy =
    Simulator.make_stepper ~config:(config Simulator.Legacy) Presets.a100
      Model.llama3_8b
  in
  let m = 1 lsl 20 in
  let pairs =
    [ (1, 1); (1, 2); (1, 3); (m + 1, 1); (m + 1, 2); (2, 1); (1, m + 1);
      (m, m); (m + 1, m - 1); (m - 1, m + 1); (3, 2 * m); (2 * m + 3, 1);
      (1, 1 lsl 41); (5, (1 lsl 41) + 5); (1 lsl 23, 64); (64, 1 lsl 23) ]
  in
  let check_pair (batch, len) =
    let bits = Int64.bits_of_float in
    let expect what want got =
      if bits want <> bits got then
        Alcotest.failf "%s at batch %d, length %d: compiled %h, legacy %h" what
          batch len got want
    in
    expect "prefill"
      (legacy.Simulator.prefill_s ~batch ~input_len:len)
      (compiled.Simulator.prefill_s ~batch ~input_len:len);
    expect "decode"
      (legacy.Simulator.decode_s ~batch ~context:len)
      (compiled.Simulator.decode_s ~batch ~context:len)
  in
  List.iter check_pair pairs;
  List.iter check_pair (List.rev pairs)

let t_policies_schedule_differently () =
  (* Under contention the two policies must actually produce different
     schedules (decode-fair interleaves decode steps between admissions). *)
  let trace =
    Trace.synthetic ~rate_per_s:60. ~duration_s:10. ~mean_input:256
      ~mean_output:64 ()
  in
  let at policy =
    Simulator.run
      ~config:{ Simulator.default_config with Simulator.policy }
      Presets.a100 Model.llama3_8b trace
  in
  let pp = at Simulator.Prefill_priority and df = at Simulator.Decode_fair in
  Alcotest.(check bool) "schedules differ" true
    (pp.Simulator.makespan_s <> df.Simulator.makespan_s
    || pp.Simulator.prefill_batches <> df.Simulator.prefill_batches);
  Alcotest.(check int) "both conserve tokens"
    pp.Simulator.generated_tokens df.Simulator.generated_tokens

let t_prefill_counts_in_occupancy () =
  (* Regression: a prefill-only trace (every request finishes at its first
     token) used to report occupancy 0 because only decode steps fed the
     busy-time accumulators. *)
  let trace =
    List.init 8 (fun i ->
        { Trace.id = i; arrival_s = 0.05 *. float_of_int i; input_len = 256;
          output_len = 1 })
  in
  let s = Simulator.run Presets.a100 Model.llama3_8b trace in
  Alcotest.(check int) "no decode steps" 0 s.Simulator.decode_steps;
  Alcotest.(check bool) "prefill batches fill the occupancy stat" true
    (s.Simulator.mean_batch_occupancy >= 1.);
  Alcotest.(check bool) "occupancy within the admission cap" true
    (s.Simulator.mean_batch_occupancy
    <= float_of_int Simulator.default_config.Simulator.max_batch)

let t_memory_bandwidth_helps_serving () =
  let fast =
    { Presets.a100 with
      Device.memory = Memory.make ~capacity_gb:80. ~bandwidth_tb_s:3.2 }
  in
  let base = Simulator.run Presets.a100 Model.llama3_8b small_trace in
  let faster = Simulator.run fast Model.llama3_8b small_trace in
  Alcotest.(check bool) "p50 tbt improves" true
    (faster.Simulator.p50_tbt_s < base.Simulator.p50_tbt_s)

let t_overload_queues () =
  (* A 10x request rate must raise p95 TTFT (queueing delay). *)
  let light = Trace.synthetic ~rate_per_s:1. ~duration_s:10. ~mean_input:256 ~mean_output:64 () in
  let heavy = Trace.synthetic ~rate_per_s:60. ~duration_s:10. ~mean_input:256 ~mean_output:64 () in
  let l = Simulator.run Presets.a100 Model.llama3_8b light in
  let h = Simulator.run Presets.a100 Model.llama3_8b heavy in
  Alcotest.(check bool) "heavier load, slower p95 ttft" true
    (h.Simulator.p95_ttft_s > l.Simulator.p95_ttft_s);
  Alcotest.(check bool) "heavier load, higher occupancy" true
    (h.Simulator.mean_batch_occupancy > l.Simulator.mean_batch_occupancy)

let t_slo_attainment () =
  let s = Simulator.run Presets.a100 Model.llama3_8b small_trace in
  check_close "infinite slo met" 1. (Simulator.slo_attainment s ~ttft_s:1e9 ~tbt_s:1e9);
  check_close "impossible slo" 0.
    (Simulator.slo_attainment s ~ttft_s:1e-9 ~tbt_s:1e-9);
  let mid = Simulator.slo_attainment s ~ttft_s:s.Simulator.p50_ttft_s ~tbt_s:1e9 in
  check_between "median slo ~ half" 0.35 0.65 mid;
  check_raises_invalid "bad objective" (fun () ->
      ignore (Simulator.slo_attainment s ~ttft_s:0. ~tbt_s:1.))

let t_throughput_ignores_idle_leadin () =
  (* Regression: throughput used to divide by the absolute clock, so a trace
     whose first request arrives late reported an arbitrarily diluted
     tokens/s. The same requests shifted 100 s into the future must report
     the same throughput. *)
  let base =
    [
      { Trace.id = 0; arrival_s = 0.; input_len = 256; output_len = 32 };
      { Trace.id = 1; arrival_s = 0.5; input_len = 128; output_len = 16 };
      { Trace.id = 2; arrival_s = 1.0; input_len = 512; output_len = 64 };
    ]
  in
  let shifted =
    List.map (fun r -> { r with Trace.arrival_s = r.Trace.arrival_s +. 100. }) base
  in
  let s0 = Simulator.run Presets.a100 Model.llama3_8b base in
  let s1 = Simulator.run Presets.a100 Model.llama3_8b shifted in
  Alcotest.(check bool) "positive throughput" true
    (s0.Simulator.throughput_tokens_per_s > 0.);
  check_close "shift-invariant throughput" s0.Simulator.throughput_tokens_per_s
    s1.Simulator.throughput_tokens_per_s;
  check_close "makespan still absolute" (s0.Simulator.makespan_s +. 100.)
    s1.Simulator.makespan_s;
  (* The throughput must reflect the serving span, not the absolute clock. *)
  Alcotest.(check bool) "not diluted by the lead-in" true
    (s1.Simulator.throughput_tokens_per_s
    > float_of_int s1.Simulator.generated_tokens /. s1.Simulator.makespan_s)

let t_empty_trace_rejected () =
  check_raises_invalid "empty" (fun () ->
      ignore (Simulator.run Presets.a100 Model.llama3_8b []))

let t_empty_outcomes_slo () =
  (* Regression: 0 requests used to report 0/0 = nan attainment. *)
  let empty =
    {
      Simulator.outcomes = [];
      rejected = [];
      makespan_s = 0.;
      generated_tokens = 0;
      produced_tokens = 0;
      throughput_tokens_per_s = 0.;
      mean_batch_occupancy = 0.;
      busy_s = 0.;
      p50_ttft_s = 0.;
      p95_ttft_s = 0.;
      p50_tbt_s = 0.;
      p95_tbt_s = 0.;
      kv_limited_batch = 0;
      prefill_batches = 0;
      decode_steps = 0;
      peak_hbm_bytes = 0.;
      hbm_capacity_bytes = 0.;
    }
  in
  check_close "vacuously met" 1.
    (Simulator.slo_attainment empty ~ttft_s:0.5 ~tbt_s:0.05)

(* Random synthetic traces for the scheduler invariants. *)
let trace_arb =
  let gen =
    let open QCheck.Gen in
    let* seed = int_range 0 10_000 in
    let* rate_per_s = oneofl [ 0.5; 2.; 8.; 30. ] in
    let* duration_s = oneofl [ 2.; 5.; 10. ] in
    let* mean_input = int_range 16 512 in
    let* mean_output = int_range 8 64 in
    return
      ( Trace.synthetic ~seed ~rate_per_s ~duration_s ~mean_input ~mean_output
          (),
        (seed, rate_per_s, duration_s) )
  in
  QCheck.make
    ~print:(fun (tr, (seed, rate, dur)) ->
      Printf.sprintf "seed=%d rate=%g dur=%g (%d requests)" seed rate dur
        (List.length tr))
    gen

let scheduler_invariants policy (tr, _) =
  tr = []
  ||
  let s =
    Simulator.run
      ~config:{ Simulator.default_config with Simulator.policy }
      Presets.a100 Model.llama3_8b tr
  in
  let all_finish =
    List.length s.Simulator.outcomes + List.length s.Simulator.rejected
    = List.length tr
  in
  let tokens = s.Simulator.generated_tokens = Trace.total_output_tokens tr in
  let conserved = s.Simulator.produced_tokens = s.Simulator.generated_tokens in
  let ttft_positive =
    List.for_all (fun o -> o.Simulator.ttft_s > 0.) s.Simulator.outcomes
  in
  let batch_bounded =
    s.Simulator.kv_limited_batch >= 1
    && s.Simulator.kv_limited_batch
       <= Simulator.default_config.Simulator.max_batch
  in
  (* The tentpole KV invariant: live KV (plus weights) never exceeds the
     device's HBM at any scheduler step. *)
  let kv_safe =
    s.Simulator.peak_hbm_bytes <= s.Simulator.hbm_capacity_bytes
  in
  let occupancy_bounded =
    s.Simulator.mean_batch_occupancy
    <= float_of_int s.Simulator.kv_limited_batch +. 1e-9
  in
  let slo = Simulator.slo_attainment s ~ttft_s:1. ~tbt_s:0.05 in
  let slo_bounded = slo >= 0. && slo <= 1. in
  (* FCFS: in arrival order, first-token times never go backwards
     (admission never bypasses the queue head under either policy). *)
  let by_arrival =
    List.sort
      (fun a b ->
        compare
          (a.Simulator.request.Trace.arrival_s, a.Simulator.request.Trace.id)
          (b.Simulator.request.Trace.arrival_s, b.Simulator.request.Trace.id))
      s.Simulator.outcomes
  in
  let first_token o =
    o.Simulator.request.Trace.arrival_s +. o.Simulator.ttft_s
  in
  let rec fcfs = function
    | a :: (b :: _ as rest) ->
        first_token a <= first_token b +. 1e-9 && fcfs rest
    | _ -> true
  in
  all_finish && tokens && conserved && ttft_positive && batch_bounded
  && kv_safe && occupancy_bounded && slo_bounded && fcfs by_arrival

let t_scheduler_invariants =
  qcheck ~count:25 "scheduler invariants on random traces (prefill-priority)"
    trace_arb
    (scheduler_invariants Simulator.Prefill_priority)

let t_scheduler_invariants_decode_fair =
  qcheck ~count:25 "scheduler invariants on random traces (decode-fair)"
    trace_arb
    (scheduler_invariants Simulator.Decode_fair)

let t_jobs_deterministic () =
  (* The simulator's results must not depend on the domain-pool size. *)
  let tr =
    Trace.synthetic ~seed:11 ~rate_per_s:4. ~duration_s:8. ~mean_input:256
      ~mean_output:24 ()
  in
  let s1 =
    Parallel.with_jobs 1 (fun () -> Simulator.run Presets.a100 Model.llama3_8b tr)
  in
  let s4 =
    Parallel.with_jobs 4 (fun () -> Simulator.run Presets.a100 Model.llama3_8b tr)
  in
  Alcotest.(check bool) "bit-identical stats across pool sizes" true (s1 = s4)

(* --- pull-based trace streams --- *)

let t_stream_equals_synthetic () =
  (* The load-bearing identity: [synthetic] is defined as materializing a
     constant-shape stream, so recorded experiment traces are unchanged.
     Check it from the public API across several parameter points. *)
  List.iter
    (fun (seed, rate, dur, mi, mo) ->
      let s =
        Trace.stream ~seed ~duration_s:dur ~rate_per_s:rate ~mean_input:mi
          ~mean_output:mo ()
      in
      let a = Trace.materialize s in
      let b =
        Trace.synthetic ~seed ~rate_per_s:rate ~duration_s:dur ~mean_input:mi
          ~mean_output:mo ()
      in
      if a <> b then
        Alcotest.failf "stream <> synthetic at seed %d rate %g" seed rate)
    [ (42, 4., 10., 256, 32); (7, 2., 20., 100, 50); (11, 60., 3., 8, 8) ]

let t_stream_bounds () =
  let s =
    Trace.stream ~limit:25 ~rate_per_s:5. ~mean_input:64 ~mean_output:16 ()
  in
  let reqs = Trace.materialize s in
  Alcotest.(check int) "limit bounds the stream" 25 (List.length reqs);
  List.iteri
    (fun i (r : Trace.request) ->
      Alcotest.(check int) "consecutive ids" i r.Trace.id)
    reqs;
  Alcotest.(check bool) "exhausted stays exhausted" true
    (Trace.next s = None && Trace.next s = None);
  (* duration + limit: whichever bound bites first. *)
  let tiny =
    Trace.materialize
      (Trace.stream ~limit:1000 ~duration_s:0.5 ~rate_per_s:4. ~mean_input:64
         ~mean_output:16 ())
  in
  List.iter
    (fun (r : Trace.request) ->
      if r.Trace.arrival_s > 0.5 then Alcotest.failf "arrival past duration")
    tiny;
  (* of_list round-trips. *)
  let rt = Trace.materialize (Trace.of_list reqs) in
  Alcotest.(check bool) "of_list round-trip" true (rt = reqs)

let t_stream_shapes () =
  let count shape =
    List.length
      (Trace.materialize
         (Trace.stream ~seed:3 ~shape ~duration_s:400. ~rate_per_s:2.
            ~mean_input:64 ~mean_output:16 ()))
  in
  let flat = count Trace.Constant in
  (* A trough-0.25 diurnal averages ~62.5% of the flat rate over whole
     periods; thinning is exact in expectation. *)
  let diurnal =
    count (Trace.Diurnal { period_s = 100.; trough = 0.25 })
  in
  check_between "diurnal thins toward the mean multiplier"
    (0.45 *. float_of_int flat)
    (0.8 *. float_of_int flat)
    (float_of_int diurnal);
  (* Bursts of 3x for a tenth of each window: mean multiplier 1.2. *)
  let bursty =
    count (Trace.Bursts { every_s = 50.; width_s = 5.; factor = 3. })
  in
  check_between "bursts add load" (1.0 *. float_of_int flat)
    (1.45 *. float_of_int flat)
    (float_of_int bursty);
  (* Composition multiplies pointwise; arrivals stay ordered. *)
  let composed =
    Trace.materialize
      (Trace.stream ~seed:3
         ~shape:
           (Trace.Compose
              ( Trace.Diurnal { period_s = 100.; trough = 0.25 },
                Trace.Bursts { every_s = 50.; width_s = 5.; factor = 3. } ))
         ~duration_s:400. ~rate_per_s:2. ~mean_input:64 ~mean_output:16 ())
  in
  let rec ordered = function
    | (a : Trace.request) :: (b :: _ as rest) ->
        a.Trace.arrival_s < b.Trace.arrival_s && ordered rest
    | _ -> true
  in
  Alcotest.(check bool) "composed arrivals strictly increase" true
    (ordered composed);
  (* The multiplier itself: diurnal hits its trough at t=0 and 1 at
     mid-period; bursts switch at the window edge. *)
  let d = Trace.Diurnal { period_s = 100.; trough = 0.25 } in
  check_close "diurnal trough" 0.25 (Trace.shape_multiplier d 0.);
  check_close "diurnal peak" 1. (Trace.shape_multiplier d 50.);
  let b = Trace.Bursts { every_s = 50.; width_s = 5.; factor = 3. } in
  check_close "inside burst" 3. (Trace.shape_multiplier b 51.);
  check_close "outside burst" 1. (Trace.shape_multiplier b 10.);
  check_close "compose multiplies" 0.75
    (Trace.shape_multiplier (Trace.Compose (d, b)) 0.)

let t_stream_tenants () =
  let tenants =
    [
      { Trace.share = 3.; mean_input = 2000; mean_output = 16 };
      { Trace.share = 1.; mean_input = 16; mean_output = 500 };
    ]
  in
  let reqs =
    Trace.materialize
      (Trace.stream ~seed:5 ~tenants ~limit:4000 ~rate_per_s:10.
         ~mean_input:64 ~mean_output:64 ())
  in
  (* The tenants' per-request lengths overlap (geometric tails), so test
     the mix through the realized overall means: 3/4 prompt-heavy + 1/4
     decode-heavy traffic pins both to known mixtures. *)
  let mean f =
    List.fold_left (fun a r -> a +. float_of_int (f r)) 0. reqs
    /. float_of_int (List.length reqs)
  in
  check_within "mixed input mean" ~tolerance:0.1
    ((0.75 *. 2000.) +. (0.25 *. 16.))
    (mean (fun (r : Trace.request) -> r.Trace.input_len));
  check_within "mixed output mean" ~tolerance:0.1
    ((0.75 *. 16.) +. (0.25 *. 500.))
    (mean (fun (r : Trace.request) -> r.Trace.output_len));
  (* Both regimes are actually present. *)
  Alcotest.(check bool) "prompt-heavy present" true
    (List.exists (fun (r : Trace.request) -> r.Trace.input_len > 1500) reqs);
  Alcotest.(check bool) "decode-heavy present" true
    (List.exists (fun (r : Trace.request) -> r.Trace.output_len > 400) reqs)

let t_stream_validation () =
  let ok ?shape ?tenants ?limit ?duration_s () =
    ignore
      (Trace.stream ?shape ?tenants ?limit ?duration_s ~rate_per_s:1.
         ~mean_input:64 ~mean_output:16 ())
  in
  check_raises_invalid "unbounded stream" (fun () -> ok ());
  check_raises_invalid "non-positive limit" (fun () -> ok ~limit:0 ());
  check_raises_invalid "non-positive duration" (fun () ->
      ok ~duration_s:0. ());
  check_raises_invalid "bad diurnal trough" (fun () ->
      ok ~duration_s:1. ~shape:(Trace.Diurnal { period_s = 10.; trough = 2. }) ());
  check_raises_invalid "burst width beyond window" (fun () ->
      ok ~duration_s:1.
        ~shape:(Trace.Bursts { every_s = 1.; width_s = 2.; factor = 2. })
        ());
  check_raises_invalid "non-positive burst factor" (fun () ->
      ok ~duration_s:1.
        ~shape:(Trace.Bursts { every_s = 1.; width_s = 0.5; factor = 0. })
        ());
  check_raises_invalid "bad tenant share" (fun () ->
      ok ~duration_s:1.
        ~tenants:[ { Trace.share = 0.; mean_input = 64; mean_output = 16 } ]
        ());
  check_raises_invalid "tenant mean below floor" (fun () ->
      ok ~duration_s:1.
        ~tenants:[ { Trace.share = 1.; mean_input = 4; mean_output = 16 } ]
        ())

let prop_stream_prefix_stable =
  qcheck "limit-n stream is a prefix of limit-m (n <= m)"
    QCheck.(pair (int_range 1 50) (int_range 0 50))
    (fun (n, extra) ->
      let m = n + extra in
      let mk limit =
        Trace.materialize
          (Trace.stream ~seed:9 ~limit ~rate_per_s:8. ~mean_input:32
             ~mean_output:16 ())
      in
      let a = mk n and b = mk m in
      List.length a = n
      && List.length b = m
      && a = List.filteri (fun i _ -> i < n) b)

let suite =
  [
    test "trace determinism" t_trace_determinism;
    test "trace shape" t_trace_shape;
    test "trace validation" t_trace_validation;
    test "trace realizes requested means" t_trace_realized_mean;
    test "trace generator edge cases stay bounded" t_geometric_overflow;
    test "run accounting" t_run_accounting;
    test "percentiles ordered" t_percentiles_ordered;
    test "kv capacity bound" t_kv_capacity;
    test "infeasible deployment raises" t_infeasible_deployment;
    test "never-fitting requests are rejected" t_never_fit_rejected;
    test "kv admission is safe under pressure" t_kv_admission_is_safe;
    test "compiled engine = legacy engine, both policies" t_engine_identity;
    test "stepper memo keys never alias" t_stepper_memo_key;
    test "policies schedule differently under load" t_policies_schedule_differently;
    test "prefill batches count in occupancy" t_prefill_counts_in_occupancy;
    test "memory bandwidth helps serving" t_memory_bandwidth_helps_serving;
    test "overload queues requests" t_overload_queues;
    test "slo attainment" t_slo_attainment;
    test "throughput ignores idle lead-in" t_throughput_ignores_idle_leadin;
    test "empty trace rejected" t_empty_trace_rejected;
    test "empty outcomes meet slo vacuously" t_empty_outcomes_slo;
    t_scheduler_invariants;
    t_scheduler_invariants_decode_fair;
    test "pool size does not change results" t_jobs_deterministic;
    test "stream materializes to synthetic" t_stream_equals_synthetic;
    test "stream bounds and exhaustion" t_stream_bounds;
    test "stream shapes modulate load" t_stream_shapes;
    test "stream tenant mix" t_stream_tenants;
    test "stream validation" t_stream_validation;
    prop_stream_prefix_stable;
  ]
