open Core
open Helpers

(* Tracing and the metrics registry are process-global; every test starts
   from a clean slate and leaves tracing disabled. *)
let fresh () =
  Tracing.set_enabled false;
  Tracing.set_capacity 65536;
  Tracing.clear ();
  Metrics.reset ()

let span_names () = List.map (fun s -> s.Tracing.name) (Tracing.spans ())

(* {2 Span tracer} *)

let t_disabled_noop () =
  fresh ();
  let r = Tracing.with_span "invisible" (fun () -> 41 + 1) in
  Alcotest.(check int) "body ran" 42 r;
  Tracing.instant "also-invisible";
  Tracing.add_attr "k" (Tracing.Int 1);
  Alcotest.(check int) "nothing recorded" 0 (Tracing.recorded ());
  Alcotest.(check (list string)) "no spans" [] (span_names ())

let t_nesting () =
  fresh ();
  Tracing.with_tracing true (fun () ->
      Tracing.with_span "outer"
        ~attrs:[ ("phase", Tracing.Str "test") ]
        (fun () ->
          Tracing.with_span "inner" (fun () -> ignore (Sys.opaque_identity 1));
          Tracing.add_attr "late" (Tracing.Bool true)));
  (* Spans record when they close: inner first. *)
  Alcotest.(check (list string)) "close order" [ "inner"; "outer" ]
    (span_names ());
  match Tracing.spans () with
  | [ inner; outer ] ->
      Alcotest.(check int) "outer is a root" 0 outer.Tracing.depth;
      Alcotest.(check int) "inner nested once" 1 inner.Tracing.depth;
      let open Int64 in
      let i_end = add inner.Tracing.start_ns inner.Tracing.dur_ns in
      let o_end = add outer.Tracing.start_ns outer.Tracing.dur_ns in
      Alcotest.(check bool) "inner opens after outer" true
        (inner.Tracing.start_ns >= outer.Tracing.start_ns);
      Alcotest.(check bool) "inner closes before outer" true (i_end <= o_end);
      Alcotest.(check bool) "declared attr kept" true
        (List.mem_assoc "phase" outer.Tracing.attrs);
      Alcotest.(check bool) "add_attr lands on the open span" true
        (List.mem_assoc "late" outer.Tracing.attrs)
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let t_exception_safety () =
  fresh ();
  Tracing.with_tracing true (fun () ->
      (match Tracing.with_span "boom" (fun () -> raise Exit) with
      | () -> Alcotest.fail "exception swallowed"
      | exception Exit -> ());
      (* The raising span closed and the stack unwound: the next span is a
         fresh root, not a child of a leaked frame. *)
      Tracing.with_span "after" (fun () -> ()));
  match Tracing.spans () with
  | [ boom; after ] ->
      Alcotest.(check string) "raising span recorded" "boom" boom.Tracing.name;
      Alcotest.(check int) "stack unwound" 0 after.Tracing.depth
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let t_with_tracing_restores () =
  fresh ();
  (match Tracing.with_tracing true (fun () -> raise Exit) with
  | () -> Alcotest.fail "exception swallowed"
  | exception Exit -> ());
  Alcotest.(check bool) "flag restored on raise" false (Tracing.enabled ())

let t_ring_overflow () =
  fresh ();
  Tracing.set_capacity 4;
  Tracing.with_tracing true (fun () ->
      for i = 1 to 10 do
        Tracing.instant (Printf.sprintf "s%d" i)
      done);
  Alcotest.(check int) "all recorded" 10 (Tracing.recorded ());
  Alcotest.(check int) "oldest overwritten" 6 (Tracing.dropped ());
  Alcotest.(check (list string)) "newest survive, oldest first"
    [ "s7"; "s8"; "s9"; "s10" ] (span_names ());
  check_raises_invalid "capacity >= 1" (fun () -> Tracing.set_capacity 0);
  fresh ()

let t_chrome_export () =
  fresh ();
  Tracing.with_tracing true (fun () ->
      Tracing.with_span "work"
        ~attrs:[ ("n", Tracing.Int 3); ("bad", Tracing.Float nan) ]
        (fun () -> Tracing.instant "mark"));
  let json = Tracing.to_chrome_json () in
  let events = Json.to_list (Json.member "traceEvents" json) in
  Alcotest.(check int) "one event per span" 2 (List.length events);
  List.iter
    (fun e ->
      Alcotest.(check string) "complete event" "X"
        (Json.to_str (Json.member "ph" e));
      Alcotest.(check bool) "timestamp present" true
        (Json.to_float (Json.member "ts" e) >= 0.);
      Alcotest.(check bool) "duration present" true
        (Json.to_float (Json.member "dur" e) >= 0.);
      ignore (Json.to_int (Json.member "tid" e)))
    events;
  let work =
    List.find (fun e -> Json.to_str (Json.member "name" e) = "work") events
  in
  let args = Json.member "args" work in
  Alcotest.(check int) "int attr" 3 (Json.to_int (Json.member "n" args));
  (* JSON has no nan literal; the exporter must stringify, not crash. *)
  Alcotest.(check string) "non-finite attr stringified" "nan"
    (Json.to_str (Json.member "bad" args));
  (* The serialized form must parse back. *)
  let reparsed = Json.of_string (Json.to_string json) in
  Alcotest.(check int) "round-trips" 2
    (List.length (Json.to_list (Json.member "traceEvents" reparsed)))

let t_write_file () =
  fresh ();
  Tracing.with_tracing true (fun () -> Tracing.instant "only");
  let path = Filename.temp_file "acs_trace" ".json" in
  Tracing.write path;
  let json = Json.of_file path in
  Sys.remove path;
  Alcotest.(check int) "file holds the trace" 1
    (List.length (Json.to_list (Json.member "traceEvents" json)))

(* {2 Metrics registry} *)

let t_counter_identity () =
  fresh ();
  let a = Metrics.counter "obs_test_total" in
  Metrics.incr a;
  Metrics.incr ~by:4 a;
  (* Get-or-create: a second lookup is the same underlying counter. *)
  let b = Metrics.counter "obs_test_total" in
  Alcotest.(check int) "one metric behind both handles" 5
    (Metrics.counter_value b);
  (* Labels distinguish; kind clashes are programming errors. *)
  let l = Metrics.counter ~labels:[ ("k", "v") ] "obs_test_total" in
  Alcotest.(check int) "labelled is separate" 0 (Metrics.counter_value l);
  check_raises_invalid "negative increment" (fun () -> Metrics.incr ~by:(-1) a);
  check_raises_invalid "kind mismatch" (fun () ->
      ignore (Metrics.gauge "obs_test_total"))

let t_gauge () =
  fresh ();
  let g = Metrics.gauge "obs_test_gauge" in
  Metrics.set_gauge g 2.5;
  Metrics.add_gauge g 0.5;
  check_close "set then add" 3. (Metrics.gauge_value g)

let t_histogram () =
  fresh ();
  let h = Metrics.histogram "obs_test_seconds" in
  Alcotest.(check bool) "empty quantile is nan" true
    (Float.is_nan (Metrics.quantile h 0.5));
  List.iter (Metrics.observe h) [ 1e-6; 2e-6; 1e-3; 0.1 ];
  Alcotest.(check int) "count" 4 (Metrics.hist_count h);
  check_close "sum" (1e-6 +. 2e-6 +. 1e-3 +. 0.1) (Metrics.hist_sum h);
  let q50 = Metrics.quantile h 0.5 and q95 = Metrics.quantile h 0.95 in
  Alcotest.(check bool) "quantiles ordered" true (q50 <= q95);
  (* Bucket bounds overestimate by at most one log-scale step (10^0.25). *)
  check_between "p95 brackets the top sample" 0.099 0.18 q95;
  let bounds = List.map fst (Metrics.buckets h) in
  Alcotest.(check bool) "bucket bounds ascend" true
    (List.sort compare bounds = bounds);
  Alcotest.(check int) "4 observations across buckets" 4
    (List.fold_left (fun acc (_, c) -> acc + c) 0 (Metrics.buckets h));
  check_raises_invalid "quantile range" (fun () ->
      ignore (Metrics.quantile h 1.5));
  (* NaN: counted, not summed. *)
  Metrics.observe h nan;
  Alcotest.(check int) "nan counted" 5 (Metrics.hist_count h);
  Alcotest.(check bool) "nan not summed" true
    (Float.is_finite (Metrics.hist_sum h))

let t_time_exception_safe () =
  fresh ();
  let h = Metrics.histogram "obs_test_timer_seconds" in
  (match Metrics.time h (fun () -> raise Exit) with
  | () -> Alcotest.fail "exception swallowed"
  | exception Exit -> ());
  Alcotest.(check int) "raising body still observed" 1 (Metrics.hist_count h)

let t_export_and_reset () =
  fresh ();
  Metrics.incr (Metrics.counter "obs_export_total");
  Metrics.set_gauge (Metrics.gauge "obs_export_gauge") 7.;
  Metrics.observe (Metrics.histogram "obs_export_seconds") 1e-3;
  let json = Metrics.export () in
  let names section =
    List.map
      (fun e -> Json.to_str (Json.member "name" e))
      (Json.to_list (Json.member section json))
  in
  Alcotest.(check bool) "counter exported" true
    (List.mem "obs_export_total" (names "counters"));
  Alcotest.(check bool) "gauge exported" true
    (List.mem "obs_export_gauge" (names "gauges"));
  Alcotest.(check bool) "histogram exported" true
    (List.mem "obs_export_seconds" (names "histograms"));
  let h =
    List.find
      (fun e -> Json.to_str (Json.member "name" e) = "obs_export_seconds")
      (Json.to_list (Json.member "histograms" json))
  in
  Alcotest.(check int) "histogram count serialized" 1
    (Json.to_int (Json.member "count" h));
  ignore (Json.to_list (Json.member "buckets" h));
  (* Reset zeroes in place: cached handles keep reporting. *)
  let c = Metrics.counter "obs_export_total" in
  Metrics.reset ();
  Alcotest.(check int) "reset zeroes" 0 (Metrics.counter_value c);
  Metrics.incr c;
  Alcotest.(check int) "handle survives reset" 1 (Metrics.counter_value c);
  (* The summary table renders without raising, one row per metric. *)
  ignore (Metrics.summary_table ())

let t_multi_domain_counter () =
  fresh ();
  let c = Metrics.counter "obs_domains_total" in
  let h = Metrics.histogram "obs_domains_seconds" in
  let worker () =
    for _ = 1 to 1000 do
      Metrics.incr c;
      Metrics.observe h 1e-6
    done
  in
  let domains = List.init 4 (fun _ -> Domain.spawn worker) in
  List.iter Domain.join domains;
  Alcotest.(check int) "no lost counter updates" 4000 (Metrics.counter_value c);
  Alcotest.(check int) "no lost observations" 4000 (Metrics.hist_count h);
  check_close ~eps:1e-6 "cas-summed" 4e-3 (Metrics.hist_sum h)

(* Bucket [i]'s reported upper bound, as the registry computes it. *)
let bucket_bound i = 1e-9 *. (10. ** (float_of_int i /. 4.))

let t_histogram_edges () =
  fresh ();
  let h = Metrics.histogram "obs_edge_seconds" in
  (* The bound reported for a lone observation of [v]. *)
  let bound_of v =
    Metrics.reset ();
    Metrics.observe h v;
    Metrics.quantile h 1.
  in
  let bits = Int64.bits_of_float in
  let lands what v expected =
    if bits (bound_of v) <> bits expected then
      Alcotest.failf "%s (%h) lands under bound %h, expected %h" what v
        (bound_of v) expected
  in
  (* Every edge belongs to the bucket it bounds ("le" is inclusive); the
     next float up belongs to the bucket above, the one below to the
     edge's own. *)
  for i = 0 to 48 do
    let b = bucket_bound i in
    lands (Printf.sprintf "edge %d" i) b b;
    lands (Printf.sprintf "just above edge %d" i) (Float.succ b)
      (bucket_bound (i + 1));
    if i > 0 then lands (Printf.sprintf "just below edge %d" i) (Float.pred b) b
  done;
  (* Past the top bound: the overflow bucket, never the first one (the
     ratio to the floor used to overflow to infinity and land there). *)
  List.iter
    (fun (what, v) -> lands what v (bucket_bound 49))
    [ ("infinity", infinity); ("1e300", 1e300); ("max_float", max_float);
      ("2e299", 2e299) ];
  (* Nothing to measure: the underflow bucket. *)
  List.iter
    (fun (what, v) -> lands what v (bucket_bound 0))
    [ ("nan", nan); ("zero", 0.); ("negative", -1.);
      ("neg_infinity", neg_infinity) ];
  Metrics.reset ();
  Metrics.observe h nan;
  Alcotest.(check int) "nan counted" 1 (Metrics.hist_count h);
  check_close "nan not summed" 0. (Metrics.hist_sum h)

let t_observe_n () =
  fresh ();
  let one = Metrics.histogram "obs_one_by_one" in
  let batched = Metrics.histogram "obs_batched" in
  List.iter
    (fun (v, n) ->
      for _ = 1 to n do
        Metrics.observe one v
      done;
      Metrics.observe_n batched v n)
    [ (3., 5); (64., 1000); (1., 0); (1e-3, 7); (nan, 2) ];
  Alcotest.(check (list (pair (float 0.) int)))
    "same buckets" (Metrics.buckets one) (Metrics.buckets batched);
  Alcotest.(check int) "same count" (Metrics.hist_count one)
    (Metrics.hist_count batched);
  check_close "same sum" (Metrics.hist_sum one) (Metrics.hist_sum batched);
  check_raises_invalid "negative count" (fun () ->
      Metrics.observe_n batched 1. (-1))

(* First uses of fresh handles from several domains released at once by
   a barrier: a [lazy] handle raised [CamlinternalLazy.Undefined] here.
   Every use must succeed, and each name must end up as one registry
   entry holding every domain's increment. *)
let t_handle_race () =
  fresh ();
  let domains = 4 and names = 200 in
  let name i = Printf.sprintf "obs_handle_race_%03d_total" i in
  let handles =
    Array.init names (fun i ->
        Metrics.handle (fun () -> Metrics.counter (name i)))
  in
  let arrived = Atomic.make 0 and failures = Atomic.make 0 in
  let worker () =
    for round = 0 to names - 1 do
      Atomic.incr arrived;
      while Atomic.get arrived < domains * (round + 1) do
        Domain.cpu_relax ()
      done;
      try Metrics.incr (Metrics.get handles.(round))
      with _ -> Atomic.incr failures
    done
  in
  List.iter Domain.join (List.init domains (fun _ -> Domain.spawn worker));
  Alcotest.(check int) "no first use raised" 0 (Atomic.get failures);
  let exported =
    List.map
      (fun c -> Json.to_str (Json.member "name" c))
      (Json.to_list (Json.member "counters" (Metrics.export ())))
  in
  for i = 0 to names - 1 do
    Alcotest.(check int)
      (name i ^ " registered once")
      1
      (List.length (List.filter (String.equal (name i)) exported));
    Alcotest.(check int)
      (name i ^ " holds every increment")
      domains
      (Metrics.counter_value (Metrics.get handles.(i)))
  done

(* {2 Instrumented subsystems} *)

let t_engine_spans () =
  fresh ();
  Tracing.with_tracing true (fun () ->
      ignore (Engine.simulate Presets.a100 Model.llama3_8b));
  let names = span_names () in
  Alcotest.(check bool) "prefill span" true (List.mem "engine.prefill" names);
  Alcotest.(check bool) "decode span" true (List.mem "engine.decode" names);
  let prefill =
    List.find (fun s -> s.Tracing.name = "engine.prefill") (Tracing.spans ())
  in
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " attr") true
        (List.mem_assoc key prefill.Tracing.attrs))
    [ "flops"; "dram_bytes"; "bound"; "layer_s" ];
  (* The per-phase latency histograms populate under tracing. *)
  let h phase =
    Metrics.histogram ~labels:[ ("phase", phase) ] "engine_phase_seconds"
  in
  Alcotest.(check bool) "prefill histogram fed" true
    (Metrics.hist_count (h "prefill") > 0);
  Alcotest.(check bool) "decode histogram fed" true
    (Metrics.hist_count (h "decode") > 0)

let t_serving_spans () =
  fresh ();
  let trace =
    Trace.synthetic ~rate_per_s:4. ~duration_s:5. ~mean_input:128 ~mean_output:16
      ()
  in
  let stats =
    Tracing.with_tracing true (fun () ->
        Simulator.run Presets.a100 Model.llama3_8b trace)
  in
  let names = span_names () in
  Alcotest.(check bool) "run span" true (List.mem "serve.run" names);
  Alcotest.(check bool) "prefill spans" true (List.mem "serve.prefill" names);
  Alcotest.(check bool) "decode spans" true (List.mem "serve.decode" names);
  let root =
    List.find (fun s -> s.Tracing.name = "serve.run") (Tracing.spans ())
  in
  (match List.assoc_opt "generated_tokens" root.Tracing.attrs with
  | Some (Tracing.Int n) ->
      Alcotest.(check int) "root records token total"
        stats.Simulator.generated_tokens n
  | _ -> Alcotest.fail "generated_tokens attr missing");
  (* Counters accumulate regardless of tracing. *)
  Alcotest.(check bool) "admitted counted" true
    (Metrics.counter_value (Metrics.counter "serving_admitted_total")
    = List.length trace)

let t_eval_cache_metrics () =
  fresh ();
  Eval.clear ();
  let scenario = Option.get (Scenario.find "a100-proxy") in
  ignore (Eval.run scenario);
  ignore (Eval.run scenario);
  let v name = Metrics.counter_value (Metrics.counter name) in
  Alcotest.(check int) "two lookups" 2 (v "dse_cache_lookups_total");
  Alcotest.(check int) "second is a hit" 1 (v "dse_cache_hits_total");
  Alcotest.(check int) "one evaluation" 1 (v "dse_evaluations_total");
  Alcotest.(check int) "evaluation timed" 1
    (Metrics.hist_count (Metrics.histogram "dse_eval_seconds"))

(* {2 Serving metrics against the simulators' own accounting} *)

(* The serving metrics' registry values; the property compares deltas. *)
type serving_counts = {
  prefills : int;
  decodes : int;
  rejected : int;
  occ_count : int;
  occ_sum : float;
}

let serving_counts () =
  let c name = Metrics.counter_value (Metrics.counter name) in
  let occ = Metrics.histogram "serving_batch_occupancy" in
  {
    prefills = c "serving_prefill_batches_total";
    decodes = c "serving_decode_steps_total";
    rejected = c "serving_rejected_total";
    occ_count = Metrics.hist_count occ;
    occ_sum = Metrics.hist_sum occ;
  }

let counts_since b =
  let a = serving_counts () in
  {
    prefills = a.prefills - b.prefills;
    decodes = a.decodes - b.decodes;
    rejected = a.rejected - b.rejected;
    occ_count = a.occ_count - b.occ_count;
    occ_sum = a.occ_sum -. b.occ_sum;
  }

(* What the registry must have gained for these per-instance stats: every
   iteration is one occupancy observation of its batch size, and a step
   of batch [b] produces [b] tokens. *)
let expected_counts ~rejected (stats : Simulator.stats list) =
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 stats in
  let prefills = sum (fun s -> s.Simulator.prefill_batches)
  and decodes = sum (fun s -> s.Simulator.decode_steps) in
  {
    prefills;
    decodes;
    rejected;
    occ_count = prefills + decodes;
    occ_sum = float_of_int (sum (fun s -> s.Simulator.produced_tokens));
  }

let pp_counts c =
  Printf.sprintf "prefills %d, decodes %d, rejected %d, occupancy %d / %g"
    c.prefills c.decodes c.rejected c.occ_count c.occ_sum

let same_counts what ~expected got =
  if got <> expected then
    QCheck.Test.fail_reportf "%s: registry gained %s, stats say %s" what
      (pp_counts got) (pp_counts expected)

(* Random arrival-ordered traces with unique ids; about one request in
   twelve asks for a KV trajectory no device can hold, so rejections
   occur. *)
let serving_case_arb =
  let open QCheck.Gen in
  let request =
    let* gap = float_bound_inclusive 0.5 in
    let* huge = int_range 0 11 in
    let* input_len = int_range 1 2048 in
    let* output_len = int_range 1 200 in
    return (gap, (if huge = 0 then 50_000_000 else input_len), output_len)
  in
  let gen =
    let* reqs = list_size (int_range 1 40) request in
    let* policy =
      oneofl [ Simulator.Prefill_priority; Simulator.Decode_fair ]
    in
    let* context_bucket = oneofl [ 1; 64 ] in
    let* split = float_bound_inclusive 1. in
    let _, trace =
      List.fold_left
        (fun (t, acc) (gap, input_len, output_len) ->
          let arrival_s = t +. gap in
          ( arrival_s,
            { Trace.id = List.length acc; arrival_s; input_len; output_len }
            :: acc ))
        (0., []) reqs
    in
    return (List.rev trace, policy, context_bucket, split)
  in
  QCheck.make
    ~print:(fun (trace, policy, bucket, split) ->
      Printf.sprintf "%d requests, %s, context_bucket %d, split %g"
        (List.length trace)
        (Simulator.policy_to_string policy)
        bucket split)
    gen

(* The registry gains exactly what the simulators count, whichever layer
   steps them: [Simulator.run]; a bare instance checked after a
   [run_until], a [step] and the final [drain] (so every stepping call
   must flush before it returns, and flush each step once); and the
   streamed fleet, unified and disaggregated, on 1 and 4 domains. *)
let t_serving_metrics_match_stats =
  qcheck ~count:40 "serving metrics = simulator stats" serving_case_arb
    (fun (trace, policy, context_bucket, split) ->
      let config =
        { Simulator.default_config with Simulator.policy; context_bucket }
      in
      let dev = Presets.a100 and model = Model.llama3_8b in
      let b = serving_counts () in
      let s = Simulator.run ~config dev model trace in
      same_counts "Simulator.run" (counts_since b)
        ~expected:
          (expected_counts ~rejected:(List.length s.Simulator.rejected) [ s ]);
      let inst = Simulator.Instance.create ~config dev model in
      let b = serving_counts () in
      List.iter (Simulator.Instance.submit inst) trace;
      let so_far what =
        same_counts what (counts_since b)
          ~expected:
            (expected_counts
               ~rejected:(Simulator.Instance.rejected_count inst)
               [ Simulator.Instance.stats inst ])
      in
      let last = (List.nth trace (List.length trace - 1)).Trace.arrival_s in
      Simulator.Instance.run_until inst (split *. last);
      so_far "Instance.run_until";
      Simulator.Instance.step inst;
      so_far "Instance.step";
      Simulator.Instance.drain inst;
      so_far "Instance.drain";
      let fleets =
        [
          ("unified", Fleet.make [ Fleet.pool ~config ~count:2 dev ]);
          ( "disaggregated",
            Fleet.make
              [
                Fleet.pool ~role:Fleet.Prefill ~config ~count:1 dev;
                Fleet.pool ~role:Fleet.Decode ~config ~count:2 dev;
              ] );
        ]
      in
      List.iter
        (fun (name, fleet) ->
          List.iter
            (fun jobs ->
              let b = serving_counts () in
              let fs =
                Parallel.with_jobs jobs (fun () ->
                    Fleet.run_stream fleet model (Trace.of_list trace))
              in
              same_counts
                (Printf.sprintf "%s run_stream at %d jobs" name jobs)
                (counts_since b)
                ~expected:
                  (expected_counts ~rejected:fs.Fleet.rejected_count
                     (List.concat_map
                        (fun ps -> Array.to_list ps.Fleet.per_group)
                        fs.Fleet.pools)))
            [ 1; 4 ])
        fleets;
      true)

let suite =
  [
    test "disabled tracing is a no-op" t_disabled_noop;
    test "span nesting and attributes" t_nesting;
    test "raising body closes its span" t_exception_safety;
    test "with_tracing restores on raise" t_with_tracing_restores;
    test "ring buffer overwrites oldest" t_ring_overflow;
    test "chrome trace export" t_chrome_export;
    test "trace file write" t_write_file;
    test "counter get-or-create" t_counter_identity;
    test "gauge set and accumulate" t_gauge;
    test "histogram observe and quantile" t_histogram;
    test "timer observes raising body" t_time_exception_safe;
    test "export and in-place reset" t_export_and_reset;
    test "counters across domains" t_multi_domain_counter;
    test "histogram bucket edges and overflow" t_histogram_edges;
    test "batched observations" t_observe_n;
    test "handles race-free on first use" t_handle_race;
    test "engine phase spans and histograms" t_engine_spans;
    test "serving spans and counters" t_serving_spans;
    test "eval cache metrics" t_eval_cache_metrics;
    t_serving_metrics_match_stats;
  ]
