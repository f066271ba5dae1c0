(* Fleet simulator (Cluster): routing, disaggregated handoff, and the
   invariants that tie fleet accounting back to the per-device simulator. *)

open Core
open Helpers

let model = Model.llama3_8b
let dev = Presets.a100

let small_trace =
  Trace.synthetic ~rate_per_s:4. ~duration_s:10. ~mean_input:256
    ~mean_output:32 ()

(* An overload trace: more offered work than a couple of groups serve in
   the window, so routing decisions and queueing actually matter. *)
let heavy_trace =
  Trace.synthetic ~rate_per_s:20. ~duration_s:8. ~mean_input:256
    ~mean_output:32 ()

let unified ?(routing = Fleet.Least_loaded) ?(count = 2) () =
  Fleet.make ~routing [ Fleet.pool ~count dev ]

let disagg ?(routing = Fleet.Least_loaded) () =
  Fleet.make ~routing
    [
      Fleet.pool ~role:Fleet.Prefill ~count:1 dev;
      Fleet.pool ~role:Fleet.Decode ~count:2 dev;
    ]

let sum_groups fs f =
  List.fold_left
    (fun acc ps -> Array.fold_left (fun acc s -> acc + f s) acc ps.Fleet.per_group)
    0 fs.Fleet.pools

let sum_pools role fs f =
  List.fold_left
    (fun acc ps -> if ps.Fleet.pool_role = role then acc + f ps else acc)
    0 fs.Fleet.pools

(* Every fleet run must conserve requests and tokens: the fleet-level
   outcome and reject lists against the pool counters, per-group produced
   tokens against the fleet total; and no group may overcommit its
   HBM. *)
let check_fleet_invariants ~trace fs =
  let n_trace = List.length trace in
  let completed = List.length fs.Fleet.outcomes in
  let rejected = List.length fs.Fleet.rejected in
  Alcotest.(check int) "every request completes or is rejected" n_trace
    (completed + rejected);
  Alcotest.(check int) "completed counter = outcome list" completed
    fs.Fleet.completed;
  Alcotest.(check int) "rejected counter = reject list" rejected
    fs.Fleet.rejected_count;
  Alcotest.(check int)
    "produced tokens = sum of per-group produced"
    (sum_groups fs (fun s -> s.Simulator.produced_tokens))
    fs.Fleet.produced_tokens;
  let pool_completed role = sum_pools role fs (fun ps -> ps.Fleet.pool_completed) in
  let pool_rejected role = sum_pools role fs (fun ps -> ps.Fleet.pool_rejected) in
  if not (List.exists (fun ps -> ps.Fleet.pool_role = Fleet.Prefill) fs.Fleet.pools)
  then begin
    Alcotest.(check int) "completed = sum of pool completed" completed
      (pool_completed Fleet.Unified);
    Alcotest.(check int) "rejected = sum of pool rejected" rejected
      (pool_rejected Fleet.Unified)
  end
  else begin
    (* Disaggregated: single-token requests finish on the prefill side;
       every other prefill hands off once, and each handoff completes or
       is rejected on the decode side. *)
    let single =
      List.length
        (List.filter
           (fun (o : Simulator.request_outcome) ->
             o.Simulator.request.Trace.output_len <= 1)
           fs.Fleet.outcomes)
    in
    Alcotest.(check int) "prefill completions = handoffs + single-token"
      (fs.Fleet.handoff_transfers + single)
      (pool_completed Fleet.Prefill);
    Alcotest.(check int) "handoffs = decode completed + decode rejected"
      fs.Fleet.handoff_transfers
      (pool_completed Fleet.Decode + pool_rejected Fleet.Decode);
    Alcotest.(check int) "decode completions = multi-token outcomes"
      (completed - single) (pool_completed Fleet.Decode);
    Alcotest.(check int) "rejected = prefill + decode rejects" rejected
      (pool_rejected Fleet.Prefill + pool_rejected Fleet.Decode)
  end;
  List.iter
    (fun ps ->
      Array.iter
        (fun s ->
          if s.Simulator.peak_hbm_bytes > s.Simulator.hbm_capacity_bytes then
            Alcotest.failf "group in %s overcommitted HBM: %.3g > %.3g"
              ps.Fleet.pool_name s.Simulator.peak_hbm_bytes
              s.Simulator.hbm_capacity_bytes;
          check_between
            (ps.Fleet.pool_name ^ " utilization")
            0. 1.000001 ps.Fleet.utilization)
        ps.Fleet.per_group)
    fs.Fleet.pools;
  (* Each original request id appears exactly once across outcomes and
     rejects. *)
  let seen = Hashtbl.create n_trace in
  List.iter
    (fun (o : Simulator.request_outcome) ->
      Hashtbl.replace seen o.Simulator.request.Trace.id ())
    fs.Fleet.outcomes;
  List.iter (fun (r : Trace.request) -> Hashtbl.replace seen r.Trace.id ()) fs.Fleet.rejected;
  Alcotest.(check int) "no request lost or duplicated" n_trace (Hashtbl.length seen)

let routing_of = function
  | 0 -> Fleet.Round_robin
  | 1 -> Fleet.Least_loaded
  | _ -> Fleet.Phase_affine

(* The acceptance bar, as a property: a 1-group fleet is the bare
   simulator. [Fleet.run] reproduces [Simulator.run] bit for bit (sorted
   outcomes, rejects, percentiles), and its one group's stats are the solo
   stats with the lists emptied and the percentiles zeroed - fleet groups
   deliver outcomes through sinks. [run_stream] at any epoch keeps the
   same counters, makespan and group stats. Traces are arrival-ordered,
   with equal arrivals, single-token requests and, one in eight,
   requests whose KV never fits. *)
let t_single_group_identity =
  let request =
    QCheck.Gen.(
      quad
        (frequency [ (1, return 0.); (4, float_range 0. 0.5) ])
        (int_range 8 512) (int_range 1 64) (int_range 0 7))
  in
  let gen =
    QCheck.make
      ~print:(fun (reqs, decode_fair, fine, routing) ->
        Printf.sprintf "%d requests, decode_fair=%b bucket=%d routing=%d"
          (List.length reqs) decode_fair
          (if fine then 1 else 64)
          routing)
      QCheck.Gen.(
        quad (list_size (int_range 1 30) request) bool bool (int_range 0 2))
  in
  qcheck ~count:30 "1-group fleet = bare simulator" gen
    (fun (reqs, decode_fair, fine, routing) ->
      let clock = ref 0. in
      let trace =
        List.mapi
          (fun id (gap, input_len, output_len, kind) ->
            clock := !clock +. gap;
            let input_len = if kind = 0 then 1 lsl 22 else input_len in
            { Trace.id; arrival_s = !clock; input_len; output_len })
          reqs
      in
      let config =
        {
          Simulator.default_config with
          Simulator.policy =
            (if decode_fair then Simulator.Decode_fair
             else Simulator.Prefill_priority);
          context_bucket = (if fine then 1 else 64);
        }
      in
      let fleet =
        Fleet.make ~routing:(routing_of routing) [ Fleet.pool ~config ~count:1 dev ]
      in
      let solo = Simulator.run ~config dev model trace in
      let group =
        {
          solo with
          Simulator.outcomes = [];
          rejected = [];
          p50_ttft_s = 0.;
          p95_ttft_s = 0.;
          p50_tbt_s = 0.;
          p95_tbt_s = 0.;
        }
      in
      let bits = Int64.bits_of_float in
      let key (o : Simulator.request_outcome) =
        ( o.Simulator.request.Trace.id,
          bits o.Simulator.ttft_s,
          bits o.Simulator.tbt_s,
          bits o.Simulator.finish_s )
      in
      let by_finish =
        List.sort (fun a b ->
            compare
              (a.Simulator.finish_s, a.Simulator.request.Trace.id)
              (b.Simulator.finish_s, b.Simulator.request.Trace.id))
      in
      let check_group what fs =
        match fs.Fleet.pools with
        | [ { Fleet.per_group = [| s |]; _ } ] ->
            Alcotest.(check bool) (what ^ ": group stats = solo stats") true
              (s = group)
        | _ -> Alcotest.failf "%s: expected one pool of one group" what
      in
      let fs = Fleet.run fleet model trace in
      Alcotest.(check bool) "outcomes bit-identical" true
        (List.map key fs.Fleet.outcomes
        = List.map key (by_finish solo.Simulator.outcomes));
      Alcotest.(check bool) "rejects identical" true
        (fs.Fleet.rejected = solo.Simulator.rejected);
      Alcotest.(check bool) "percentiles bit-identical" true
        (List.map bits
           [ fs.Fleet.p50_ttft_s; fs.Fleet.p95_ttft_s; fs.Fleet.p50_tbt_s;
             fs.Fleet.p95_tbt_s ]
        = List.map bits
            [ solo.Simulator.p50_ttft_s; solo.Simulator.p95_ttft_s;
              solo.Simulator.p50_tbt_s; solo.Simulator.p95_tbt_s ]);
      check_group "run" fs;
      List.iter
        (fun epoch ->
          let what = Printf.sprintf "run_stream epoch %d" epoch in
          let st = Fleet.run_stream ~epoch fleet model (Trace.of_list trace) in
          Alcotest.(check (list int)) (what ^ ": counters")
            [ List.length solo.Simulator.outcomes;
              List.length solo.Simulator.rejected;
              solo.Simulator.generated_tokens; solo.Simulator.produced_tokens ]
            [ st.Fleet.completed; st.Fleet.rejected_count;
              st.Fleet.generated_tokens; st.Fleet.produced_tokens ];
          Alcotest.(check bool) (what ^ ": makespan") true
            (bits st.Fleet.makespan_s = bits solo.Simulator.makespan_s);
          check_group what st)
        [ 1; 7; 512 ];
      true)

let t_unified_conservation () =
  let fs = Fleet.run (unified ()) model heavy_trace in
  check_fleet_invariants ~trace:heavy_trace fs;
  (* Unified fleets complete everything that fits, and generated tokens
     split exactly across groups. *)
  Alcotest.(check int)
    "generated = sum of per-group generated"
    (sum_groups fs (fun s -> s.Simulator.generated_tokens))
    fs.Fleet.generated_tokens

let t_heterogeneous_conservation () =
  let slow =
    { dev with
      Device.name = "slow-a100";
      memory = Memory.make ~capacity_gb:80. ~bandwidth_tb_s:1. }
  in
  let fleet =
    Fleet.make ~routing:Fleet.Phase_affine
      [ Fleet.pool ~count:1 dev; Fleet.pool ~count:2 slow ]
  in
  let fs = Fleet.run fleet model heavy_trace in
  check_fleet_invariants ~trace:heavy_trace fs;
  Alcotest.(check int) "three groups" 3 fs.Fleet.groups;
  (* Phase-affine routing must still use every group under overload. *)
  List.iter
    (fun ps ->
      if ps.Fleet.pool_completed + ps.Fleet.pool_rejected = 0 then
        Alcotest.failf "pool %s never routed to" ps.Fleet.pool_name)
    fs.Fleet.pools

let t_round_robin_balances () =
  (* Two single-group pools, so the pool counters are per-group counts. *)
  let fleet =
    Fleet.make ~routing:Fleet.Round_robin
      [ Fleet.pool ~name:"a" ~count:1 dev; Fleet.pool ~name:"b" ~count:1 dev ]
  in
  let fs = Fleet.run fleet model heavy_trace in
  match
    List.map (fun ps -> ps.Fleet.pool_completed + ps.Fleet.pool_rejected) fs.Fleet.pools
  with
  | [ a; b ] ->
      Alcotest.(check int) "every request routed" (List.length heavy_trace) (a + b);
      if abs (a - b) > 1 then Alcotest.failf "round-robin split %d/%d" a b
  | _ -> Alcotest.fail "expected two pools"

let t_disaggregated_conservation () =
  let fs = Fleet.run (disagg ()) model heavy_trace in
  check_fleet_invariants ~trace:heavy_trace fs;
  (* Every completed multi-token request shipped its KV exactly once. *)
  let multi =
    List.length
      (List.filter
         (fun (o : Simulator.request_outcome) ->
           o.Simulator.request.Trace.output_len > 1)
         fs.Fleet.outcomes)
  in
  if fs.Fleet.handoff_transfers < multi then
    Alcotest.failf "%d completions but only %d handoffs" multi
      fs.Fleet.handoff_transfers;
  Alcotest.(check bool) "handoff bytes accumulated" true (fs.Fleet.handoff_bytes > 0.);
  Alcotest.(check bool) "handoff delay positive" true (fs.Fleet.mean_handoff_s > 0.);
  (* Token conservation across the split: prefill contributes one token
     per handed-off request, decode the rest, so the per-group sum equals
     the unified count (no decode-side rejects here - the pools share one
     device type). *)
  Alcotest.(check int)
    "produced = generated across the handoff" fs.Fleet.generated_tokens
    fs.Fleet.produced_tokens;
  (* The merged outcome timeline is causally ordered: first token before
     finish, decode finish after the prefill-side handoff. *)
  List.iter
    (fun (o : Simulator.request_outcome) ->
      if o.Simulator.ttft_s <= 0. then Alcotest.fail "non-positive ttft";
      if o.Simulator.finish_s < o.Simulator.request.Trace.arrival_s then
        Alcotest.fail "finished before arrival";
      if o.Simulator.request.Trace.output_len > 1 && o.Simulator.tbt_s <= 0.
      then Alcotest.fail "multi-token request with non-positive tbt")
    fs.Fleet.outcomes

let t_disagg_slower_ttft_than_idle_decode () =
  (* The decode pool adds transfer delay to the token stream, never to
     TTFT: first tokens come off the prefill side. With an idle prefill
     pool, disaggregated p50 TTFT should be close to (and not wildly above)
     a unified fleet of the same prefill silicon. *)
  let light =
    Trace.synthetic ~rate_per_s:1. ~duration_s:10. ~mean_input:256
      ~mean_output:16 ()
  in
  let fs_u = Fleet.run (unified ~count:1 ()) model light in
  let fs_d = Fleet.run (disagg ()) model light in
  check_between "disagg p50 ttft vs unified" (0.5 *. fs_u.Fleet.p50_ttft_s)
    (2. *. fs_u.Fleet.p50_ttft_s) fs_d.Fleet.p50_ttft_s

let t_fleet_validation () =
  check_raises_invalid "no pools" (fun () -> ignore (Fleet.make []));
  check_raises_invalid "bad count" (fun () ->
      ignore (Fleet.pool ~count:0 dev));
  check_raises_invalid "duplicate names" (fun () ->
      ignore (Fleet.make [ Fleet.pool ~count:1 dev; Fleet.pool ~count:2 dev ]));
  check_raises_invalid "prefill without decode" (fun () ->
      ignore (Fleet.make [ Fleet.pool ~role:Fleet.Prefill ~count:1 dev ]));
  check_raises_invalid "unified mixed with prefill/decode" (fun () ->
      ignore
        (Fleet.make
           [
             Fleet.pool ~name:"u" ~count:1 dev;
             Fleet.pool ~role:Fleet.Prefill ~count:1 dev;
             Fleet.pool ~role:Fleet.Decode ~count:1 dev;
           ]));
  (* [b <= 0.] alone would let nan and infinity through. *)
  List.iter
    (fun b ->
      check_raises_invalid
        (Printf.sprintf "handoff bandwidth %g" b)
        (fun () -> ignore (Fleet.make ~handoff_gb_s:b [ Fleet.pool ~count:1 dev ])))
    [ 0.; -1.; Float.nan; infinity ];
  check_raises_invalid "empty trace" (fun () ->
      ignore (Fleet.run (unified ()) model []));
  check_raises_invalid "duplicate request ids" (fun () ->
      let r = { Trace.id = 1; arrival_s = 0.; input_len = 64; output_len = 8 } in
      ignore (Fleet.run (unified ()) model [ r; r ]))

let t_devices_for_qps () =
  let fs = Fleet.run (unified ()) model heavy_trace in
  check_raises_invalid "non-positive target" (fun () ->
      ignore (Fleet.devices_for_qps fs ~target_qps:0.));
  let achieved = fs.Fleet.requests_per_s in
  Alcotest.(check bool) "fleet achieved a rate" true (achieved > 0.);
  (* Sizing for the achieved rate can only shrink the fleet (utilization
     <= 1); doubling the target is monotone. *)
  let at_achieved = Fleet.devices_for_qps fs ~target_qps:achieved in
  List.iter2
    (fun (p : Fleet.pool) (name, n) ->
      Alcotest.(check string) "plan order follows pools" p.Fleet.name name;
      check_between "groups at achieved rate" 1. (float_of_int p.Fleet.count)
        (float_of_int n))
    (unified ()).Fleet.pools at_achieved;
  let doubled = Fleet.devices_for_qps fs ~target_qps:(2. *. achieved) in
  List.iter2
    (fun (_, n1) (_, n2) ->
      if n2 < n1 then Alcotest.failf "doubling the target shrank the fleet")
    at_achieved doubled

let t_cost_per_mtok () =
  let fleet = unified () in
  let fs = Fleet.run fleet model heavy_trace in
  let unwrap what = function
    | Some c -> c
    | None -> Alcotest.failf "%s: expected Some cost" what
  in
  let cost =
    unwrap "measured fleet"
      (Fleet.silicon_usd_per_mtok ~die_cost_usd:(fun _ -> 1000.) fleet fs)
  in
  Alcotest.(check bool) "cost positive and finite" true
    (cost > 0. && Float.is_finite cost);
  (* Double the die price, double the rate. *)
  let cost2 =
    unwrap "doubled die price"
      (Fleet.silicon_usd_per_mtok ~die_cost_usd:(fun _ -> 2000.) fleet fs)
  in
  check_close "cost scales with die price" (2. *. cost) cost2;
  (* Regression: a fleet that sustained nothing has no per-token cost -
     the old API returned [infinity] here (and NaN for a zero-cost
     fleet), which leaked straight into comparisons and tables. *)
  let dead = { fs with Fleet.throughput_tokens_per_s = 0. } in
  (match Fleet.silicon_usd_per_mtok ~die_cost_usd:(fun _ -> 1000.) fleet dead with
  | None -> ()
  | Some c -> Alcotest.failf "zero-throughput fleet costed at %g/Mtok" c);
  (match
     Fleet.silicon_usd_per_mtok ~die_cost_usd:(fun _ -> 1000.) fleet
       { fs with Fleet.throughput_tokens_per_s = infinity }
   with
  | None -> ()
  | Some c -> Alcotest.failf "non-finite throughput costed at %g/Mtok" c)

let t_fleet_slo () =
  let fs = Fleet.run (unified ()) model small_trace in
  let a = Fleet.slo_attainment fs ~ttft_s:1e9 ~tbt_s:1e9 in
  check_close "loose objectives met" 1. a;
  let z = Fleet.slo_attainment fs ~ttft_s:1e-12 ~tbt_s:1e-12 in
  check_close "impossible objectives missed" 0. z;
  check_raises_invalid "bad objective" (fun () ->
      ignore (Fleet.slo_attainment fs ~ttft_s:0. ~tbt_s:1.))

(* Property: over random fleet shapes, routings and traces, the
   conservation and KV-safety invariants hold - including across the
   disaggregated handoff. *)
let t_fleet_properties =
  let gen =
    QCheck.make
      ~print:(fun (count, routing, disagg, seed) ->
        Printf.sprintf "count=%d routing=%d disagg=%b seed=%d" count routing
          disagg seed)
      QCheck.Gen.(
        quad (int_range 1 3) (int_range 0 2) bool (int_range 0 1000))
  in
  qcheck ~count:10 "fleet invariants hold over random fleets" gen
    (fun (count, routing, disaggregated, seed) ->
      let routing = routing_of routing in
      let fleet =
        if disaggregated then
          Fleet.make ~routing
            [
              Fleet.pool ~role:Fleet.Prefill ~count:1 dev;
              Fleet.pool ~role:Fleet.Decode ~count dev;
            ]
        else Fleet.make ~routing [ Fleet.pool ~count dev ]
      in
      let trace =
        Trace.synthetic ~seed ~rate_per_s:6. ~duration_s:5. ~mean_input:128
          ~mean_output:16 ()
      in
      match trace with
      | [] -> true
      | trace ->
          let fs = Fleet.run fleet model trace in
          check_fleet_invariants ~trace fs;
          true)

(* ---- streamed (bounded-memory, domain-parallel) execution ---- *)

(* Totals that both execution modes must agree on. Streamed stats keep no
   outcome lists, so the comparison is over counters, per-group step
   counts and clocks. *)
let totals fs =
  ( fs.Fleet.completed,
    fs.Fleet.rejected_count,
    fs.Fleet.generated_tokens,
    fs.Fleet.produced_tokens,
    fs.Fleet.handoff_transfers,
    fs.Fleet.makespan_s,
    sum_groups fs (fun s -> s.Simulator.prefill_batches),
    sum_groups fs (fun s -> s.Simulator.decode_steps) )

let t_stream_equals_run_round_robin () =
  (* Round-robin routing is epoch-independent, so the streamed engine
     must reproduce the materialized run exactly - unified and across the
     disaggregated handoff, at several epoch sizes including one smaller
     than the trace. *)
  List.iter
    (fun fleet ->
      let fs_run = Fleet.run fleet model heavy_trace in
      List.iter
        (fun epoch ->
          let fs_stream =
            Fleet.run_stream ~epoch fleet model (Trace.of_list heavy_trace)
          in
          Alcotest.(check bool)
            (Printf.sprintf "streamed totals = run totals (epoch %d)" epoch)
            true
            (totals fs_stream = totals fs_run);
          Alcotest.(check (list int))
            "no outcome list retained" []
            (List.map
               (fun (o : Simulator.request_outcome) ->
                 o.Simulator.request.Trace.id)
               fs_stream.Fleet.outcomes))
        [ 1; 7; 512 ])
    [ unified ~routing:Fleet.Round_robin (); disagg ~routing:Fleet.Round_robin () ]

let t_stream_single_group_identity () =
  (* 1-group streamed fleet vs the bare simulator. Counters, makespan and
     group stats are exact (the 1-group property checks them at several
     epochs); the percentiles come from online sketches - nearest-rank
     within 1% vs the exact interpolated ones, so they differ by at most
     one order statistic; on this small sample 20% head-room is ample
     without being vacuous. *)
  let solo = Simulator.run dev model small_trace in
  let fs =
    Fleet.run_stream (unified ~count:1 ()) model (Trace.of_list small_trace)
  in
  Alcotest.(check int) "completed" (List.length solo.Simulator.outcomes)
    fs.Fleet.completed;
  check_close "makespan" solo.Simulator.makespan_s fs.Fleet.makespan_s;
  check_within "p50 ttft" ~tolerance:0.2 solo.Simulator.p50_ttft_s
    fs.Fleet.p50_ttft_s;
  check_within "p50 tbt" ~tolerance:0.2 solo.Simulator.p50_tbt_s
    fs.Fleet.p50_tbt_s

let t_stream_slo_online () =
  let fs_run = Fleet.run (unified ()) model small_trace in
  let exact = Fleet.slo_attainment fs_run ~ttft_s:0.5 ~tbt_s:0.05 in
  let fs =
    Fleet.run_stream ~slo:(0.5, 0.05) (unified ()) model
      (Trace.of_list small_trace)
  in
  (match fs.Fleet.slo_attained with
  | Some a -> check_close "online slo = exact slo" exact a
  | None -> Alcotest.fail "streamed run with ?slo reported no attainment");
  let fs_none = Fleet.run_stream (unified ()) model (Trace.of_list small_trace) in
  Alcotest.(check bool) "no slo requested, none reported" true
    (fs_none.Fleet.slo_attained = None);
  check_raises_invalid "bad slo objective" (fun () ->
      ignore
        (Fleet.run_stream ~slo:(0., 1.) (unified ()) model
           (Trace.of_list small_trace)))

let t_stream_validation () =
  check_raises_invalid "empty stream" (fun () ->
      ignore (Fleet.run_stream (unified ()) model (Trace.of_list [])));
  check_raises_invalid "bad epoch" (fun () ->
      ignore
        (Fleet.run_stream ~epoch:0 (unified ()) model
           (Trace.of_list small_trace)));
  check_raises_invalid "duplicate ids in stream" (fun () ->
      let r = { Trace.id = 1; arrival_s = 0.; input_len = 64; output_len = 8 } in
      ignore (Fleet.run_stream (disagg ()) model (Trace.of_list [ r; r ])));
  (* Submission is FCFS: an out-of-order or non-finite arrival must
     raise, not be simulated. Equal arrivals are legal (the 1-group
     property streams them). *)
  check_raises_invalid "reversed stream" (fun () ->
      ignore
        (Fleet.run_stream
           (unified ~routing:Fleet.Round_robin ())
           model
           (Trace.of_list (List.rev heavy_trace))));
  check_raises_invalid "nan arrival" (fun () ->
      ignore
        (Fleet.run_stream (unified ()) model
           (Trace.of_list
              (List.mapi
                 (fun i (r : Trace.request) ->
                   if i = 3 then { r with Trace.arrival_s = Float.nan } else r)
                 small_trace))))

(* The acceptance bar for the parallel engine: the merged stats are
   bit-identical whether the groups step on 1 domain or 4, over random
   fleet shapes, routings and epoch sizes. *)
let t_stream_jobs_identity =
  let gen =
    QCheck.make
      ~print:(fun (count, routing, disagg, epoch, seed) ->
        Printf.sprintf "count=%d routing=%d disagg=%b epoch=%d seed=%d" count
          routing disagg epoch seed)
      QCheck.Gen.(
        tup5 (int_range 1 3) (int_range 0 2) bool (int_range 1 64)
          (int_range 0 1000))
  in
  qcheck ~count:10 "streamed fleet is job-count independent" gen
    (fun (count, routing, disaggregated, epoch, seed) ->
      let routing = routing_of routing in
      let fleet =
        if disaggregated then
          Fleet.make ~routing
            [
              Fleet.pool ~role:Fleet.Prefill ~count:1 dev;
              Fleet.pool ~role:Fleet.Decode ~count dev;
            ]
        else Fleet.make ~routing [ Fleet.pool ~count dev ]
      in
      let trace =
        Trace.synthetic ~seed ~rate_per_s:6. ~duration_s:5. ~mean_input:128
          ~mean_output:16 ()
      in
      match trace with
      | [] -> true
      | trace ->
          let go jobs =
            Parallel.with_jobs jobs (fun () ->
                Fleet.run_stream ~epoch fleet model (Trace.of_list trace))
          in
          let fs1 = go 1 and fs4 = go 4 in
          if fs1 <> fs4 then
            QCheck.Test.fail_reportf
              "1-job and 4-job streamed stats differ: %d/%d completed, %g/%g \
               makespan"
              fs1.Fleet.completed fs4.Fleet.completed fs1.Fleet.makespan_s
              fs4.Fleet.makespan_s;
          (* and the streamed run conserves requests like the materialized
             one *)
          Alcotest.(check int) "streamed conservation" (List.length trace)
            (fs1.Fleet.completed + fs1.Fleet.rejected_count);
          true)

let t_devices_for_qps_nonfinite () =
  let fs = Fleet.run (unified ()) model heavy_trace in
  check_raises_invalid "nan target" (fun () ->
      ignore (Fleet.devices_for_qps fs ~target_qps:Float.nan));
  check_raises_invalid "infinite target" (fun () ->
      ignore (Fleet.devices_for_qps fs ~target_qps:infinity))

let suite =
  [
    t_single_group_identity;
    test "unified fleet conserves tokens" t_unified_conservation;
    test "heterogeneous fleet conserves tokens" t_heterogeneous_conservation;
    test "round-robin balances requests" t_round_robin_balances;
    test "disaggregated fleet conserves across handoff" t_disaggregated_conservation;
    test "disaggregated ttft tracks prefill side" t_disagg_slower_ttft_than_idle_decode;
    test "fleet validation" t_fleet_validation;
    test "devices for target qps" t_devices_for_qps;
    test "silicon cost per mtok" t_cost_per_mtok;
    test "fleet slo attainment" t_fleet_slo;
    t_fleet_properties;
    test "streamed round-robin = materialized run" t_stream_equals_run_round_robin;
    test "streamed 1-group fleet tracks bare simulator" t_stream_single_group_identity;
    test "streamed slo attainment online" t_stream_slo_online;
    test "streamed validation" t_stream_validation;
    t_stream_jobs_identity;
    test "devices_for_qps rejects non-finite targets" t_devices_for_qps_nonfinite;
  ]
