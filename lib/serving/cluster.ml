module Device = Acs_hardware.Device
module Model = Acs_workload.Model
module Stats = Acs_util.Stats
module Span = Acs_util.Trace
module Metrics = Acs_util.Metrics
module Parallel = Acs_util.Parallel
module Heap = Acs_util.Heap

let m_routed = Metrics.handle (fun () -> Metrics.counter "fleet_routed_total")
let m_handoffs =
  Metrics.handle (fun () -> Metrics.counter "fleet_handoffs_total")
let m_handoff_s =
  Metrics.handle (fun () -> Metrics.histogram "fleet_handoff_seconds")

type role = Unified | Prefill | Decode
type routing = Round_robin | Least_loaded | Phase_affine

type pool = {
  name : string;
  device : Device.t;
  count : int;
  role : role;
  config : Simulator.config;
}

type t = { pools : pool list; routing : routing; handoff_gb_s : float option }

let role_to_string = function
  | Unified -> "unified"
  | Prefill -> "prefill"
  | Decode -> "decode"

let routing_to_string = function
  | Round_robin -> "round-robin"
  | Least_loaded -> "least-loaded"
  | Phase_affine -> "phase-affine"

let pool ?name ?(role = Unified) ?(config = Simulator.default_config) ~count
    device =
  if count < 1 then invalid_arg "Cluster.pool: count must be >= 1";
  let name =
    match name with
    | Some n -> n
    | None -> (
        match role with
        | Unified -> device.Device.name
        | Prefill -> "prefill:" ^ device.Device.name
        | Decode -> "decode:" ^ device.Device.name)
  in
  { name; device; count; role; config }

let disaggregated t = List.exists (fun p -> p.role = Prefill) t.pools

let make ?(routing = Least_loaded) ?handoff_gb_s pools =
  if pools = [] then invalid_arg "Cluster.make: at least one pool";
  (match handoff_gb_s with
  | Some b when not (Float.is_finite b && b > 0.) ->
      invalid_arg "Cluster.make: handoff_gb_s must be finite and positive"
  | _ -> ());
  let names = List.map (fun p -> p.name) pools in
  if List.length (List.sort_uniq compare names) <> List.length names then
    invalid_arg
      "Cluster.make: duplicate pool names (pass ~name to disambiguate)";
  let has r = List.exists (fun p -> p.role = r) pools in
  (match (has Unified, has Prefill, has Decode) with
  | _, false, false | false, true, true -> ()
  | _ ->
      invalid_arg
        "Cluster.make: pools must be all unified, or a prefill/decode split \
         with both sides present");
  { pools; routing; handoff_gb_s }

type pool_stats = {
  pool_name : string;
  pool_role : role;
  pool_count : int;
  per_group : Simulator.stats array;
  pool_completed : int;
  pool_rejected : int;
  pool_produced_tokens : int;
  utilization : float;
  occupancy : float;
}

type fleet_stats = {
  outcomes : Simulator.request_outcome list;
  rejected : Trace.request list;
  completed : int;
  rejected_count : int;
  slo_attained : float option;
  pools : pool_stats list;
  groups : int;
  makespan_s : float;
  serving_span_s : float;
  generated_tokens : int;
  produced_tokens : int;
  throughput_tokens_per_s : float;
  requests_per_s : float;
  p50_ttft_s : float;
  p95_ttft_s : float;
  p50_tbt_s : float;
  p95_tbt_s : float;
  handoff_transfers : int;
  handoff_bytes : float;
  mean_handoff_s : float;
}

(* --- routing ---

   A node is one scheduler instance plus its own stepper (the router
   prices requests with it under [Phase_affine]). Each node gets a
   private stepper rather than sharing one per pool: the compiled
   stepper's shape memo is a plain hash table, and private tables are
   what lets the drain and the round advance run nodes on separate
   domains without synchronization (the memo is pure, so per-node tables
   change cost, not results). Routing happens in global arrival order. *)

type node = { inst : Simulator.Instance.t; stepper : Simulator.stepper }

type router = {
  nodes : node array;
  routing : routing;
  mutable cursor : int;
}

(* Single-request service time on a candidate: the phase-affinity signal.
   Batch-1 latencies overestimate amortized per-token cost, but they
   overestimate every candidate consistently, and ranking is all routing
   needs. *)
let est_service_s (st : Simulator.stepper) ~prefilled (r : Trace.request) =
  let prefill_t =
    if prefilled then 0.
    else st.Simulator.prefill_s ~batch:1 ~input_len:r.Trace.input_len
  in
  let decode_tokens = r.Trace.output_len - if prefilled then 0 else 1 in
  if decode_tokens <= 0 then prefill_t
  else
    prefill_t
    +. float_of_int decode_tokens
       *. st.Simulator.decode_s ~batch:1 ~context:r.Trace.input_len

(* [advance_to_arrival] steps every candidate to the arrival instant
   before a least-loaded/phase-affine choice, so load signals reflect what
   each device will have finished by then. Without it (the streamed
   mode, whose rounds step nodes in parallel) decisions price with
   signals as of the last round boundary. Round-robin is unaffected. *)
let dispatch ~advance_to_arrival router ~prefilled (r : Trace.request) =
  let nodes = router.nodes in
  let n = Array.length nodes in
  let advance () =
    if advance_to_arrival then
      Array.iter
        (fun nd -> Simulator.Instance.run_until nd.inst r.Trace.arrival_s)
        nodes
  in
  let argmin score =
    let best = ref 0 and best_score = ref (score nodes.(0)) in
    for i = 1 to n - 1 do
      let s = score nodes.(i) in
      if s < !best_score then begin
        best := i;
        best_score := s
      end
    done;
    nodes.(!best)
  in
  let chosen =
    if n = 1 then nodes.(0)
    else
      match router.routing with
      | Round_robin ->
          let i = router.cursor mod n in
          router.cursor <- router.cursor + 1;
          nodes.(i)
      | Least_loaded ->
          advance ();
          argmin (fun nd -> float_of_int (Simulator.Instance.load nd.inst))
      | Phase_affine ->
          advance ();
          (* Estimated completion: backlog drain plus own service time,
             both priced with the candidate's stepper. Heterogeneous
             devices rank by phase-relevant speed; identical ones fall
             back to load balancing through the backlog term. *)
          argmin (fun nd ->
              float_of_int (Simulator.Instance.load nd.inst)
              *. nd.stepper.Simulator.decode_s ~batch:1
                   ~context:r.Trace.input_len
              +. est_service_s nd.stepper ~prefilled r)
  in
  Simulator.Instance.submit ~prefilled chosen.inst r;
  Metrics.incr (Metrics.get m_routed)

(* --- the fleet loop --- *)

let by_arrival (a : Trace.request) (b : Trace.request) =
  compare a.Trace.arrival_s b.Trace.arrival_s

let handoff_bytes_per_s (t : t) =
  (match t.handoff_gb_s with
  | Some gb -> gb
  | None ->
      List.fold_left
        (fun acc p -> Float.min acc (Device.device_bandwidth_gb_s p.device))
        infinity t.pools)
  *. 1e9

(* Full-model KV for the prompt plus the prefill's token: every layer's
   cache crosses the link, regardless of how tp shards it at either
   end. *)
let handoff_kv_bytes (model : Model.t) ~input_len =
  Model.kv_cache_bytes_per_token model
  *. float_of_int model.Model.num_layers
  *. float_of_int (input_len + 1)

let make_nodes ?calib (t : t) model =
  List.map
    (fun p ->
      ( p,
        Array.init p.count (fun _ ->
            let stepper =
              Simulator.make_stepper ?calib ~config:p.config p.device model
            in
            {
              inst =
                Simulator.Instance.create ~stepper ~config:p.config p.device
                  model;
              stepper;
            }) ))
    t.pools

(* Nodes are independent between routing decisions, so advancing them to
   a horizon - or draining them, at [infinity] - shards across the domain
   pool. [~chunk:1] because per-node work is large and node counts small;
   results merge on the calling domain afterwards, in node order, which
   keeps every aggregate bit-identical whatever ACS_JOBS says. *)
let step_nodes nodes horizon =
  ignore
    (Parallel.map_array ~chunk:1
       (fun nd ->
         if horizon = infinity then Simulator.Instance.drain nd.inst
         else Simulator.Instance.run_until nd.inst horizon)
       nodes)

(* One loop serves {!run} and {!run_stream}. The router thread alternates
   two phases in rounds:

   - routing: pull the round's requests off the stream and submit them
     (sequentially, in arrival order - submission order is the FCFS
     contract);
   - stepping: advance every node in parallel to the arrival time of the
     first request of the next round (each node is an independent
     scheduler between routing decisions), or drain them all after the
     last round, then fold each node's freshly finished outcomes -
     delivered through instance sinks into per-node buffers - walking
     nodes in fixed array order.

   The mode sets the round size, what the router sees and what is kept:

   - [Streamed epoch]: rounds of [epoch] requests; routing signals are as
     of the last round boundary; outcomes fold into online sketches, so
     peak memory is O(groups * (resident batch + backlog) + epoch +
     sketch), independent of trace length.
   - [Exact]: the whole trace is one round, and every candidate is
     advanced to each arrival before the router chooses. Per-instance
     schedules depend only on the submitted set and order, so deferring
     the remaining stepping to the drain is equivalent to a synchronous
     co-simulation (and a 1-group fleet reproduces {!Simulator.run}
     exactly). Merged outcomes and rejects are kept, and percentiles are
     exact.

   Determinism: node executions depend only on their submitted sets (the
   router fixes those before any parallel work), and the merge walks
   nodes in array order on the calling domain, so every accumulated
   float sees the same operands in the same order whatever the job
   count - 1-job and N-job runs are bit-identical. *)

type mode = Exact | Streamed of int

(* What the merge folds outcomes into: counters always; the outcome and
   reject lists when [keep] (exact mode); otherwise online sketches and
   SLO hits. *)
type acc = {
  keep : bool;
  acc_ttft : Stats.Online.t;
  acc_tbt : Stats.Online.t;
  mutable acc_completed : int;
  mutable acc_generated : int;
  mutable acc_rejected : int;
  mutable acc_slo_ok : int;
  slo : (float * float) option;
  mutable acc_outcomes : Simulator.request_outcome list;
  mutable acc_rejects : Trace.request list;
}

(* [o] is one completed original request (disaggregated halves already
   merged). *)
let note_outcome acc (o : Simulator.request_outcome) =
  let orig = o.Simulator.request in
  acc.acc_completed <- acc.acc_completed + 1;
  acc.acc_generated <- acc.acc_generated + orig.Trace.output_len;
  if acc.keep then acc.acc_outcomes <- o :: acc.acc_outcomes
  else begin
    Stats.Online.add acc.acc_ttft o.Simulator.ttft_s;
    if o.Simulator.tbt_s > 0. then
      Stats.Online.add acc.acc_tbt o.Simulator.tbt_s;
    match acc.slo with
    | Some (slo_ttft, slo_tbt) ->
        if
          o.Simulator.ttft_s <= slo_ttft
          && (orig.Trace.output_len <= 1 || o.Simulator.tbt_s <= slo_tbt)
        then acc.acc_slo_ok <- acc.acc_slo_ok + 1
    | None -> ()
  end

let note_reject acc (orig : Trace.request) =
  acc.acc_rejected <- acc.acc_rejected + 1;
  if acc.keep then acc.acc_rejects <- orig :: acc.acc_rejects

(* Per-node capture buffers fed by the instance sinks. A sink runs on
   whichever domain steps its node and touches only that node's buffer;
   the router thread empties the buffers between rounds. *)
type capture = {
  c_out : Simulator.request_outcome list ref;
  c_rej : Trace.request list ref;
}

let attach_captures nodes =
  Array.map
    (fun nd ->
      let c = { c_out = ref []; c_rej = ref [] } in
      Simulator.Instance.set_sinks
        ~on_outcome:(fun o -> c.c_out := o :: !(c.c_out))
        ~on_reject:(fun r -> c.c_rej := r :: !(c.c_rej))
        nd.inst;
      c)
    nodes

(* Drain a capture buffer in the node's own completion order. *)
let take_buffer buf =
  let l = List.rev !buf in
  buf := [];
  l

let simulate ?calib ?slo ~mode (t : t) model stream =
  let who, epoch, advance_to_arrival =
    match mode with
    | Exact -> ("Cluster.run", max_int, true)
    | Streamed epoch -> ("Cluster.run_stream", epoch, false)
  in
  let pools_nodes = make_nodes ?calib t model in
  let all_nodes = Array.concat (List.map snd pools_nodes) in
  let acc =
    {
      keep = (mode = Exact);
      acc_ttft = Stats.Online.create ();
      acc_tbt = Stats.Online.create ();
      acc_completed = 0;
      acc_generated = 0;
      acc_rejected = 0;
      acc_slo_ok = 0;
      slo;
      acc_outcomes = [];
      acc_rejects = [];
    }
  in
  let handoff_transfers = ref 0 in
  let handoff_bytes = ref 0. in
  let handoff_seconds = ref 0. in
  (* Every request pulled is checked against the one before it: the FCFS
     submission contract needs finite, nondecreasing arrivals (equal ones
     are fine). *)
  let last_arrival = ref neg_infinity in
  let pull () =
    match Trace.next stream with
    | Some r as next ->
        let a = r.Trace.arrival_s in
        if not (Float.is_finite a && a >= !last_arrival) then
          invalid_arg
            (Printf.sprintf
               "%s: request %d arrives at %g; arrivals must be finite and \
                nondecreasing (the previous one was %g)"
               who r.Trace.id a !last_arrival);
        last_arrival := a;
        next
    | None -> None
  in
  let pending = ref (pull ()) in
  let first_arrival =
    match !pending with
    | None -> invalid_arg (who ^ ": empty trace")
    | Some r -> r.Trace.arrival_s
  in
  (* Pull and submit up to [epoch] requests through [submit_one], plus any
     that tie with the last one's arrival; leaves [pending] holding the
     first unsubmitted request (the next round's horizon, strictly later
     than every submitted arrival) or [None] at end of stream. A horizon
     equal to a submitted arrival would let a node jump to that instant
     and start a prefill batch without the tied requests still
     unsubmitted. *)
  let route_round submit_one =
    let n = ref 0 and last = ref neg_infinity in
    let continue = ref true in
    while !continue do
      match !pending with
      | Some r when !n < epoch || r.Trace.arrival_s = !last ->
          submit_one r;
          incr n;
          last := r.Trace.arrival_s;
          pending := pull ()
      | _ -> continue := false
    done
  in
  (* Where a round's stepping stops: the next round's first arrival, or
     [infinity] - drain - at end of stream. *)
  let horizon () =
    match !pending with Some r -> r.Trace.arrival_s | None -> infinity
  in
  if not (disaggregated t) then begin
    let captures = attach_captures all_nodes in
    let router = { nodes = all_nodes; routing = t.routing; cursor = 0 } in
    let merge_round () =
      Array.iter
        (fun c ->
          List.iter (note_outcome acc) (take_buffer c.c_out);
          List.iter (note_reject acc) (take_buffer c.c_rej))
        captures
    in
    while !pending <> None do
      route_round (dispatch ~advance_to_arrival router ~prefilled:false);
      step_nodes all_nodes (horizon ());
      merge_round ()
    done
  end
  else begin
    let bw = handoff_bytes_per_s t in
    if (not (Float.is_finite bw)) || bw <= 0. then
      invalid_arg
        (who
       ^ ": fleet has no positive interconnect bandwidth for the KV \
          handoff; pass ~handoff_gb_s");
    let nodes_of_role want =
      Array.concat
        (List.filter_map
           (fun (p, nds) -> if p.role = want then Some nds else None)
           pools_nodes)
    in
    let p_nodes = nodes_of_role Prefill and d_nodes = nodes_of_role Decode in
    let p_captures = attach_captures p_nodes in
    let d_captures = attach_captures d_nodes in
    let p_router = { nodes = p_nodes; routing = t.routing; cursor = 0 } in
    let d_router = { nodes = d_nodes; routing = t.routing; cursor = 0 } in
    (* In-flight bookkeeping, bounded by resident requests: the original
       request while its prefill runs, then (original, prefill ttft,
       prefill finish) while its decode continuation runs. *)
    let pending_prefill : (int, Trace.request) Hashtbl.t =
      Hashtbl.create 1024
    in
    let pending_decode : (int, Trace.request * float * float) Hashtbl.t =
      Hashtbl.create 1024
    in
    (* Completed prefills waiting to re-arrive on the decode side, keyed
       (arrival after transfer, id); the min-heap holds only in-flight
       handoffs. *)
    let ready : (float * int, Trace.request * float * float) Heap.t =
      Heap.create ~cmp:compare
    in
    let merge_prefill_round () =
      Array.iter
        (fun c ->
          List.iter
            (fun (r : Trace.request) ->
              note_reject acc (Hashtbl.find pending_prefill r.Trace.id);
              Hashtbl.remove pending_prefill r.Trace.id)
            (take_buffer c.c_rej);
          List.iter
            (fun (o : Simulator.request_outcome) ->
              let id = o.Simulator.request.Trace.id in
              let orig = Hashtbl.find pending_prefill id in
              Hashtbl.remove pending_prefill id;
              if orig.Trace.output_len <= 1 then
                (* Nothing left to decode: the prefill outcome is the
                   whole request. *)
                note_outcome acc { o with Simulator.request = orig }
              else begin
                (* Ship the KV and re-arrive on the decode side after the
                   transfer; the one prefill token is already in the
                   context, so the decode sub-request carries the
                   remaining output. *)
                let bytes =
                  handoff_kv_bytes model ~input_len:orig.Trace.input_len
                in
                let transfer = bytes /. bw in
                incr handoff_transfers;
                handoff_bytes := !handoff_bytes +. bytes;
                handoff_seconds := !handoff_seconds +. transfer;
                Metrics.incr (Metrics.get m_handoffs);
                Metrics.observe (Metrics.get m_handoff_s) transfer;
                Heap.push ready
                  (o.Simulator.finish_s +. transfer, id)
                  (orig, o.Simulator.ttft_s, o.Simulator.finish_s)
              end)
            (take_buffer c.c_out))
        p_captures
    in
    let merge_decode_round () =
      Array.iter
        (fun c ->
          List.iter
            (fun (r : Trace.request) ->
              let orig, _, _ = Hashtbl.find pending_decode r.Trace.id in
              Hashtbl.remove pending_decode r.Trace.id;
              note_reject acc orig)
            (take_buffer c.c_rej);
          List.iter
            (fun (o : Simulator.request_outcome) ->
              let id = o.Simulator.request.Trace.id in
              let orig, p_ttft, p_finish = Hashtbl.find pending_decode id in
              Hashtbl.remove pending_decode id;
              (* First token came off the prefill side; everything after
                 it - transfer, decode queueing, decode steps - spreads
                 over the remaining tokens. *)
              note_outcome acc
                {
                  Simulator.request = orig;
                  ttft_s = p_ttft;
                  tbt_s =
                    (o.Simulator.finish_s -. p_finish)
                    /. float_of_int (orig.Trace.output_len - 1);
                  finish_s = o.Simulator.finish_s;
                })
            (take_buffer c.c_out))
        d_captures
    in
    (* Dispatch every completed handoff that can no longer be preceded:
       once all prefill nodes have advanced to [watermark], any future
       completion finishes strictly after it, so heap entries at or below
       the watermark are final and pop in global (arrival, id) order. *)
    let dispatch_ready watermark =
      let continue = ref true in
      while !continue do
        match Heap.min_key ready with
        | Some (arr, _) when arr <= watermark -> (
            match Heap.pop ready with
            | Some ((arr, id), (orig, p_ttft, p_finish)) ->
                Hashtbl.replace pending_decode id (orig, p_ttft, p_finish);
                dispatch ~advance_to_arrival d_router ~prefilled:true
                  {
                    orig with
                    Trace.arrival_s = arr;
                    input_len = orig.Trace.input_len + 1;
                    output_len = orig.Trace.output_len - 1;
                  }
            | None -> assert false)
        | _ -> continue := false
      done
    in
    while !pending <> None do
      route_round (fun r ->
          if Hashtbl.mem pending_prefill r.Trace.id then
            invalid_arg
              (Printf.sprintf
                 "%s: duplicate request id %d (ids key the prefill-to-decode \
                  handoff match)"
                 who r.Trace.id);
          Hashtbl.replace pending_prefill r.Trace.id r;
          dispatch ~advance_to_arrival p_router ~prefilled:false
            { r with Trace.output_len = 1 });
      let horizon = horizon () in
      step_nodes p_nodes horizon;
      merge_prefill_round ();
      dispatch_ready horizon;
      step_nodes d_nodes horizon;
      merge_decode_round ()
    done
  end;
  (* --- aggregate --- *)
  let stats_by_pool =
    List.map
      (fun (p, nds) ->
        (p, nds, Array.map (fun nd -> Simulator.Instance.stats nd.inst) nds))
      pools_nodes
  in
  let makespan_s =
    List.fold_left
      (fun m (_, _, sts) ->
        Array.fold_left
          (fun m s -> Float.max m s.Simulator.makespan_s)
          m sts)
      0. stats_by_pool
  in
  let span = makespan_s -. first_arrival in
  let span = if span > 0. && Float.is_finite span then span else 0. in
  let pools =
    List.map
      (fun (p, nds, sts) ->
        let busy =
          Array.fold_left (fun a s -> a +. s.Simulator.busy_s) 0. sts
        in
        let occ_weighted =
          Array.fold_left
            (fun a s ->
              a +. (s.Simulator.mean_batch_occupancy *. s.Simulator.busy_s))
            0. sts
        in
        let sum_nodes f = Array.fold_left (fun a nd -> a + f nd.inst) 0 nds in
        {
          pool_name = p.name;
          pool_role = p.role;
          pool_count = p.count;
          per_group = sts;
          pool_completed = sum_nodes Simulator.Instance.completed_count;
          pool_rejected = sum_nodes Simulator.Instance.rejected_count;
          pool_produced_tokens =
            Array.fold_left
              (fun a s -> a + s.Simulator.produced_tokens)
              0 sts;
          utilization =
            (if span > 0. then busy /. (float_of_int p.count *. span) else 0.);
          occupancy = (if busy > 0. then occ_weighted /. busy else 0.);
        })
      stats_by_pool
  in
  let produced_tokens =
    List.fold_left (fun a ps -> a + ps.pool_produced_tokens) 0 pools
  in
  let outcomes, rejected, ttft_q, tbt_q =
    if acc.keep then
      let outcomes =
        List.sort
          (fun (a : Simulator.request_outcome) (b : Simulator.request_outcome)
             ->
            compare
              (a.Simulator.finish_s, a.Simulator.request.Trace.id)
              (b.Simulator.finish_s, b.Simulator.request.Trace.id))
          acc.acc_outcomes
      in
      (* Interpolated percentiles over the outcomes [f] selects; 0 when it
         selects none. *)
      let exact f p =
        Stats.percentile p
          (match List.filter_map f outcomes with [] -> [ 0. ] | xs -> xs)
      in
      ( outcomes,
        List.sort
          (fun (a : Trace.request) (b : Trace.request) ->
            compare
              (a.Trace.arrival_s, a.Trace.id)
              (b.Trace.arrival_s, b.Trace.id))
          acc.acc_rejects,
        exact (fun o -> Some o.Simulator.ttft_s),
        exact (fun o ->
            if o.Simulator.tbt_s > 0. then Some o.Simulator.tbt_s else None) )
    else
      let q sketch p =
        if Stats.Online.count sketch = 0 then 0.
        else Stats.Online.quantile sketch p
      in
      ([], [], q acc.acc_ttft, q acc.acc_tbt)
  in
  {
    outcomes;
    rejected;
    completed = acc.acc_completed;
    rejected_count = acc.acc_rejected;
    slo_attained =
      Option.map
        (fun _ ->
          if acc.acc_completed = 0 then 1.
          else float_of_int acc.acc_slo_ok /. float_of_int acc.acc_completed)
        slo;
    pools;
    groups = Array.length all_nodes;
    makespan_s;
    serving_span_s = span;
    generated_tokens = acc.acc_generated;
    produced_tokens;
    throughput_tokens_per_s =
      (if span > 0. then float_of_int acc.acc_generated /. span else 0.);
    requests_per_s =
      (if span > 0. then float_of_int acc.acc_completed /. span else 0.);
    p50_ttft_s = ttft_q 50.;
    p95_ttft_s = ttft_q 95.;
    p50_tbt_s = tbt_q 50.;
    p95_tbt_s = tbt_q 95.;
    handoff_transfers = !handoff_transfers;
    handoff_bytes = !handoff_bytes;
    mean_handoff_s =
      (if !handoff_transfers > 0 then
         !handoff_seconds /. float_of_int !handoff_transfers
       else 0.);
  }

let run ?calib (t : t) model requests =
  let go () =
    if requests = [] then invalid_arg "Cluster.run: empty trace";
    let ids = Hashtbl.create (List.length requests) in
    List.iter
      (fun (r : Trace.request) ->
        if Hashtbl.mem ids r.Trace.id then
          invalid_arg
            (Printf.sprintf
               "Cluster.run: duplicate request id %d (ids key the \
                prefill-to-decode handoff match)"
               r.Trace.id);
        Hashtbl.add ids r.Trace.id ())
      requests;
    simulate ?calib ~mode:Exact t model
      (Trace.of_list (List.stable_sort by_arrival requests))
  in
  if not (Span.enabled ()) then go ()
  else
    Span.with_span "fleet.run"
      ~attrs:
        [ ("pools", Span.Int (List.length t.pools));
          ( "groups",
            Span.Int (List.fold_left (fun acc p -> acc + p.count) 0 t.pools) );
          ("routing", Span.Str (routing_to_string t.routing));
          ("disaggregated", Span.Str (string_of_bool (disaggregated t)));
          ("requests", Span.Int (List.length requests)) ]
      (fun () ->
        let s = go () in
        Span.add_attr "generated_tokens" (Span.Int s.generated_tokens);
        Span.add_attr "makespan_s" (Span.Float s.makespan_s);
        s)

let run_stream ?calib ?(epoch = 512) ?slo (t : t) model stream =
  if epoch < 1 then invalid_arg "Cluster.run_stream: epoch must be >= 1";
  (match slo with
  | Some (ttft, tbt) when ttft <= 0. || tbt <= 0. ->
      invalid_arg "Cluster.run_stream: SLO objectives must be positive"
  | _ -> ());
  simulate ?calib ?slo ~mode:(Streamed epoch) t model stream

let slo_attainment fs ~ttft_s ~tbt_s =
  if ttft_s <= 0. || tbt_s <= 0. then
    invalid_arg "Cluster.slo_attainment: objectives must be positive";
  match fs.outcomes with
  | [] -> 1.
  | outcomes ->
      let ok (o : Simulator.request_outcome) =
        o.Simulator.ttft_s <= ttft_s
        && (o.Simulator.request.Trace.output_len <= 1
           || o.Simulator.tbt_s <= tbt_s)
      in
      float_of_int (List.length (List.filter ok outcomes))
      /. float_of_int (List.length outcomes)

let devices_for_qps fs ~target_qps =
  if target_qps <= 0. || not (Float.is_finite target_qps) then
    invalid_arg "Cluster.devices_for_qps: target_qps must be finite and positive";
  if fs.requests_per_s <= 0. then []
  else
    List.map
      (fun ps ->
        (* The pool sustained the fleet's request rate at its measured
           utilization, so its groups saturate at [rate / utilization];
           scale the group count to put [target_qps] at full busy. *)
        let need =
          int_of_float
            (ceil
               (target_qps *. ps.utilization *. float_of_int ps.pool_count
               /. fs.requests_per_s))
        in
        (ps.pool_name, max 1 need))
      fs.pools

let silicon_usd_per_mtok ?(lifetime_years = 3.) ~die_cost_usd (t : t) fs =
  let silicon =
    List.fold_left
      (fun acc p ->
        acc
        +. float_of_int (p.count * p.config.Simulator.tp)
           *. die_cost_usd p.device)
      0. t.pools
  in
  let tokens =
    fs.throughput_tokens_per_s *. lifetime_years *. 365.25 *. 86400.
  in
  (* No sustained tokens means no meaningful per-token cost: say so with
     [None] rather than leaking [infinity] (or, with a zero-cost fleet,
     0/0 = NaN) into downstream arithmetic. *)
  if tokens > 0. && Float.is_finite tokens then Some (silicon /. tokens *. 1e6)
  else None

let pp_fleet_stats ppf fs =
  Format.fprintf ppf
    "%d requests%s, %d tokens in %.1f s (%.0f tok/s, %.2f req/s) on %d \
     groups; TTFT p50/p95 %.0f/%.0f ms; TBT p50/p95 %.1f/%.1f ms%s"
    fs.completed
    (match fs.rejected_count with
    | 0 -> ""
    | n -> Printf.sprintf " (+%d rejected)" n)
    fs.generated_tokens fs.makespan_s fs.throughput_tokens_per_s
    fs.requests_per_s fs.groups (1e3 *. fs.p50_ttft_s) (1e3 *. fs.p95_ttft_s)
    (1e3 *. fs.p50_tbt_s) (1e3 *. fs.p95_tbt_s)
    (if fs.handoff_transfers = 0 then ""
     else
       Printf.sprintf "; %d KV handoffs (%.1f GiB, mean %.2f ms)"
         fs.handoff_transfers
         (fs.handoff_bytes /. (1024. ** 3.))
         (1e3 *. fs.mean_handoff_s));
  List.iter
    (fun ps ->
      Format.fprintf ppf
        "@\n  %-16s %-8s x%-3d util %4.0f%%  occ %5.1f  %6d done  %3d rej  \
         %9d tok"
        ps.pool_name
        (role_to_string ps.pool_role)
        ps.pool_count
        (100. *. ps.utilization)
        ps.occupancy ps.pool_completed ps.pool_rejected ps.pool_produced_tokens)
    fs.pools
