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
  | Some b when b <= 0. ->
      invalid_arg "Cluster.make: handoff_gb_s must be positive"
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
   what lets the drain and the epoch advance run nodes on separate
   domains without synchronization (the memo is pure, so per-node tables
   change cost, not results). Routing happens in global arrival order;
   in the materialized path candidates are advanced to the arrival time
   first, so load signals reflect what each device will have finished by
   then. Stepping is otherwise deferred to the drain - per-instance
   schedules depend only on the submitted set and order, so this is
   equivalent to a synchronous co-simulation (and makes a 1-group fleet
   reproduce {!Simulator.run} exactly). *)

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

(* [advance_to_arrival:false] is the streaming fleet's router: it must not
   step nodes itself (the epoch rounds do that in parallel), so
   least-loaded/phase-affine decisions price with signals as of the last
   epoch boundary instead of the exact arrival instant. Round-robin is
   unaffected. *)
let dispatch ?(advance_to_arrival = true) router ~prefilled
    (r : Trace.request) =
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

(* --- the fleet run --- *)

let by_arrival (a : Trace.request) (b : Trace.request) =
  compare a.Trace.arrival_s b.Trace.arrival_s

let by_arrival_id (a : Trace.request) (b : Trace.request) =
  compare (a.Trace.arrival_s, a.Trace.id) (b.Trace.arrival_s, b.Trace.id)

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

(* Nodes are independent between routing decisions, so draining (and
   horizon-bounded advancing) shards across the domain pool. [~chunk:1]
   because per-node work is large and node counts small; results merge on
   the calling domain afterwards, in node order, which keeps every
   aggregate bit-identical whatever ACS_JOBS says. *)
let drain_nodes nodes =
  ignore
    (Parallel.map_array ~chunk:1
       (fun nd -> Simulator.Instance.drain nd.inst)
       nodes)

let advance_nodes nodes horizon =
  ignore
    (Parallel.map_array ~chunk:1
       (fun nd -> Simulator.Instance.run_until nd.inst horizon)
       nodes)

let run_fleet ?calib (t : t) model requests =
  if requests = [] then invalid_arg "Cluster.run: empty trace";
  let requests = List.stable_sort by_arrival requests in
  let originals : (int, Trace.request) Hashtbl.t =
    Hashtbl.create (List.length requests)
  in
  List.iter
    (fun (r : Trace.request) ->
      if Hashtbl.mem originals r.Trace.id then
        invalid_arg
          (Printf.sprintf
             "Cluster.run: duplicate request id %d (ids key the \
              prefill-to-decode handoff match)"
             r.Trace.id);
      Hashtbl.add originals r.Trace.id r)
    requests;
  let pools_nodes = make_nodes ?calib t model in
  let nodes_of_role want =
    Array.concat
      (List.filter_map
         (fun (p, nds) -> if p.role = want then Some nds else None)
         pools_nodes)
  in
  let all_nodes = Array.concat (List.map snd pools_nodes) in
  let drain = drain_nodes in
  let handoff_transfers = ref 0 in
  let handoff_bytes = ref 0. in
  let handoff_seconds = ref 0. in
  (* Merged per-original outcomes and rejects, in whatever order the
     phases produce them; sorted once at the end. *)
  let merged : Simulator.request_outcome list ref = ref [] in
  let rejected : Trace.request list ref = ref [] in
  if not (disaggregated t) then begin
    let router = { nodes = all_nodes; routing = t.routing; cursor = 0 } in
    List.iter (dispatch router ~prefilled:false) requests;
    drain all_nodes;
    Array.iter
      (fun nd ->
        let s = Simulator.Instance.stats nd.inst in
        merged := s.Simulator.outcomes @ !merged;
        rejected := s.Simulator.rejected @ !rejected)
      all_nodes
  end
  else begin
    let bw = handoff_bytes_per_s t in
    if (not (Float.is_finite bw)) || bw <= 0. then
      invalid_arg
        "Cluster.run: fleet has no positive interconnect bandwidth for the \
         KV handoff; pass ~handoff_gb_s";
    let p_nodes = nodes_of_role Prefill and d_nodes = nodes_of_role Decode in
    let p_router = { nodes = p_nodes; routing = t.routing; cursor = 0 } in
    (* Phase 1: every request runs prefill (plus its first token) on the
       prefill side. *)
    List.iter
      (fun (r : Trace.request) ->
        dispatch p_router ~prefilled:false { r with Trace.output_len = 1 })
      requests;
    drain p_nodes;
    let prefill_outcome : (int, Simulator.request_outcome) Hashtbl.t =
      Hashtbl.create (List.length requests)
    in
    let decode_reqs = ref [] in
    Array.iter
      (fun nd ->
        let s = Simulator.Instance.stats nd.inst in
        List.iter
          (fun (r : Trace.request) ->
            rejected := Hashtbl.find originals r.Trace.id :: !rejected)
          s.Simulator.rejected;
        List.iter
          (fun (o : Simulator.request_outcome) ->
            let orig = Hashtbl.find originals o.Simulator.request.Trace.id in
            Hashtbl.add prefill_outcome orig.Trace.id o;
            if orig.Trace.output_len <= 1 then
              (* Nothing left to decode: the prefill outcome is the whole
                 request. *)
              merged :=
                {
                  Simulator.request = orig;
                  ttft_s = o.Simulator.ttft_s;
                  tbt_s = 0.;
                  finish_s = o.Simulator.finish_s;
                }
                :: !merged
            else begin
              (* Ship the KV and re-arrive on the decode side after the
                 transfer; the one prefill token is already in the
                 context, so the decode sub-request carries the remaining
                 output. *)
              let bytes = handoff_kv_bytes model ~input_len:orig.Trace.input_len in
              let transfer = bytes /. bw in
              incr handoff_transfers;
              handoff_bytes := !handoff_bytes +. bytes;
              handoff_seconds := !handoff_seconds +. transfer;
              Metrics.incr (Metrics.get m_handoffs);
              Metrics.observe (Metrics.get m_handoff_s) transfer;
              decode_reqs :=
                {
                  orig with
                  Trace.arrival_s = o.Simulator.finish_s +. transfer;
                  input_len = orig.Trace.input_len + 1;
                  output_len = orig.Trace.output_len - 1;
                }
                :: !decode_reqs
            end)
          s.Simulator.outcomes)
      p_nodes;
    (* Phase 2: decode-side continuation, arrivals in handoff order. *)
    let d_router = { nodes = d_nodes; routing = t.routing; cursor = 0 } in
    List.iter
      (dispatch d_router ~prefilled:true)
      (List.sort by_arrival_id !decode_reqs);
    drain d_nodes;
    Array.iter
      (fun nd ->
        let s = Simulator.Instance.stats nd.inst in
        List.iter
          (fun (r : Trace.request) ->
            rejected := Hashtbl.find originals r.Trace.id :: !rejected)
          s.Simulator.rejected;
        List.iter
          (fun (o : Simulator.request_outcome) ->
            let orig = Hashtbl.find originals o.Simulator.request.Trace.id in
            let p = Hashtbl.find prefill_outcome orig.Trace.id in
            let rest = orig.Trace.output_len - 1 in
            merged :=
              {
                Simulator.request = orig;
                (* First token came off the prefill side; everything
                   after it - transfer, decode queueing, decode steps -
                   spreads over the remaining tokens. *)
                ttft_s = p.Simulator.ttft_s;
                tbt_s =
                  (o.Simulator.finish_s -. p.Simulator.finish_s)
                  /. float_of_int rest;
                finish_s = o.Simulator.finish_s;
              }
              :: !merged)
          s.Simulator.outcomes)
      d_nodes
  end;
  (* --- aggregate --- *)
  let outcomes =
    List.sort
      (fun (a : Simulator.request_outcome) (b : Simulator.request_outcome) ->
        compare
          (a.Simulator.finish_s, a.Simulator.request.Trace.id)
          (b.Simulator.finish_s, b.Simulator.request.Trace.id))
      !merged
  in
  let rejected = List.sort by_arrival_id !rejected in
  let stats_by_pool =
    List.map
      (fun (p, nds) ->
        (p, Array.map (fun nd -> Simulator.Instance.stats nd.inst) nds))
      pools_nodes
  in
  let makespan_s =
    List.fold_left
      (fun acc (_, sts) ->
        Array.fold_left
          (fun acc s -> Float.max acc s.Simulator.makespan_s)
          acc sts)
      0. stats_by_pool
  in
  let first_arrival = (List.hd requests).Trace.arrival_s in
  let span = makespan_s -. first_arrival in
  let span = if span > 0. && Float.is_finite span then span else 0. in
  let pools =
    List.map
      (fun (p, sts) ->
        let sum f = Array.fold_left (fun acc s -> acc + f s) 0 sts in
        let busy =
          Array.fold_left (fun acc s -> acc +. s.Simulator.busy_s) 0. sts
        in
        let occ_weighted =
          Array.fold_left
            (fun acc s ->
              acc +. (s.Simulator.mean_batch_occupancy *. s.Simulator.busy_s))
            0. sts
        in
        {
          pool_name = p.name;
          pool_role = p.role;
          pool_count = p.count;
          per_group = sts;
          pool_completed = sum (fun s -> List.length s.Simulator.outcomes);
          pool_rejected = sum (fun s -> List.length s.Simulator.rejected);
          pool_produced_tokens = sum (fun s -> s.Simulator.produced_tokens);
          utilization =
            (if span > 0. then busy /. (float_of_int p.count *. span) else 0.);
          occupancy = (if busy > 0. then occ_weighted /. busy else 0.);
        })
      stats_by_pool
  in
  let generated_tokens =
    List.fold_left
      (fun acc (o : Simulator.request_outcome) ->
        acc + o.Simulator.request.Trace.output_len)
      0 outcomes
  in
  let produced_tokens =
    List.fold_left (fun acc ps -> acc + ps.pool_produced_tokens) 0 pools
  in
  let completed = List.length outcomes in
  let ttfts = List.map (fun (o : Simulator.request_outcome) -> o.Simulator.ttft_s) outcomes in
  let ttfts = if ttfts = [] then [ 0. ] else ttfts in
  let tbts =
    List.filter_map
      (fun (o : Simulator.request_outcome) ->
        if o.Simulator.tbt_s > 0. then Some o.Simulator.tbt_s else None)
      outcomes
  in
  let tbts = if tbts = [] then [ 0. ] else tbts in
  {
    outcomes;
    rejected;
    completed;
    rejected_count = List.length rejected;
    slo_attained = None;
    pools;
    groups = Array.length all_nodes;
    makespan_s;
    serving_span_s = span;
    generated_tokens;
    produced_tokens;
    throughput_tokens_per_s =
      (if span > 0. then float_of_int generated_tokens /. span else 0.);
    requests_per_s =
      (if span > 0. then float_of_int completed /. span else 0.);
    p50_ttft_s = Stats.percentile 50. ttfts;
    p95_ttft_s = Stats.percentile 95. ttfts;
    p50_tbt_s = Stats.percentile 50. tbts;
    p95_tbt_s = Stats.percentile 95. tbts;
    handoff_transfers = !handoff_transfers;
    handoff_bytes = !handoff_bytes;
    mean_handoff_s =
      (if !handoff_transfers > 0 then
         !handoff_seconds /. float_of_int !handoff_transfers
       else 0.);
  }

let run ?calib (t : t) model requests =
  if not (Span.enabled ()) then run_fleet ?calib t model requests
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
        let s = run_fleet ?calib t model requests in
        Span.add_attr "generated_tokens" (Span.Int s.generated_tokens);
        Span.add_attr "makespan_s" (Span.Float s.makespan_s);
        s)

(* --- the streaming fleet run ---

   Bounded-memory, domain-parallel execution for traces far too large to
   materialize. The router thread alternates two phases in rounds of
   [epoch] requests:

   - routing: pull the next [epoch] requests off the stream and submit
     them (sequentially, in arrival order - submission order is the FCFS
     contract);
   - stepping: advance every node in parallel to the arrival time of the
     first request of the next round (each node is an independent
     scheduler between routing decisions), then fold each node's freshly
     finished outcomes - delivered through instance sinks into per-node
     buffers - into online accumulators, walking nodes in fixed array
     order.

   Determinism: node executions depend only on their submitted sets (the
   router fixes those before any parallel work), and the merge walks
   nodes in array order on the calling domain, so every accumulated
   float sees the same operands in the same order whatever the job
   count - 1-job and N-job runs are bit-identical. Peak memory is
   O(groups * (resident batch + backlog) + epoch + sketch), independent
   of trace length. *)

type stream_acc = {
  acc_ttft : Stats.Online.t;
  acc_tbt : Stats.Online.t;
  mutable acc_completed : int;
  mutable acc_generated : int;
  mutable acc_rejected : int;
  mutable acc_slo_ok : int;
  slo : (float * float) option;
}

let note_outcome acc ~(orig : Trace.request) ~ttft ~tbt =
  acc.acc_completed <- acc.acc_completed + 1;
  acc.acc_generated <- acc.acc_generated + orig.Trace.output_len;
  Stats.Online.add acc.acc_ttft ttft;
  if tbt > 0. then Stats.Online.add acc.acc_tbt tbt;
  match acc.slo with
  | Some (slo_ttft, slo_tbt) ->
      if ttft <= slo_ttft && (orig.Trace.output_len <= 1 || tbt <= slo_tbt)
      then acc.acc_slo_ok <- acc.acc_slo_ok + 1
  | None -> ()

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

let run_stream ?calib ?(epoch = 512) ?slo (t : t) model stream =
  if epoch < 1 then invalid_arg "Cluster.run_stream: epoch must be >= 1";
  (match slo with
  | Some (ttft, tbt) when ttft <= 0. || tbt <= 0. ->
      invalid_arg "Cluster.run_stream: SLO objectives must be positive"
  | _ -> ());
  let pools_nodes = make_nodes ?calib t model in
  let all_nodes = Array.concat (List.map snd pools_nodes) in
  let acc =
    {
      acc_ttft = Stats.Online.create ();
      acc_tbt = Stats.Online.create ();
      acc_completed = 0;
      acc_generated = 0;
      acc_rejected = 0;
      acc_slo_ok = 0;
      slo;
    }
  in
  let handoff_transfers = ref 0 in
  let handoff_bytes = ref 0. in
  let handoff_seconds = ref 0. in
  let pending = ref (Trace.next stream) in
  let first_arrival =
    match !pending with
    | None -> invalid_arg "Cluster.run_stream: empty trace"
    | Some r -> r.Trace.arrival_s
  in
  (* Pull and submit up to [epoch] requests through [submit_one]; leaves
     [pending] holding the first unsubmitted request (the next round's
     horizon) or [None] at end of stream. *)
  let route_round submit_one =
    let n = ref 0 in
    let continue = ref true in
    while !continue do
      match !pending with
      | Some r when !n < epoch ->
          submit_one r;
          incr n;
          pending := Trace.next stream
      | _ -> continue := false
    done
  in
  if not (disaggregated t) then begin
    let captures = attach_captures all_nodes in
    let router = { nodes = all_nodes; routing = t.routing; cursor = 0 } in
    let merge_round () =
      Array.iteri
        (fun i _nd ->
          List.iter
            (fun (o : Simulator.request_outcome) ->
              note_outcome acc ~orig:o.Simulator.request
                ~ttft:o.Simulator.ttft_s ~tbt:o.Simulator.tbt_s)
            (take_buffer captures.(i).c_out);
          List.iter
            (fun (_ : Trace.request) ->
              acc.acc_rejected <- acc.acc_rejected + 1)
            (take_buffer captures.(i).c_rej))
        all_nodes
    in
    while !pending <> None do
      route_round (fun r ->
          dispatch ~advance_to_arrival:false router ~prefilled:false r);
      (match !pending with
      | Some next -> advance_nodes all_nodes next.Trace.arrival_s
      | None -> drain_nodes all_nodes);
      merge_round ()
    done
  end
  else begin
    let bw = handoff_bytes_per_s t in
    if (not (Float.is_finite bw)) || bw <= 0. then
      invalid_arg
        "Cluster.run_stream: fleet has no positive interconnect bandwidth \
         for the KV handoff; pass ~handoff_gb_s";
    let p_nodes =
      Array.concat
        (List.filter_map
           (fun (p, nds) -> if p.role = Prefill then Some nds else None)
           pools_nodes)
    in
    let d_nodes =
      Array.concat
        (List.filter_map
           (fun (p, nds) -> if p.role = Decode then Some nds else None)
           pools_nodes)
    in
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
       (arrival after transfer, id): the min-heap replaces the
       sort-the-whole-phase step of the materialized path and holds only
       in-flight handoffs. *)
    let ready : (float * int, Trace.request * float * float) Heap.t =
      Heap.create ~cmp:compare
    in
    let merge_prefill_round () =
      Array.iteri
        (fun i _nd ->
          List.iter
            (fun (r : Trace.request) ->
              Hashtbl.remove pending_prefill r.Trace.id;
              acc.acc_rejected <- acc.acc_rejected + 1)
            (take_buffer p_captures.(i).c_rej);
          List.iter
            (fun (o : Simulator.request_outcome) ->
              let id = o.Simulator.request.Trace.id in
              let orig = Hashtbl.find pending_prefill id in
              Hashtbl.remove pending_prefill id;
              if orig.Trace.output_len <= 1 then
                note_outcome acc ~orig ~ttft:o.Simulator.ttft_s ~tbt:0.
              else begin
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
            (take_buffer p_captures.(i).c_out))
        p_nodes
    in
    let merge_decode_round () =
      Array.iteri
        (fun i _nd ->
          List.iter
            (fun (r : Trace.request) ->
              Hashtbl.remove pending_decode r.Trace.id;
              acc.acc_rejected <- acc.acc_rejected + 1)
            (take_buffer d_captures.(i).c_rej);
          List.iter
            (fun (o : Simulator.request_outcome) ->
              let id = o.Simulator.request.Trace.id in
              let orig, p_ttft, p_finish = Hashtbl.find pending_decode id in
              Hashtbl.remove pending_decode id;
              let rest = orig.Trace.output_len - 1 in
              note_outcome acc ~orig ~ttft:p_ttft
                ~tbt:
                  ((o.Simulator.finish_s -. p_finish) /. float_of_int rest))
            (take_buffer d_captures.(i).c_out))
        d_nodes
    in
    (* Dispatch every completed handoff that can no longer be preceded:
       once all prefill nodes have advanced to [watermark], any future
       completion finishes strictly after it, so heap entries at or below
       the watermark are final and pop in global (arrival, id) order -
       exactly the sorted dispatch order of the materialized path. *)
    let dispatch_ready watermark =
      let continue = ref true in
      while !continue do
        match Heap.min_key ready with
        | Some (arr, _) when arr <= watermark -> (
            match Heap.pop ready with
            | Some ((arr, id), (orig, p_ttft, p_finish)) ->
                Hashtbl.replace pending_decode id (orig, p_ttft, p_finish);
                dispatch ~advance_to_arrival:false d_router ~prefilled:true
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
                 "Cluster.run_stream: duplicate request id %d (ids key the \
                  prefill-to-decode handoff match)"
                 r.Trace.id);
          Hashtbl.replace pending_prefill r.Trace.id r;
          dispatch ~advance_to_arrival:false p_router ~prefilled:false
            { r with Trace.output_len = 1 });
      match !pending with
      | Some next ->
          let horizon = next.Trace.arrival_s in
          advance_nodes p_nodes horizon;
          merge_prefill_round ();
          dispatch_ready horizon;
          advance_nodes d_nodes horizon;
          merge_decode_round ()
      | None ->
          drain_nodes p_nodes;
          merge_prefill_round ();
          dispatch_ready infinity;
          drain_nodes d_nodes;
          merge_decode_round ()
    done
  end;
  (* --- aggregate (from counters and sketches only) --- *)
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
  let q sketch p =
    if Stats.Online.count sketch = 0 then 0. else Stats.Online.quantile sketch p
  in
  {
    outcomes = [];
    rejected = [];
    completed = acc.acc_completed;
    rejected_count = acc.acc_rejected;
    slo_attained =
      (match slo with
      | None -> None
      | Some _ ->
          Some
            (if acc.acc_completed = 0 then 1.
             else
               float_of_int acc.acc_slo_ok /. float_of_int acc.acc_completed));
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
    p50_ttft_s = q acc.acc_ttft 50.;
    p95_ttft_s = q acc.acc_ttft 95.;
    p50_tbt_s = q acc.acc_tbt 50.;
    p95_tbt_s = q acc.acc_tbt 95.;
    handoff_transfers = !handoff_transfers;
    handoff_bytes = !handoff_bytes;
    mean_handoff_s =
      (if !handoff_transfers > 0 then
         !handoff_seconds /. float_of_int !handoff_transfers
       else 0.);
  }

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
