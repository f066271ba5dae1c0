(** Fleet-scale serving: N per-device {!Simulator.Instance}s behind a
    router, fed from one shared trace.

    A fleet is a list of {e pools}. Each pool is [count] identical
    tensor-parallel groups of one device type under one scheduler config;
    every group owns a private {!Simulator.stepper} (a shared step-shape
    memo would race once groups step on separate domains - the memo is
    pure, so this duplicates work, never results). Pools are either all
    {!Unified} (every group
    serves whole requests - homogeneous fleets are one pool,
    heterogeneous fleets several) or split into {!Prefill} and {!Decode}
    pools (disaggregated serving: prefill runs on one side, the KV cache
    is shipped across the interconnect, and decode continues on the
    other).

    Requests are dispatched in arrival order by a routing policy. {!run}
    and {!run_stream} are two modes of one routing loop. Because each
    instance's schedule depends only on the set and order of requests
    submitted to it, routing in global arrival order while advancing
    candidate instances to the arrival time ({!run}) yields the same
    result as a fully synchronous co-simulation - and a 1-group fleet
    reproduces a bare {!Simulator.run} bit for bit in either mode (the
    fleet suite's property holds it to account).

    Disaggregated handoff is modeled as a transfer delay: when a
    request's prefill finishes, its full-model KV cache (input plus the
    first generated token, all layers) crosses the configured link, and
    the request arrives at the decode side [kv_bytes / link_bandwidth]
    later, joining the decode batch with no further prefill
    ({!Simulator.Instance.submit}[ ~prefilled:true]). End-to-end TTFT is
    the prefill-side TTFT; the inter-token time spreads the transfer and
    any decode-side queueing over the remaining tokens. *)

type role =
  | Unified  (** serves whole requests (prefill and decode) *)
  | Prefill  (** disaggregated: runs prefill only, then hands the KV off *)
  | Decode  (** disaggregated: receives KV handoffs, decodes to the end *)

type routing =
  | Round_robin  (** rotate over groups; oblivious but O(1) per request *)
  | Least_loaded
      (** fewest outstanding work tokens ({!Simulator.Instance.load})
          after advancing candidates to the arrival time *)
  | Phase_affine
      (** cheapest estimated completion: backlog drain time plus the
          request's own service time, both priced with the candidate's
          {!Simulator.stepper}. Prefill-heavy requests gravitate to
          FLOPs-strong devices and decode-heavy ones to
          bandwidth-strong devices, with the backlog term keeping
          identical devices balanced. *)

type pool = {
  name : string;
  device : Acs_hardware.Device.t;
  count : int;
      (** tensor-parallel {e groups} (independent schedulers), not dies:
          the pool holds [count * config.tp] physical devices *)
  role : role;
  config : Simulator.config;
}

type t = {
  pools : pool list;
  routing : routing;
  handoff_gb_s : float option;
      (** prefill-to-decode KV link bandwidth; [None] defaults to the
          slowest aggregate device interconnect across the fleet's pools *)
}

val pool :
  ?name:string ->
  ?role:role ->
  ?config:Simulator.config ->
  count:int ->
  Acs_hardware.Device.t ->
  pool
(** [name] defaults to the device name, prefixed with the role for
    prefill/decode pools. Raises [Invalid_argument] when [count < 1]. *)

val make : ?routing:routing -> ?handoff_gb_s:float -> pool list -> t
(** Validates the fleet shape: at least one pool, unique pool names,
    finite positive [handoff_gb_s], and roles either all [Unified] or a
    mix of [Prefill] and [Decode] with both sides present (raises
    [Invalid_argument] otherwise). Default routing is [Least_loaded]. *)

val disaggregated : t -> bool

val role_to_string : role -> string
val routing_to_string : routing -> string

type pool_stats = {
  pool_name : string;
  pool_role : role;
  pool_count : int;
  per_group : Simulator.stats array;
      (** one entry per group, in routing-index order. Counters and clocks
          only: groups deliver outcomes to the fleet as they finish, so
          each entry's [outcomes]/[rejected] are empty and its percentile
          fields 0 (the fleet-level fields carry them). A 1-group fleet's
          single entry is otherwise the bare {!Simulator.run} result. *)
  pool_completed : int;
  pool_rejected : int;
  pool_produced_tokens : int;
      (** tokens this pool's schedulers generated step by step (prefill
          pools produce one per handed-off request) *)
  utilization : float;
      (** pool busy seconds over [count *] the fleet serving span: the
          fraction of the fleet's active period this pool's groups spent
          running batches. The disaggregation headroom signal - an idle
          decode pool shows up here, not in fleet throughput. *)
  occupancy : float;
      (** busy-time-weighted mean batch occupancy across the pool *)
}

type fleet_stats = {
  outcomes : Simulator.request_outcome list;
      (** one per completed {e original} request, sorted by finish time;
          disaggregated prefill/decode halves are merged (TTFT from the
          prefill side, TBT spreading transfer + decode over the
          remaining tokens) *)
  rejected : Trace.request list;
      (** original requests whose KV can never fit on any routed-to
          group (either side, for disaggregated fleets) *)
  completed : int;
      (** completed originals, counted in both modes. Equals
          [List.length outcomes] for {!run}; {!run_stream} keeps
          [outcomes = []] (bounded memory), so this counter is its only
          completion count. *)
  rejected_count : int;  (** likewise for [rejected] *)
  slo_attained : float option;
      (** filled by {!run_stream} when its [?slo] was given: the fraction
          of completed originals meeting both objectives, accumulated
          online ({!slo_attainment} needs the outcome list and so cannot
          be applied to streamed stats). [None] from {!run}. *)
  pools : pool_stats list;  (** in fleet pool order *)
  groups : int;  (** total scheduler instances across pools *)
  makespan_s : float;  (** latest group clock at drain *)
  serving_span_s : float;  (** makespan minus the first arrival *)
  generated_tokens : int;  (** sum of output_len over completed originals *)
  produced_tokens : int;
      (** sum of per-group produced tokens. Token conservation holds
          across the handoff: a disaggregated request produces 1 token on
          the prefill side and [output_len - 1] on the decode side, so
          this matches the unified count - it exceeds the sum of
          [max 1 output_len] over completed originals only when a request
          was rejected decode-side after its prefill ran *)
  throughput_tokens_per_s : float;  (** generated over the serving span *)
  requests_per_s : float;  (** completed originals over the serving span *)
  p50_ttft_s : float;
  p95_ttft_s : float;
  p50_tbt_s : float;
  p95_tbt_s : float;
  handoff_transfers : int;  (** KV handoffs (0 for unified fleets) *)
  handoff_bytes : float;  (** total KV bytes shipped across the link *)
  mean_handoff_s : float;  (** mean per-request transfer delay *)
}

val run :
  ?calib:Acs_perfmodel.Calib.t ->
  t ->
  Acs_workload.Model.t ->
  Trace.request list ->
  fleet_stats
(** Simulates the whole trace against the fleet, exactly: the trace is
    stably sorted by arrival and routed as one round of the loop
    {!run_stream} uses, advancing every candidate group to each arrival
    before the router chooses. The merged [outcomes] and [rejected] lists
    are kept and the percentile fields are exact interpolated ones.
    Raises [Invalid_argument] on an empty trace, duplicate request ids
    (ids key the prefill-to-decode match) or a non-finite arrival, and
    {!Simulator.Infeasible} when any pool's weights alone exceed its
    device's HBM. Group drains shard across the {!Acs_util.Parallel}
    domain pool; results are independent of the job count. *)

val run_stream :
  ?calib:Acs_perfmodel.Calib.t ->
  ?epoch:int ->
  ?slo:float * float ->
  t ->
  Acs_workload.Model.t ->
  Trace.stream ->
  fleet_stats
(** Domain-parallel, bounded-memory fleet simulation for traces too large
    to materialize (consumes the stream destructively). The stream must
    be in arrival order. The router alternates routing rounds of [epoch]
    requests (default 512; must be >= 1; a round also takes any requests
    tied with its last arrival) with parallel advances of every group to
    the next round's first arrival, merging freshly finished outcomes
    into {!Acs_util.Stats.Online} accumulators in fixed group order - so
    results are bit-identical across [ACS_JOBS] settings, and peak memory
    is O(groups * backlog + epoch + sketch), independent of trace length.

    The returned stats carry empty [outcomes]/[rejected] lists; counts
    live in [completed]/[rejected_count], percentile fields come from the
    online sketches (nearest-rank within 1% relative error - see
    {!Acs_util.Stats.Online.quantile} - rather than the interpolated
    exact percentiles of {!run}), and [slo] (TTFT, TBT objectives in
    seconds) fills [slo_attained].

    Routing against {!run}: [Round_robin] and 1-group fleets reproduce
    {!run} exactly (same totals, steps and makespan);
    [Least_loaded]/[Phase_affine] price candidates with signals as of the
    last round boundary instead of advancing every group to each arrival,
    so their (deterministic) decisions can differ from {!run}'s. Raises
    like {!run}; also [Invalid_argument] on an SLO with non-positive
    objectives and on an arrival earlier than the one before it. *)

val slo_attainment : fleet_stats -> ttft_s:float -> tbt_s:float -> float
(** Fraction of completed originals meeting both objectives, with the
    same conventions as {!Simulator.slo_attainment} (vacuous 1 on an
    empty fleet, single-token requests trivially meet TBT). *)

val devices_for_qps : fleet_stats -> target_qps:float -> (string * int) list
(** First-order capacity plan: scales each pool's group count so the
    fleet would sustain [target_qps] completed requests per second,
    assuming request rate scales linearly with groups at fixed
    utilization - [ceil (target * utilization * count / achieved_qps)]
    per pool, floored at one group. Valid as a sizing estimate when the
    measured fleet is throughput-bound; it ignores queueing tails, so
    treat it as a lower bound near SLO limits. Returns [(pool_name,
    groups)] in fleet pool order; empty when nothing completed (no
    achieved rate to extrapolate from - the documented sentinel for
    "no measured throughput", preferred over a division by zero). Raises
    [Invalid_argument] on a non-positive or non-finite target. *)

val silicon_usd_per_mtok :
  ?lifetime_years:float ->
  die_cost_usd:(Acs_hardware.Device.t -> float) ->
  t ->
  fleet_stats ->
  float option
(** Fleet silicon cost per million generated tokens: every pool's
    [count * tp] dies priced by [die_cost_usd], amortized over
    [lifetime_years] (default 3) of the measured fleet throughput.
    [None] when the fleet sustained no tokens (zero or non-finite
    throughput) - there is no meaningful per-token cost to report, and
    the old [infinity] sentinel leaked into comparisons and tables. *)

val pp_fleet_stats : Format.formatter -> fleet_stats -> unit
