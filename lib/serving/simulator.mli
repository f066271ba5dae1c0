(** Iteration-level (continuous-batching) serving simulator, in the style
    of Orca/vLLM schedulers, driven by the analytical per-layer latencies
    of {!Acs_perfmodel.Engine} on its compiled fast path.

    The scheduler is event-driven: each iteration either admits waiting
    requests (running their prefill as one batch) or generates one token
    for every active request, and with nothing resident the clock jumps
    straight to the next arrival. Step latency comes from the device model
    at the step's batch size and (bucketed) context; on the default
    {!Compiled} engine each distinct (phase, batch, context-bucket) step
    is compiled once with {!Acs_perfmodel.Engine.compile}, evaluated with
    [simulate_compiled] and memoized, so long traces pay a few hundred
    engine calls instead of one per step.

    KV safety is by construction: admission reserves a request's whole KV
    trajectory (prompt plus every token it will generate), and a request
    is admitted only when that reservation fits in HBM next to the
    reservations of everything already resident (weights included).
    Admission is strictly FCFS - a non-fitting queue head blocks later
    arrivals rather than being bypassed. Requests whose KV can never fit
    even alone are reported in [rejected] instead of pinning the queue,
    and a deployment whose weights alone exceed HBM raises {!Infeasible}
    rather than simulating an impossible configuration.

    The simulator is instrumented: iteration counters, admitted/rejected
    totals and a batch-occupancy histogram (prefill and decode iterations
    alike) always accumulate in {!Acs_util.Metrics}, and with
    {!Acs_util.Trace} enabled each prefill batch and decode step emits a
    span (batch, context, free KV bytes) nested under a per-run
    [serve.run] root. An instance counts its iterations in its own fields
    and adds them to the registry when {!Instance.step},
    {!Instance.run_until} or {!Instance.drain} returns, so steps on
    different domains share no cache line. *)

type policy =
  | Prefill_priority
      (** admit whenever anything fits; decode only when nothing is
          admissible. Minimizes TTFT under load. *)
  | Decode_fair
      (** strict interleave under contention: after a prefill batch, at
          least one decode step runs before the next admission. Bounds the
          TBT stalls that prefill bursts inject. *)

type engine =
  | Legacy  (** one {!Acs_perfmodel.Engine.simulate} call per step *)
  | Compiled
      (** {!Acs_perfmodel.Engine.compile} + [simulate_compiled], memoized
          per (phase, batch, context-bucket). Identical step times (the
          compiled engine is bit-identical per the PR 4 property suite);
          the [serving_throughput] bench records the speed gap. *)

type config = {
  tp : int;  (** tensor-parallel group size *)
  max_batch : int;  (** scheduler cap on concurrent requests *)
  policy : policy;
  engine : engine;
  context_bucket : int;
      (** step lengths are rounded up to this granularity before hitting
          the engine (and the memo); 1 disables bucketing. Both engines
          bucket identically, so the choice never splits their results. *)
}

val default_config : config
(** tp = 4, max_batch = 64, [Prefill_priority], [Compiled], bucket 64. *)

val policy_to_string : policy -> string
val engine_to_string : engine -> string

exception Infeasible of string
(** Raised by {!run} when the model's weights alone exceed the device's
    HBM at the configured [tp]: no KV cache fits, so no trace can be
    served. The message names the model, device and both byte totals. *)

type request_outcome = {
  request : Trace.request;
  ttft_s : float;  (** first token latency, including queueing *)
  tbt_s : float;  (** mean time between subsequent tokens *)
  finish_s : float;
}

type stats = {
  outcomes : request_outcome list;
      (** completed requests only; see [rejected] for the rest *)
  rejected : Trace.request list;
      (** requests whose KV trajectory exceeds free HBM even in an
          otherwise empty batch - the deployment can never serve them *)
  makespan_s : float;
      (** absolute clock at the last completion (the trace starts at 0) *)
  generated_tokens : int;
      (** sum of [output_len] over completed requests *)
  produced_tokens : int;
      (** tokens the scheduler actually generated, counted step by step
          (one per active request per decode iteration, plus the first
          token each prefill emits). Token conservation is
          [produced_tokens = sum of (max 1 output_len) over completed
          requests] - the property suite holds it to account. *)
  throughput_tokens_per_s : float;
      (** generated tokens over the serving span, i.e. from the first
          arrival to the last completion — idle time before the first
          request does not dilute it; 0 on a degenerate zero-length span *)
  mean_batch_occupancy : float;
      (** time-weighted mean batch size across {e all} iterations,
          prefill batches included *)
  busy_s : float;
      (** seconds the device spent running prefill batches or decode
          steps - the makespan minus empty-batch idle time. Utilization
          over a span is [busy_s / span]; {!Cluster} reports it per
          pool. *)
  p50_ttft_s : float;
  p95_ttft_s : float;
  p50_tbt_s : float;
  p95_tbt_s : float;
  kv_limited_batch : int;
      (** informational: the batch bound HBM implies at the trace's mean
          context (0 when not even one such request fits). Admission no
          longer uses it - per-request reservations do - but it remains
          the right scale bar for [mean_batch_occupancy]. *)
  prefill_batches : int;
  decode_steps : int;
  peak_hbm_bytes : float;
      (** high-water mark of weights + live KV across the run; the KV
          safety invariant is [peak_hbm_bytes <= hbm_capacity_bytes] *)
  hbm_capacity_bytes : float;
}

val kv_capacity_batch :
  config -> Acs_hardware.Device.t -> Acs_workload.Model.t -> context:int -> int
(** How many requests of [context] tokens fit in HBM once weights are
    resident (0 when weights leave no room, or none fits). *)

val slo_attainment : stats -> ttft_s:float -> tbt_s:float -> float
(** Fraction of completed requests meeting both latency objectives (a
    single-token request trivially meets the TBT objective). Always in
    [0, 1]: an empty outcome list reports 1 (vacuously met) instead of
    0/0 = nan. *)

val run :
  ?config:config ->
  ?calib:Acs_perfmodel.Calib.t ->
  Acs_hardware.Device.t ->
  Acs_workload.Model.t ->
  Trace.request list ->
  stats
(** Simulates the whole trace; raises [Invalid_argument] on an empty
    trace or a non-positive [tp]/[max_batch], and {!Infeasible} when the
    weights alone exceed HBM. [rejected] is reported in arrival order.
    Implemented as submit-everything-then-drain over {!Instance}. *)

val pp_stats : Format.formatter -> stats -> unit

(** {2 Incremental stepping (the fleet building block)}

    {!run} simulates one device against a complete trace. A fleet
    simulator ({!Cluster}) instead interleaves {e submission} with
    {e stepping} across many devices: requests are routed as they arrive,
    and each device advances its own clock one scheduler iteration at a
    time. [stepper] and [Instance] expose exactly that seam. *)

type stepper = {
  prefill_s : batch:int -> input_len:int -> float;
  decode_s : batch:int -> context:int -> float;
}
(** Step-latency oracle for one (config, device, model) triple: maps
    (phase, batch, length) to seconds through the configured engine,
    bucketing lengths per the config before evaluation. On the [Compiled]
    engine the memo lives inside the stepper value, so sharing one
    stepper across the instances of identical devices shares the memo - a
    fleet of N equal devices pays the engine once, not N times, per
    distinct step shape. The fields are exposed (rather than kept
    abstract) because {!Cluster}'s phase-affine router prices a request
    on each candidate device with them. *)

val make_stepper :
  ?calib:Acs_perfmodel.Calib.t ->
  config:config ->
  Acs_hardware.Device.t ->
  Acs_workload.Model.t ->
  stepper

module Instance : sig
  type t
  (** One device's scheduler state: FCFS waiting queue, resident batch,
      KV reservations and its own clock. *)

  val create :
    ?calib:Acs_perfmodel.Calib.t ->
    ?stepper:stepper ->
    config:config ->
    Acs_hardware.Device.t ->
    Acs_workload.Model.t ->
    t
  (** Validates like {!run} (raises [Invalid_argument] / {!Infeasible}).
      Pass [stepper] to share a step-time memo across instances of
      identical devices; it must have been built from the same
      (config, device, model). *)

  val submit : ?prefilled:bool -> t -> Trace.request -> unit
  (** Enqueue a request. Submissions must be in arrival order (the queue
      is FCFS by construction); a request whose KV can never fit is
      recorded as rejected immediately. [prefilled] marks a request whose
      KV already exists elsewhere (disaggregated handoff): admission
      reserves its KV trajectory but runs no prefill batch - it joins the
      decode set instantly and its first token is its first local decode
      step, so its [ttft_s] measures decode-side queueing from
      [arrival_s] (which the caller sets to prefill-finish plus transfer
      delay). *)

  val now : t -> float
  (** The instance's clock (last completed iteration). *)

  val idle : t -> bool
  (** No waiting and no resident requests. *)

  val load : t -> int
  (** Outstanding-work estimate in tokens (unprocessed prompt tokens plus
      tokens still to generate) - the least-loaded routing signal. *)

  val step : t -> unit
  (** One scheduler iteration: join prefilled arrivals, then either run a
      prefill batch, a decode step, or jump to the next arrival. Like
      {!run_until} and {!drain}, it adds its iteration counts to the
      metrics registry before it returns. *)

  val run_until : t -> float -> unit
  (** Step while work remains and [now] is before the horizon. The last
      step may overshoot the horizon (iterations are atomic). *)

  val drain : t -> unit
  (** Step until {!idle}. *)

  val set_sinks :
    ?on_outcome:(request_outcome -> unit) ->
    ?on_reject:(Trace.request -> unit) ->
    t ->
    unit
  (** Install bounded-memory delivery: finished outcomes and rejected
      requests are passed to the sinks at the moment they occur instead of
      being retained for {!stats} (whose [outcomes]/[rejected] then stay
      empty; the counters below and every other stats field remain
      exact). Sinks run on whichever domain is stepping the instance, so
      they must only touch state owned by this instance. *)

  val completed_count : t -> int
  val rejected_count : t -> int

  val generated_count : t -> int
  (** Sum of [output_len] over completed requests (equals the
      [generated_tokens] a full outcome list would yield). *)

  val stats : t -> stats
  (** Snapshot of the accounting; call after {!drain} for final stats. *)
end
