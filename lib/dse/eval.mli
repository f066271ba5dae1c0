(** Parallel, memoized design evaluation.

    Every headline figure re-runs [Design.evaluate] over 512-4800-point
    sweeps, and several sections re-evaluate the very same design set
    (Figs. 7, 8, 11, Table 4 and the scorecard all share the Fig-7 sweep).
    This module is the shared evaluation engine. The (model, request, tp)
    context is compiled once per run ({!Acs_perfmodel.Engine.compile}),
    design points are simulated against it in parallel over the
    {!Acs_util.Parallel} domain pool via
    {!Acs_perfmodel.Engine.simulate_compiled} - bit-identical to the
    per-op path, which the test suite asserts - and the results are
    cached process-wide.

    Cache keys pair the sweep's shared context (a {!Scenario.t} under
    {!Scenario.context_equal}, which ignores name/description/regime and
    the target) with the raw point [Space.params]; the key hash is
    precomputed ({!Scenario.point_hash} over one per-sweep context hash)
    and stored, so probes never re-hash. Equality keeps the written-down
    nan/-0. float semantics of {!Scenario.equal}. The table is sharded 16
    ways on the high hash bits, each shard behind its own mutex, so
    concurrent domains probing a warm cache do not serialize on a global
    lock; it stays safe to share between domains.

    The key hash is finalized ({!Space.mix}). [Hashtbl] picks a bucket
    from the low bits, and the raw structural hash barely varies there:
    its [h * 31 + x] steps only carry bits upward, and the sweeps' float
    axis values have all-zero low mantissa bits. Unfinalized, a
    registry round's 14,832 distinct keys took 112 distinct low-16-bit
    values, so a lookup walked a chain of ~130 keys; finalized they take
    13,123, about what a random function gives. The disk tier's file
    names use the raw {!Scenario.context_hash} and
    {!Space.params_hash}, which are unchanged. *)

type stats = {
  lookups : int;  (** cache probes *)
  hits : int;  (** probes answered from the cache *)
  evaluations : int;  (** [Design.evaluate] runs actually performed *)
}

val run : ?cache:bool -> Scenario.t -> Design.t list
(** Evaluates the scenario's target - every sweep point in
    [Space.enumerate] order, or the single [Point] - through the cache
    and the parallel pool. This is the primary entry point; the
    optional-argument functions below are thin wrappers that build an
    anonymous scenario and share the same cache. [~cache:false] skips
    both lookup and insertion (used by the speed benchmarks). *)

val evaluate :
  ?calib:Acs_perfmodel.Calib.t ->
  ?tp:int ->
  ?request:Acs_workload.Request.t ->
  ?memory_gb:float ->
  model:Acs_workload.Model.t ->
  tpp_target:float ->
  Space.params ->
  Design.t
(** Memoized single-point evaluation (builds the device under the TPP
    target, then simulates it). *)

val sweep :
  ?calib:Acs_perfmodel.Calib.t ->
  ?tp:int ->
  ?request:Acs_workload.Request.t ->
  ?memory_gb:float ->
  ?cache:bool ->
  model:Acs_workload.Model.t ->
  tpp_target:float ->
  Space.sweep ->
  Design.t list
(** Evaluates the whole sweep, in [Space.enumerate] order. Cached points
    are returned directly; the missing ones are evaluated in parallel and
    inserted. [~cache:false] skips both lookup and insertion (used by the
    speed benchmarks to measure raw evaluation throughput). *)

val points : ?cache:bool -> Scenario.t -> Space.params list -> Design.t list
(** Evaluates an explicit point list under the scenario's context, in the
    given order, through the same cache and parallel pool as {!run} (the
    scenario's own target is ignored). The adaptive search uses this to
    evaluate exactly the lattice points a strategy selected. *)

val seed : Scenario.t -> Space.params -> Design.t -> unit
(** Inserts an already-computed design into the memo cache without
    counting an evaluation - the disk-cache tier uses it to promote
    on-disk entries into memory. First insertion wins, as with {!run}. *)

val probe : Scenario.t -> Space.params -> bool
(** Lookup only - no evaluation, no insertion: is this context + point
    cached? Keys exactly as {!run} does (context hash plus
    {!Scenario.point_hash}) and counts in {!stats} as a lookup, so the
    speed bench can measure contended lookup throughput against a
    single-mutex baseline. *)

val stats : unit -> stats
(** Cumulative counters since start (or the last [clear]). *)

val clear : unit -> unit
(** Drops every cache entry and resets the counters. *)
