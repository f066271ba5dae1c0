(** Adaptive design-space search over the compiled engine.

    The paper's own sweeps (512-9216 points) are enumerable; the widened
    lattice ({!Space.widened}, ~1e9 implicit points) is not. Each strategy
    here finds a near-optimal feasible design while evaluating only a
    budgeted subset of the lattice, using three fidelity levels:

    + {b bound}: an analytic roofline lower bound on the engine's phase
      latency, computed from the built device alone (no simulation). The
      bound is sound - never above the true engine latency - so a
      candidate whose bound exceeds the incumbent's true objective can be
      discarded exactly (branch-and-bound). {!bounds} exposes it and the
      property suite asserts soundness against the real engine.
    + {b engine}: {!Eval.points}, i.e.
      {!Acs_perfmodel.Engine.simulate_compiled} through the shared memo
      cache and - when [cache_dir] is given - the {!Disk_cache} tier.
    + {b refine} (optional): a caller-supplied re-ranking of the top
      evaluated designs, e.g. a serving-simulator pass injected by the
      CLI (this library does not depend on the serving simulator).

    Determinism: given (scenario, strategy, objective, budget, seed) the
    outcome's [best], [evaluated] and [rungs] are identical regardless of
    cache state (cold, warm-memory or warm-disk) and of [ACS_JOBS] - all
    decisions depend only on evaluated design values, and all randomness
    is drawn from a seeded PRNG before any evaluation. Only the
    {!provenance} triple varies. When [budget >= Space.size sweep], every
    strategy degenerates to exhaustive enumeration, so its result equals
    the {!Optimum.best} oracle bit for bit (the adaptive suite pins
    this). *)

type strategy =
  | Halving
      (** Successive halving: coarse grid probed at bound fidelity,
          survivors simulated in lower-bound order in waves, with exact
          branch-and-bound pruning against the incumbent between waves. *)
  | Pareto_front
      (** Like [Halving], but a candidate is pruned when an already
          evaluated feasible design is at or below both its objective
          lower bound and its exact die cost - i.e. it can neither win
          nor extend the (objective, cost) frontier. *)
  | Descent
      (** Multi-start coordinate descent generalizing {!Search.optimize}:
          deduplicated lattice corners plus seeded random starts; each
          pass scans one full axis at a time. *)
  | Zoom
      (** Space refinement: a coarse subgrid of the full box, then
          repeatedly zoom the box onto the incumbent's lattice cell, with
          the finer axes rotating across levels. *)

val strategies : (string * strategy) list
(** CLI-facing names, e.g. [("halving", Halving)]. *)

val strategy_to_string : strategy -> string
val strategy_of_string : string -> strategy option

type rung = {
  fidelity : string;  (** e.g. ["bound"], ["engine0"], ["zoom3"] *)
  candidates : int;  (** points entering this rung *)
  evaluated : int;  (** fresh engine evaluations spent in it *)
  promoted : int;  (** survivors carried to the next rung *)
  pruned : int;  (** candidates discarded by bound/dominance/prescreen *)
}

type provenance = { memory : int; disk : int; cold : int }
(** Where the budget-charged evaluations were answered from: the
    in-memory {!Eval} cache, the on-disk tier, or a cold simulation. The
    three always sum to [outcome.evaluated]. *)

type outcome = {
  best : Design.t option;  (** [None] when no feasible design was found *)
  objective : Optimum.objective;
  strategy : strategy;
  budget : int;
  evaluated : int;  (** engine evaluations charged; [<= budget] always *)
  bounded : int;  (** bound-fidelity probes (not budget-charged) *)
  implicit : float;  (** [Space.size] of the sweep *)
  pruned : float;  (** implicit points never simulated *)
  rungs : rung list;  (** in execution order *)
  provenance : provenance;
  disk : Disk_cache.stats option;  (** when [cache_dir] was given *)
}

val search :
  ?budget:int ->
  ?seed:int ->
  ?objective:Optimum.objective ->
  ?feasible:(Design.t -> bool) ->
  ?refine:(Design.t -> float) ->
  ?cache_dir:string ->
  strategy:strategy ->
  Scenario.t ->
  outcome
(** Search the scenario's sweep. Defaults: [budget] 1024 engine
    evaluations (the hard ceiling - never exceeded), [seed] 42,
    [objective] {!Optimum.Tbt}, [feasible] the scenario's compliance test
    plus {!Design.manufacturable}. A custom [feasible] may read the
    simulated latencies; it is then only applied at engine fidelity
    (the bound-fidelity prescreen is skipped, since a probe has no
    latencies). [refine], when given, re-ranks the top evaluated designs
    as a final fidelity level and [best] becomes its winner.

    @raise Invalid_argument on a [Point]-target scenario or [budget < 1]. *)

val bounds : Scenario.t -> Space.params -> float * float
(** [(ttft_bound, tbt_bound)]: the analytic roofline lower bounds on the
    engine's prefill and decode phase latencies for this point's built
    device. Sound: each is [<=] the corresponding simulated latency
    (asserted by the property suite). Exposed for tests; [search]
    amortizes the compile internally. *)

val probe :
  ?objective:Optimum.objective ->
  prescreen:bool ->
  Scenario.t ->
  Space.params ->
  (float * float) option
(** The bound rung's probe of this point, from its built device and die
    area alone (no design is built): [None] when [prescreen] is set and
    the point fails the default feasibility test (the scenario's
    compliance plus the reticle), else [Some (die_cost_usd, bound)]: the
    design's die cost and the [objective]'s (default {!Optimum.Tbt})
    roofline lower bound, costed with that die cost for the cost-product
    objectives. [search] keeps only these floats per candidate, and sets
    [prescreen] unless it was given a custom [feasible]. Exposed for
    tests; the property suite checks it against the design
    {!Design.of_latencies} builds for the point, bit for bit. *)
