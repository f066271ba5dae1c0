(** Umbrella module: the public API of the sanctions-architecture library.

    {2 Substrates}
    - {!Stats}, {!Table}, {!Scatter}, {!Csv}, {!Units}: utilities
    - {!Tracing}, {!Metrics}: span tracing and the metrics registry
      (observability of the engine, DSE and serving hot paths)
    - {!Systolic}, {!Memory}, {!Interconnect}, {!Process}, {!Device},
      {!Presets}: the hardware template
    - {!Model}, {!Request}, {!Op}, {!Layer}, {!Compiled}: LLM workloads
    - {!Calib}, {!Op_model}, {!Engine}: the analytical performance model
    - {!Area_model}, {!Cost_model}: silicon area and cost

    {2 The paper's contribution}
    - {!Spec}, {!Regime}, {!Proposals}: the Advanced Computing Rules
      and the proposed architecture-first policies, every one a
      {!Regime} value (the combinator DSL and the registry of shipped
      rules)
    - {!Gpu}, {!Database}: the real-device survey
    - {!Space}, {!Design}, {!Pareto}, {!Optimum}: design space exploration
    - {!Scenario}, {!Eval}: typed experiment manifests and the parallel,
      memoized evaluation engine keyed on them
    - {!Adaptive}, {!Disk_cache}: budgeted search over billion-point
      widened lattices and the persistent on-disk eval-cache tier
    - {!Daemon}: the long-running evaluation service (HTTP/1.1 over a
      Unix-domain socket, bounded job queue, warm caches across
      requests)
    - {!Grouping}: architecture-first performance indicators
    - {!Marketing}, {!Arch_classifier}: externality analyses *)

module Stats = Acs_util.Stats
module Parallel = Acs_util.Parallel

module Tracing = Acs_util.Trace
(** [Acs_util.Trace] (the span tracer), aliased to avoid clashing with the
    serving {!Trace} below. *)

module Metrics = Acs_util.Metrics
module Table = Acs_util.Table
module Scatter = Acs_util.Scatter
module Boxplot = Acs_util.Boxplot
module Heap = Acs_util.Heap
module Csv = Acs_util.Csv
module Fs = Acs_util.Fs
module Json = Acs_util.Json
module Units = Acs_util.Units
module Systolic = Acs_hardware.Systolic
module Memory = Acs_hardware.Memory
module Interconnect = Acs_hardware.Interconnect
module Process = Acs_hardware.Process
module Device = Acs_hardware.Device
module Presets = Acs_hardware.Presets
module Package = Acs_hardware.Package
module Model = Acs_workload.Model
module Request = Acs_workload.Request
module Op = Acs_workload.Op
module Graphics = Acs_workload.Graphics
module Layer = Acs_workload.Layer
module Compiled = Acs_workload.Compiled
module Calib = Acs_perfmodel.Calib
module Op_model = Acs_perfmodel.Op_model
module Engine = Acs_perfmodel.Engine
module Graphics_model = Acs_perfmodel.Graphics_model
module Report = Acs_perfmodel.Report
module Cluster = Acs_perfmodel.Cluster
module Training = Acs_perfmodel.Training
module Area_model = Acs_area.Area_model
module Cost_model = Acs_cost.Cost_model
module Binning = Acs_cost.Binning
module Power_model = Acs_power.Power_model
module Spec = Acs_policy.Spec
module Regime = Acs_policy.Regime
module Proposals = Acs_policy.Proposals
module Historical = Acs_policy.Historical
module Diffusion_2025 = Acs_policy.Diffusion_2025
module Derate = Acs_policy.Derate
module Timeline = Acs_policy.Timeline
module Gpu = Acs_devicedb.Gpu
module Database = Acs_devicedb.Database
module Space = Acs_dse.Space
module Design = Acs_dse.Design
module Scenario = Acs_dse.Scenario
module Eval = Acs_dse.Eval
module Pareto = Acs_dse.Pareto
module Optimum = Acs_dse.Optimum
module Search = Acs_dse.Search
module Adaptive = Acs_dse.Adaptive
module Disk_cache = Acs_dse.Disk_cache
module Daemon = Acs_daemon
(** The evaluation daemon: {!Acs_daemon.Server} (the service),
    {!Acs_daemon.Client} (the thin per-call client), {!Acs_daemon.Jobq}
    (the bounded queue) and {!Acs_daemon.Http} (the wire protocol). *)

module Grouping = Acs_indicators.Grouping
module Market = Acs_externality.Market
module Latency_cost = Acs_externality.Latency_cost
module Marketing = Acs_externality.Marketing
module Arch_classifier = Acs_externality.Arch_classifier
module Trace = Acs_serving.Trace
module Simulator = Acs_serving.Simulator

(* [Cluster] is taken by the multi-device perf-model topology above; the
   serving fleet simulator goes by [Fleet] at the umbrella level. *)
module Fleet = Acs_serving.Cluster
