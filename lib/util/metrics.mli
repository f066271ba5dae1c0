(** Process-wide metrics registry: counters, gauges and log-scale
    histograms, with optional labels.

    Instrumented subsystems ({!Parallel}, the evaluation engine, the
    serving simulator) register metrics on first use through a {!handle};
    registration is get-or-create, so the metric returned for a given
    (name, labels) pair is always the same one and increments from any
    module or domain accumulate in one place. Counters and histogram
    buckets are atomics - safe and cheap to bump from worker domains; sums
    use a compare-and-set loop.

    Histograms are log-scale: buckets at four per decade from 1 ns to
    1000 s (values at or below the floor land in an underflow bucket,
    values beyond the range in the top bucket). That spans kernel-level
    nanoseconds to sweep-level minutes with a bounded 50-slot array, which
    is what latency distributions need. {!quantile} answers from bucket
    upper bounds (a <= factor-of-1.78 overestimate).

    Everything exports as JSON ({!export}) and as an aligned summary table
    ({!summary_table}) - the end-of-run table [acs profile] prints. *)

type labels = (string * string) list

type counter
type gauge
type histogram

(** {2 Handles (registration on first use)} *)

type 'a handle
(** A metric registered the first time it is used, from any domain. Use
    it where a [lazy] registration would otherwise go: forcing one
    suspension from two domains at once raises
    [CamlinternalLazy.Undefined], while racing first uses of a handle all
    resolve to the same registered metric. *)

val handle : (unit -> 'a) -> 'a handle
(** [handle (fun () -> counter "name")]. The function may run more than
    once under a race, so it must be idempotent: for a metric, only
    register (get-or-create). {!Parallel} caches its [ACS_JOBS] reading
    the same way. *)

val get : 'a handle -> 'a
(** The metric, registering it on the first call. After that, an atomic
    load and a match. *)

(** {2 Counters (monotone integers)} *)

val counter : ?labels:labels -> string -> counter
(** Get or create. Raises [Invalid_argument] if (name, labels) is already
    registered as a different metric kind. *)

val incr : ?by:int -> counter -> unit
(** [by] defaults to 1 and must be >= 0 (counters are monotone). *)

val counter_value : counter -> int

(** {2 Gauges (floats that can also accumulate)} *)

val gauge : ?labels:labels -> string -> gauge
val set_gauge : gauge -> float -> unit
val add_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

(** {2 Histograms (log-scale, seconds-oriented)} *)

val histogram : ?labels:labels -> string -> histogram

val observe : histogram -> float -> unit
(** A value lands in the bucket whose upper bound is the smallest one at
    or above it. NaN observations are counted in the underflow bucket
    (they carry no magnitude) and excluded from the sum; values beyond the
    top bound, infinity included, land in the overflow bucket. *)

val observe_n : histogram -> float -> int -> unit
(** [observe_n h v n] is [n] observations of [v] at the cost of one: the
    bucket count grows by [n] and the sum by [v *. float n], which is
    exact when [v] and [n] are integers whose product is below 2{^53}.
    Raises [Invalid_argument] when [n < 0]. *)

val time : histogram -> (unit -> 'a) -> 'a
(** Run the body and observe its wall-clock duration in seconds.
    Exception-safe: a raising body is still observed, then the exception
    propagates. *)

val hist_count : histogram -> int
val hist_sum : histogram -> float

val quantile : histogram -> float -> float
(** [quantile h q] for [q] in [0, 1]: the upper bound of the bucket
    holding the [q]-th observation; [nan] on an empty histogram. Raises
    [Invalid_argument] outside [0, 1]. *)

val buckets : histogram -> (float * int) list
(** (upper bound in seconds, count) per non-empty bucket, ascending. The
    underflow bucket reports the range floor as its bound. *)

(** {2 Registry} *)

val reset : unit -> unit
(** Zero every registered metric in place. Handles stay valid (the
    registry keeps its entries), so instrumented modules that cached a
    metric keep reporting into it - this is what tests use for
    isolation. *)

val export : unit -> Json.t
(** [{"counters": [...], "gauges": [...], "histograms": [...]}], each
    entry carrying name, labels and current values; deterministic order
    (sorted by name, then labels). *)

val summary_table : unit -> Table.t
(** One row per metric: name{labels}, kind, value (count for histograms)
    and mean/p50/p95 in seconds for histograms. Rows are sorted like
    {!export}. *)
