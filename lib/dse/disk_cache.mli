(** Persistent on-disk eval-cache tier (under the in-memory {!Eval}
    cache).

    One JSON record per evaluated (context, point) pair, conventionally
    under [results/cache/]. Records are content-addressed: the filename
    is {!Scenario.context_hash} plus two hashes of the point (see
    {!entry_path}), so one lookup reads one file. The tier keeps no
    in-memory index - the {!Eval} memo is the only in-memory tier - and
    its cost does not grow with the number of records in the directory:
    {!open_dir} takes constant time, {!find} reads at most one file and
    {!store} writes one.

    Callers sort each point into memo, disk or cold before they evaluate
    ({!Eval.probe}, then {!find}) and {!store} only the cold ones, so a
    job answered by the memo does no disk I/O at all.

    Durability contract:
    - writes are atomic (temp file + rename in the same directory); a
      failed write removes its temp file;
    - records carry a {!version} header - a record written by a different
      version is a miss, which is how a perf-model change invalidates a
      stale cache;
    - a record is returned only when its version, its canonical context
      string and its params ({!Space.params_equal}) all match the lookup,
      so a filename collision is a miss, never a wrong design;
    - corrupt, truncated, unreadable or version-stale records are counted
      in [stats.skipped] and are misses; {!find} never raises on cache
      contents, and the next {!store} of that point rewrites the record.

    Only (params, ttft, tbt) are stored; the rest of a {!Design.t} is
    rebuilt via {!Space.build} and {!Design.of_latencies}, producing a
    bitwise-equal design (latency bits are stored exactly, as IEEE-754 bit
    patterns). *)

type t

type stats = {
  hits : int;  (** {!find} calls answered by a healthy record *)
  stores : int;  (** records written by {!store} *)
  skipped : int;  (** corrupt or version-stale records met by {!find} *)
}

val version : int
(** Record-format/model generation. Bump to orphan every existing cache
    entry. *)

val default_dir : string
(** [results/cache] - where the CLI puts the cache unless told otherwise. *)

val open_dir : dir:string -> Scenario.t -> t
(** Create [dir] if needed (recursively) and bind a handle to the
    scenario's evaluation context. Reads nothing: the directory is never
    listed. Raises [Sys_error] only when [dir] cannot be created. *)

val entry_path : t -> Space.params -> string
(** The one file that holds the point's record under this handle's
    context, whether or not it exists yet. *)

val find : t -> Space.params -> Design.t option
(** Read the record at {!entry_path}; counts a hit when it answers. *)

val store : t -> Space.params -> Design.t -> unit
(** Write the point's record at {!entry_path} (temp file, then rename),
    replacing whatever was there. On failure the temp file is removed and
    the exception re-raised. *)

val stats : t -> stats
