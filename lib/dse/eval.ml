module Parallel = Acs_util.Parallel
module Span = Acs_util.Trace
module Metrics = Acs_util.Metrics

type stats = { lookups : int; hits : int; evaluations : int }

(* Registry metrics mirroring the local atomics: the atomics feed
   [stats ()] (and [Common.timed]); the registry feeds `acs profile`'s
   summary and the metrics export. *)
let m_lookups =
  Metrics.handle (fun () -> Metrics.counter "dse_cache_lookups_total")
let m_hits = Metrics.handle (fun () -> Metrics.counter "dse_cache_hits_total")
let m_evals = Metrics.handle (fun () -> Metrics.counter "dse_evaluations_total")
let m_eval_seconds =
  Metrics.handle (fun () -> Metrics.histogram "dse_eval_seconds")

(* The memo cache is keyed per design point: the sweep's shared context
   (a {!Scenario.t}; [Scenario.context_equal] ignores name, description,
   regime and the target) paired with the raw point [params]. The hash is
   computed once per point - [Scenario.point_hash], finalized so that its
   low bits spread, over a context hash computed once per sweep - stored
   in the key, and reused by lookup, shard selection and insertion;
   building a full per-point scenario value, as the first cut of this
   cache did, is no longer needed.
   Equality and hashing keep the documented nan/-0. float semantics of
   [Scenario.Key] (under the polymorphic [(=)], a nan-bearing key - e.g.
   a probing sweep with [memory_gb = nan] - would never hit). *)
module Pkey = struct
  type t = {
    ctx : Scenario.t;
    params : Space.params;
    hash : int;  (** [Scenario.point_hash], precomputed *)
  }

  let equal a b =
    (* params first: the cheap field-by-field compare almost always
       decides within one bucket. *)
    Space.params_equal a.params b.params && Scenario.context_equal a.ctx b.ctx

  let hash k = k.hash
end

module Pcache = Hashtbl.Make (Pkey)

(* The cache is sharded N ways, each shard a table behind its own mutex,
   so concurrent domains probing a warm cache do not serialize on one
   global lock (they did, and the lock was held across the full
   scenario hash + equality walk). The shard index comes from bits 24+ of
   the key hash: [Hashtbl] buckets on the low bits, so taking high bits
   keeps the two choices uncorrelated. *)
let n_shards = 16

type shard = { lock : Mutex.t; table : Design.t Pcache.t }

let shards =
  Array.init n_shards (fun _ ->
      { lock = Mutex.create (); table = Pcache.create 512 })

let shard_of hash = shards.((hash lsr 24) land (n_shards - 1))
let lookups = Atomic.make 0
let hits = Atomic.make 0
let evaluations = Atomic.make 0

let stats () =
  {
    lookups = Atomic.get lookups;
    hits = Atomic.get hits;
    evaluations = Atomic.get evaluations;
  }

let clear () =
  Array.iter
    (fun s ->
      Mutex.lock s.lock;
      Pcache.reset s.table;
      Mutex.unlock s.lock)
    shards;
  Atomic.set lookups 0;
  Atomic.set hits 0;
  Atomic.set evaluations 0

let point_key ~ctx_hash (s : Scenario.t) p =
  {
    Pkey.ctx = s;
    params = p;
    hash = Scenario.point_hash ~context_hash:ctx_hash p;
  }

let find_opt (key : Pkey.t) =
  let shard = shard_of key.Pkey.hash in
  Mutex.lock shard.lock;
  let r = Pcache.find_opt shard.table key in
  Mutex.unlock shard.lock;
  Atomic.incr lookups;
  Metrics.incr (Metrics.get m_lookups);
  if Option.is_some r then begin
    Atomic.incr hits;
    Metrics.incr (Metrics.get m_hits)
  end;
  r

let insert (key : Pkey.t) design =
  let shard = shard_of key.Pkey.hash in
  Mutex.lock shard.lock;
  if not (Pcache.mem shard.table key) then Pcache.add shard.table key design;
  Mutex.unlock shard.lock

let probe (s : Scenario.t) p =
  Option.is_some
    (find_opt (point_key ~ctx_hash:(Scenario.context_hash s) s p))

let compile_scenario (s : Scenario.t) =
  Acs_perfmodel.Engine.compile ?tp:s.Scenario.tp ?request:s.Scenario.request
    s.Scenario.model

let evaluate_point (s : Scenario.t) compiled p =
  Atomic.incr evaluations;
  Metrics.incr (Metrics.get m_evals);
  let eval () =
    Design.evaluate_compiled ?calib:s.Scenario.calib compiled p
      (Space.build ?memory_gb:s.Scenario.memory_gb
         ~tpp_target:s.Scenario.tpp_target p)
  in
  Metrics.time (Metrics.get m_eval_seconds) (fun () ->
      if not (Span.enabled ()) then eval ()
      else
        Span.with_span "eval.point"
          ~attrs:
            [ ("systolic", Span.Int p.Space.systolic_dim);
              ("lanes", Span.Int p.Space.lanes);
              ("l1_kb", Span.Float p.Space.l1);
              ("l2_mb", Span.Float p.Space.l2);
              ("membw_tb_s", Span.Float p.Space.memory_bw);
              ("devbw_gb_s", Span.Float p.Space.device_bw) ]
          eval)

(* Shared evaluation core over an explicit point array: [run] feeds it
   the scenario's target, [points] an arbitrary list (the adaptive
   search asks for exactly the lattice points a strategy selected). *)
let eval_array ~cache (s : Scenario.t) (points : Space.params array) =
  let run_points () =
    if not cache then begin
      let compiled = compile_scenario s in
      Array.to_list (Parallel.map_array (evaluate_point s compiled) points)
    end
    else begin
      let ctx_hash = Scenario.context_hash s in
      let keys = Array.map (point_key ~ctx_hash s) points in
      let found = Array.map find_opt keys in
      let missing = ref [] in
      Array.iteri
        (fun i -> function None -> missing := i :: !missing | Some _ -> ())
        found;
      let missing = Array.of_list (List.rev !missing) in
      if Array.length missing > 0 then begin
        (* Compile the shared context once, on the caller, and only when
           something actually needs evaluating: a warm run pays nothing,
           and the workers just read the compiled value ([Lazy.force]
           would not be safe to share across domains). *)
        let compiled = compile_scenario s in
        let computed =
          Parallel.map_array
            (fun i -> evaluate_point s compiled points.(i))
            missing
        in
        Array.iteri
          (fun j i ->
            insert keys.(i) computed.(j);
            found.(i) <- Some computed.(j))
          missing
      end;
      Array.to_list
        (Array.map (function Some d -> d | None -> assert false) found)
    end
  in
  if not (Span.enabled ()) then run_points ()
  else
    Span.with_span "eval.run"
      ~attrs:
        [ ( "scenario",
            Span.Str
              (if s.Scenario.name = "" then "<anonymous>" else s.Scenario.name)
          );
          ("points", Span.Int (Array.length points));
          ("cache", Span.Bool cache) ]
      run_points

let run ?(cache = true) (s : Scenario.t) =
  let points =
    match s.Scenario.target with
    | Scenario.Point p -> [| p |]
    | Scenario.Space sweep -> Array.of_list (Space.enumerate sweep)
  in
  eval_array ~cache s points

let points ?(cache = true) (s : Scenario.t) ps =
  eval_array ~cache s (Array.of_list ps)

let seed (s : Scenario.t) p d =
  insert (point_key ~ctx_hash:(Scenario.context_hash s) s p) d

(* Legacy optional-argument entry points: thin wrappers that build an
   anonymous scenario. They share the cache with registry scenarios of
   the same context ([Scenario.context_equal] ignores
   name/description/regime). *)

let scenario_of ?calib ?tp ?request ?memory_gb ~model ~tpp_target target =
  Scenario.make ?request ?calib ?tp ?memory_gb ~name:"" ~model ~tpp_target
    target

let evaluate ?calib ?tp ?request ?memory_gb ~model ~tpp_target params =
  match
    run
      (scenario_of ?calib ?tp ?request ?memory_gb ~model ~tpp_target
         (Scenario.Point params))
  with
  | [ d ] -> d
  | _ -> assert false

let sweep ?calib ?tp ?request ?memory_gb ?cache ~model ~tpp_target sweep_def =
  run ?cache
    (scenario_of ?calib ?tp ?request ?memory_gb ~model ~tpp_target
       (Scenario.Space sweep_def))
