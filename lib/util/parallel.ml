(* A process-wide pool of worker domains. Workers block on a condition
   variable waiting for jobs; each parallel map enqueues one job per helper
   and participates in the work itself, so an effective job count of [n]
   uses the calling domain plus [n - 1] pool workers. The pool grows to the
   largest helper count ever requested and is torn down at exit. *)

let parse_jobs s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> n
  | Some _ | None ->
      invalid_arg "Parallel: ACS_JOBS must be a positive integer"

(* A {!Metrics.handle}, not a [lazy]: two domains forcing a suspension
   for the first time at once raise [CamlinternalLazy.Undefined], and
   the daemon's worker domains can make their first {!jobs} calls
   together. A failing read caches nothing, so an invalid ACS_JOBS
   raises [Invalid_argument] on every call. *)
let env_jobs =
  Metrics.handle (fun () ->
      match Sys.getenv_opt "ACS_JOBS" with
      | Some s -> parse_jobs s
      | None -> max 1 (Domain.recommended_domain_count () - 1))

(* [with_jobs] override. Domain-local state, not a shared ref: the
   documented contract is that the override is only visible to calls made
   from the current domain, and the evaluation daemon relies on it - each
   of its worker domains pins its own job count while running a job, and
   concurrent workers must not clobber each other (a shared ref would race
   on the save/restore). *)
let forced_jobs : int option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let jobs () =
  match Domain.DLS.get forced_jobs with
  | Some n -> n
  | None -> Metrics.get env_jobs

let with_jobs n f =
  if n < 1 then invalid_arg "Parallel.with_jobs: job count must be >= 1";
  let prev = Domain.DLS.get forced_jobs in
  Domain.DLS.set forced_jobs (Some n);
  Fun.protect ~finally:(fun () -> Domain.DLS.set forced_jobs prev) f

(* --- observability --- *)

let m_pool_size = Metrics.handle (fun () -> Metrics.gauge "parallel_pool_size")
let m_maps = Metrics.handle (fun () -> Metrics.counter "parallel_maps_total")
let m_chunks =
  Metrics.handle (fun () -> Metrics.counter "parallel_chunks_total")

let busy_gauge () =
  Metrics.gauge "parallel_busy_seconds"
    ~labels:[ ("domain", string_of_int (Domain.self () :> int)) ]

(* --- the pool --- *)

let pool_mutex = Mutex.create ()
let pending : (unit -> unit) Queue.t = Queue.create ()
let has_work = Condition.create ()
let worker_count = ref 0
let workers : unit Domain.t list ref = ref []
let shutdown = ref false
let teardown_registered = ref false

let worker_loop () =
  let rec next () =
    Mutex.lock pool_mutex;
    while Queue.is_empty pending && not !shutdown do
      Condition.wait has_work pool_mutex
    done;
    if Queue.is_empty pending then Mutex.unlock pool_mutex
    else begin
      let job = Queue.pop pending in
      Mutex.unlock pool_mutex;
      job ();
      next ()
    end
  in
  next ()

let ensure_workers n =
  Mutex.lock pool_mutex;
  let missing = n - !worker_count in
  if missing > 0 then worker_count := n;
  if not !teardown_registered then begin
    teardown_registered := true;
    at_exit (fun () ->
        Mutex.lock pool_mutex;
        shutdown := true;
        Condition.broadcast has_work;
        Mutex.unlock pool_mutex;
        List.iter Domain.join !workers)
  end;
  Mutex.unlock pool_mutex;
  (* Spawning outside the lock: only the calling domain spawns (callers are
     serialized through the maps below in practice, and a harmless
     over-spawn is the worst concurrent case). *)
  for _ = 1 to missing do
    workers := Domain.spawn worker_loop :: !workers
  done

let submit job =
  Mutex.lock pool_mutex;
  Queue.push job pending;
  Condition.signal has_work;
  Mutex.unlock pool_mutex

(* Run [process lo hi c] for every chunk [c] covering [lo..hi], distributing
   contiguous chunks over [jobs] domains (the caller plus [jobs - 1] pool
   workers). Chunk indices are dense in [0, n_chunks). *)
let run_chunks ~jobs ~chunk ~total process =
  let n_chunks = (total + chunk - 1) / chunk in
  let helpers = min (jobs - 1) (n_chunks - 1) in
  if helpers <= 0 then
    for c = 0 to n_chunks - 1 do
      let lo = c * chunk in
      process ~lo ~hi:(min total (lo + chunk) - 1) c
    done
  else begin
    ensure_workers helpers;
    Metrics.incr (Metrics.get m_maps);
    Metrics.set_gauge (Metrics.get m_pool_size) (float_of_int !worker_count);
    let next_chunk = Atomic.make 0 in
    let failure = Atomic.make None in
    let work () =
      (* Per-domain busy time: the window each participating domain spends
         claiming and processing chunks of this map. *)
      let busy = busy_gauge () in
      let t0 = Monotonic_clock.now () in
      let rec loop () =
        let c = Atomic.fetch_and_add next_chunk 1 in
        if c < n_chunks then begin
          Metrics.incr (Metrics.get m_chunks);
          (if Atomic.get failure = None then
             try
               let lo = c * chunk in
               process ~lo ~hi:(min total (lo + chunk) - 1) c
             with e ->
               let bt = Printexc.get_raw_backtrace () in
               ignore (Atomic.compare_and_set failure None (Some (e, bt))));
          loop ()
        end
      in
      loop ();
      Metrics.add_gauge busy
        (Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9)
    in
    let remaining = Atomic.make helpers in
    let done_mutex = Mutex.create () in
    let all_done = Condition.create () in
    let traced_work () =
      if Trace.enabled () then Trace.with_span "parallel.worker" work
      else work ()
    in
    let helper () =
      Fun.protect ~finally:(fun () ->
          if Atomic.fetch_and_add remaining (-1) = 1 then begin
            Mutex.lock done_mutex;
            Condition.broadcast all_done;
            Mutex.unlock done_mutex
          end)
        traced_work
    in
    let dispatch_and_wait () =
      for _ = 1 to helpers do
        submit helper
      done;
      work ();
      Mutex.lock done_mutex;
      while Atomic.get remaining > 0 do
        Condition.wait all_done done_mutex
      done;
      Mutex.unlock done_mutex
    in
    (if Trace.enabled () then
       Trace.with_span "parallel.map"
         ~attrs:
           [ ("jobs", Trace.Int jobs); ("chunks", Trace.Int n_chunks);
             ("items", Trace.Int total) ]
         dispatch_and_wait
     else dispatch_and_wait ());
    match Atomic.get failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

let run_chunked ~jobs ~chunk ~total apply =
  run_chunks ~jobs ~chunk ~total (fun ~lo ~hi _c ->
      for i = lo to hi do
        apply i
      done)

let resolve_jobs = function
  | Some n when n >= 1 -> n
  | Some _ -> invalid_arg "Parallel: job count must be >= 1"
  | None -> jobs ()

(* Auto-tuned chunk size. Chunks are claimed dynamically, so more chunks
   per domain smooths load imbalance (design evaluations vary several-fold
   in cost across a sweep), but every claim pays an atomic fetch-and-add
   plus a metrics bump. Instead of a fixed 4 chunks per domain, target a
   chunk count that grows with the per-domain share (log2) and stays within
   [2, 16] chunks per domain: short inputs are not shredded into one-item
   chunks and huge inputs do not queue thousands of claims. *)
let resolve_chunk chunk ~jobs ~total =
  match chunk with
  | Some c when c >= 1 -> c
  | Some _ | None ->
      let per_domain = max 1 ((total + jobs - 1) / jobs) in
      let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1) in
      let target_chunks = min 16 (max 2 (log2 per_domain 0)) in
      max 1 (per_domain / target_chunks)

(* Results are staged through an option array so every element type gets a
   uniform boxed representation (no flat-float-array write hazards) and
   [filter_map] falls out of the same code path. *)
let map_options ~jobs ~chunk f a =
  let total = Array.length a in
  let out = Array.make total None in
  let chunk = resolve_chunk chunk ~jobs ~total in
  run_chunked ~jobs ~chunk ~total (fun i -> out.(i) <- Some (f a.(i)));
  out

let map_array ?jobs ?chunk f a =
  let jobs = resolve_jobs jobs in
  if jobs <= 1 || Array.length a <= 1 then Array.map f a
  else
    Array.map
      (function Some v -> v | None -> assert false)
      (map_options ~jobs ~chunk f a)

let filter_map_array ?jobs ?chunk f a =
  let jobs = resolve_jobs jobs in
  if jobs <= 1 || Array.length a <= 1 then
    Array.of_list (List.filter_map f (Array.to_list a))
  else begin
    let out = map_options ~jobs ~chunk f a in
    let result = ref [] in
    for i = Array.length out - 1 downto 0 do
      match out.(i) with
      | Some (Some v) -> result := v :: !result
      | Some None -> ()
      | None -> assert false
    done;
    Array.of_list !result
  end

(* Per-chunk partials land in a dense array indexed by chunk id and are
   folded on the calling domain in chunk order, so for an associative
   [combine] the result is independent of which domain ran which chunk. *)
let map_reduce_array ?jobs ?chunk ~map:f ~combine init a =
  let jobs = resolve_jobs jobs in
  let total = Array.length a in
  if total = 0 then init
  else if jobs <= 1 || total <= 1 then
    Array.fold_left (fun acc x -> combine acc (f x)) init a
  else begin
    let chunk = resolve_chunk chunk ~jobs ~total in
    let n_chunks = (total + chunk - 1) / chunk in
    let partials = Array.make n_chunks None in
    run_chunks ~jobs ~chunk ~total (fun ~lo ~hi c ->
        let acc = ref (f a.(lo)) in
        for i = lo + 1 to hi do
          acc := combine !acc (f a.(i))
        done;
        partials.(c) <- Some !acc);
    Array.fold_left
      (fun acc -> function Some p -> combine acc p | None -> assert false)
      init partials
  end

let map_reduce ?jobs ?chunk ~map:f ~combine init l =
  match l with
  | [] -> init
  | l -> map_reduce_array ?jobs ?chunk ~map:f ~combine init (Array.of_list l)

let map ?jobs ?chunk f l =
  let n = resolve_jobs jobs in
  if n <= 1 then List.map f l
  else Array.to_list (map_array ~jobs:n ?chunk f (Array.of_list l))

let filter_map ?jobs ?chunk f l =
  let n = resolve_jobs jobs in
  if n <= 1 then List.filter_map f l
  else Array.to_list (filter_map_array ~jobs:n ?chunk f (Array.of_list l))
