module Json = Acs_util.Json
module Metrics = Acs_util.Metrics
module Parallel = Acs_util.Parallel
module Scenario = Acs_dse.Scenario
module Space = Acs_dse.Space
module Design = Acs_dse.Design
module Eval = Acs_dse.Eval
module Disk_cache = Acs_dse.Disk_cache

type config = {
  socket : string;
  workers : int;
  queue : int;
  batch : int;
  throttle_s : float;
  eval_jobs : int option;
  cache_dir : string option;
}

let default_config =
  {
    socket = "acs.sock";
    workers = 2;
    queue = 8;
    batch = 64;
    throttle_s = 0.;
    eval_jobs = None;
    cache_dir = Some Disk_cache.default_dir;
  }

type t = {
  cfg : config;
  q : Jobq.t;
  sock : Unix.file_descr;
  accept_stop : bool Atomic.t;  (* accept-loop exit flag *)
  stop_requested : bool Atomic.t;  (* set by signal handlers via request_stop *)
  mutable accept_thread : Thread.t option;
  mutable workers : unit Domain.t array;
  mutable stopped : bool;
}

let socket_path t = t.cfg.socket
let queue t = t.q

(* --- observability --- *)

let m_requests =
  Metrics.handle (fun () -> Metrics.counter "daemon_requests_total")
let m_jobs_done = Metrics.handle (fun () -> Metrics.counter "daemon_jobs_total")
let m_points = Metrics.handle (fun () -> Metrics.counter "daemon_points_total")
let m_queue_depth =
  Metrics.handle (fun () -> Metrics.gauge "daemon_queue_depth")
let m_job_time =
  Metrics.handle (fun () -> Metrics.histogram "daemon_job_seconds")

(* --- job execution --- *)

let split_batch n pts =
  let rec go n acc = function
    | rest when n = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | p :: rest -> go (n - 1) (p :: acc) rest
  in
  go n [] pts

(* One job: enumerate the scenario's points once, then per batch - check
   the cancel flag, classify each point's provenance (memo hit / disk
   promotion / cold), evaluate through the shared [Eval] cache and the
   [Parallel] pool, write the cold results - only those - through to the
   disk tier, and emit a progress event. A job the memo answers touches
   no file. The provenance classification is what the warm-cache
   acceptance rate is measured from. *)
let run_job t (job : Jobq.job) =
  let sc = job.scenario in
  Jobq.emit t.q job
    (Json.obj
       [ ("event", Json.string "started"); ("total", Json.int job.total) ]);
  let t0 = Unix.gettimeofday () in
  match
    let disk =
      Option.map (fun dir -> Disk_cache.open_dir ~dir sc) t.cfg.cache_dir
    in
    let points =
      match sc.Scenario.target with
      | Scenario.Space sw -> Space.enumerate sw
      | Scenario.Point p -> [ p ]
    in
    let compliant = ref 0 in
    let best_ttft = ref infinity and best_tbt = ref infinity in
    let cancelled = ref false in
    let rec batches = function
      | [] -> ()
      | pts when Atomic.get job.cancel_requested ->
          ignore pts;
          cancelled := true
      | pts ->
          let batch, rest = split_batch t.cfg.batch pts in
          let tagged =
            List.map
              (fun p ->
                if Eval.probe sc p then begin
                  job.memo_hits <- job.memo_hits + 1;
                  (p, false)
                end
                else
                  match Option.bind disk (fun d -> Disk_cache.find d p) with
                  | Some design ->
                      Eval.seed sc p design;
                      job.disk_hits <- job.disk_hits + 1;
                      (p, false)
                  | None ->
                      job.cold <- job.cold + 1;
                      (p, true))
              batch
          in
          let eval () = Eval.points sc batch in
          let designs =
            match t.cfg.eval_jobs with
            | Some n -> Parallel.with_jobs n eval
            | None -> eval ()
          in
          (match disk with
          | Some d ->
              List.iter2
                (fun (p, cold) dsg -> if cold then Disk_cache.store d p dsg)
                tagged designs
          | None -> ());
          List.iter
            (fun dsg ->
              if Scenario.compliant sc dsg && Design.manufacturable dsg then begin
                incr compliant;
                if dsg.Design.ttft_s < !best_ttft then best_ttft := dsg.Design.ttft_s;
                if dsg.Design.tbt_s < !best_tbt then best_tbt := dsg.Design.tbt_s
              end)
            designs;
          job.progress <- job.progress + List.length batch;
          Metrics.incr ~by:(List.length batch) (Metrics.get m_points);
          Jobq.emit t.q job
            (Json.obj
               [
                 ("event", Json.string "progress");
                 ("progress", Json.int job.progress);
                 ("total", Json.int job.total);
                 ("memo", Json.int job.memo_hits);
                 ("disk", Json.int job.disk_hits);
                 ("cold", Json.int job.cold);
               ]);
          if t.cfg.throttle_s > 0. then Unix.sleepf t.cfg.throttle_s;
          batches rest
    in
    batches points;
    (!cancelled, !compliant, !best_ttft, !best_tbt)
  with
  | cancelled, compliant, best_ttft, best_tbt ->
      let wall = Unix.gettimeofday () -. t0 in
      Metrics.observe (Metrics.get m_job_time) wall;
      job.finished_at <- Some (Unix.gettimeofday ());
      if cancelled then begin
        job.status <- Jobq.Cancelled;
        Jobq.emit t.q job
          (Json.obj
             [
               ("event", Json.string "cancelled");
               ("progress", Json.int job.progress);
             ])
      end
      else begin
        job.result <-
          Some
            {
              Jobq.designs = job.progress;
              compliant;
              best_ttft_s = (if compliant > 0 then best_ttft else nan);
              best_tbt_s = (if compliant > 0 then best_tbt else nan);
              wall_s = wall;
            };
        job.status <- Jobq.Done;
        Metrics.incr (Metrics.get m_jobs_done);
        let rate = Jobq.warm_hit_rate job in
        Jobq.emit t.q job
          (Json.obj
             ([
                ("event", Json.string "done");
                ("designs", Json.int job.progress);
                ("compliant", Json.int compliant);
                ("memo", Json.int job.memo_hits);
                ("disk", Json.int job.disk_hits);
                ("cold", Json.int job.cold);
                ("wall_s", Json.float wall);
              ]
             @ if Float.is_finite rate then [ ("warm_hit_rate", Json.float rate) ] else []))
      end
  | exception e ->
      let msg = Printexc.to_string e in
      job.finished_at <- Some (Unix.gettimeofday ());
      job.status <- Jobq.Failed msg;
      Jobq.emit t.q job
        (Json.obj
           [ ("event", Json.string "failed"); ("error", Json.string msg) ])

let worker_loop t =
  let rec loop () =
    match Jobq.claim t.q with
    | None -> () (* draining and empty: the worker exit signal *)
    | Some job ->
        run_job t job;
        loop ()
  in
  loop ()

(* --- request routing --- *)

let scenario_of_body body =
  let j =
    try Json.of_string body
    with Json.Error m -> raise (Http.Bad_request ("malformed JSON: " ^ m))
  in
  let by_name n =
    match Scenario.find n with
    | Some sc -> sc
    | None -> raise (Http.Bad_request (Printf.sprintf "unknown scenario %S" n))
  in
  match j with
  | Json.String n -> by_name n
  | Json.Obj members when List.mem_assoc "scenario" members -> (
      match List.assoc "scenario" members with
      | Json.String n -> by_name n
      | _ -> raise (Http.Bad_request "\"scenario\" must be a registry name"))
  | Json.Obj _ -> (
      try Scenario.of_json j
      with Json.Error m ->
        raise (Http.Bad_request ("malformed manifest: " ^ m)))
  | _ ->
      raise
        (Http.Bad_request
           "expected a scenario name, {\"scenario\": name} or a full manifest")

let segments path = String.split_on_char '/' path |> List.filter (( <> ) "")

let respond_error fd status msg =
  Http.respond_json ~status fd (Http.error_json msg)

let handle_submit t fd (req : Http.request) =
  let sc = scenario_of_body req.body in
  match Jobq.submit t.q sc with
  | Error (`Full depth) ->
      Http.respond_json ~status:429 fd
        (Json.obj
           [
             ("error", Json.string "queue full");
             ("queue_depth", Json.int depth);
             ("queue_capacity", Json.int (Jobq.capacity t.q));
           ])
  | Error `Draining ->
      Http.respond_json ~status:503 fd
        (Json.obj [ ("error", Json.string "draining: not accepting jobs") ])
  | Ok job -> (
      let wants_wait =
        match Http.query_param req "wait" with
        | Some ("1" | "true" | "") -> true
        | Some _ | None -> false
      in
      if not wants_wait then Http.respond_json ~status:202 fd (Jobq.job_to_json job)
      else
        (* Stream the job's event log as chunked ndjson until the job
           finishes, then a final summary event carrying the whole job
           record. A client hanging up raises EPIPE (SIGPIPE is
           ignored), which just ends the stream - the job keeps
           running. *)
        try
          Http.start_chunked ~status:200 fd;
          let seq = ref 0 in
          let finished = ref false in
          while not !finished do
            let evs = Jobq.events_after t.q job !seq in
            List.iter
              (fun (s, ev) ->
                seq := s;
                Http.write_chunk fd (Json.to_string ev ^ "\n"))
              evs;
            if evs = [] && Jobq.finished job then finished := true
          done;
          Http.write_chunk fd
            (Json.to_string
               (Json.obj
                  [
                    ("event", Json.string "summary");
                    ("job", Jobq.job_to_json job);
                  ])
            ^ "\n");
          Http.finish_chunked fd
        with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ())

let route t fd (req : Http.request) =
  Metrics.incr (Metrics.get m_requests);
  match segments req.path with
  | [ "healthz" ] ->
      if req.meth <> "GET" then respond_error fd 405 "use GET"
      else
        Http.respond_json ~status:200 fd
          (Json.obj
             [
               ("status", Json.string "ok");
               ("draining", Json.bool (Jobq.draining t.q));
               ("queue_depth", Json.int (Jobq.depth t.q));
               ("queue_capacity", Json.int (Jobq.capacity t.q));
               ("workers", Json.int t.cfg.workers);
             ])
  | [ "metrics" ] ->
      if req.meth <> "GET" then respond_error fd 405 "use GET"
      else Http.respond_json ~status:200 fd (Metrics.export ())
  | [ "jobs" ] -> (
      match req.meth with
      | "GET" ->
          Http.respond_json ~status:200 fd
            (Json.obj
               [
                 ( "jobs",
                   Json.List (List.map Jobq.job_to_json (Jobq.jobs t.q)) );
               ])
      | "POST" -> handle_submit t fd req
      | _ -> respond_error fd 405 "use GET or POST")
  | [ "jobs"; id ] -> (
      match int_of_string_opt id with
      | None -> respond_error fd 404 (Printf.sprintf "no such job %S" id)
      | Some id -> (
          match req.meth with
          | "GET" -> (
              match Jobq.find t.q id with
              | Some job -> Http.respond_json ~status:200 fd (Jobq.job_to_json job)
              | None -> respond_error fd 404 (Printf.sprintf "no such job %d" id))
          | "DELETE" -> (
              match Jobq.cancel t.q id with
              | `Cancelled ->
                  Http.respond_json ~status:200 fd
                    (Json.obj [ ("status", Json.string "cancelled") ])
              | `Cancelling ->
                  Http.respond_json ~status:202 fd
                    (Json.obj [ ("status", Json.string "cancelling") ])
              | `Already_finished -> respond_error fd 409 "job already finished"
              | `Unknown -> respond_error fd 404 (Printf.sprintf "no such job %d" id))
          | _ -> respond_error fd 405 "use GET or DELETE"))
  | _ -> respond_error fd 404 (Printf.sprintf "no route for %s" req.path)

(* One connection: one request, one response, close. Protocol errors map
   to a 400 and everything else to a 500 - a malformed or malicious
   request must never take the daemon down. *)
let handle t fd =
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let r = Http.reader fd in
      match Http.read_request r with
      | None -> ()
      | Some req -> (
          try route t fd req
          with
          | Http.Bad_request msg -> (
              try respond_error fd 400 msg
              with Unix.Unix_error _ -> ())
          | Json.Error msg -> (
              try respond_error fd 400 msg
              with Unix.Unix_error _ -> ())
          | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()
          | e -> (
              try respond_error fd 500 (Printexc.to_string e)
              with Unix.Unix_error _ -> ()))
      | exception Http.Bad_request msg -> (
          try respond_error fd 400 msg with Unix.Unix_error _ -> ())
      | exception Unix.Unix_error _ -> ())

(* --- accept loop --- *)

let accept_loop t =
  let rec loop () =
    if not (Atomic.get t.accept_stop) then begin
      (* The poll tick doubles as the liveness heartbeat for progress
         streamers blocked in [Jobq.events_after]. *)
      Jobq.tick t.q;
      Metrics.set_gauge (Metrics.get m_queue_depth)
        (float_of_int (Jobq.depth t.q));
      (match Unix.select [ t.sock ] [] [] 0.2 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
          match Unix.accept t.sock with
          | fd, _ -> ignore (Thread.create (fun () -> handle t fd) ())
          | exception
              Unix.Unix_error
                ( ( Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK
                  | Unix.ECONNABORTED ),
                  _,
                  _ ) ->
              ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ()

(* --- lifecycle --- *)

let start (cfg : config) =
  if cfg.workers < 1 then invalid_arg "Server.start: workers must be >= 1";
  if cfg.batch < 1 then invalid_arg "Server.start: batch must be >= 1";
  if String.length cfg.socket > 100 then
    invalid_arg "Server.start: socket path too long for sun_path";
  (* A client disappearing mid-write must surface as EPIPE, not kill the
     process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  (try Unix.unlink cfg.socket with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind sock (Unix.ADDR_UNIX cfg.socket);
     Unix.listen sock 64
   with e ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     raise e);
  let t =
    {
      cfg;
      q = Jobq.create ~capacity:cfg.queue;
      sock;
      accept_stop = Atomic.make false;
      stop_requested = Atomic.make false;
      accept_thread = None;
      workers = [||];
      stopped = false;
    }
  in
  t.workers <- Array.init cfg.workers (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t.accept_thread <- Some (Thread.create accept_loop t);
  t

let request_stop t = Atomic.set t.stop_requested true

let wait t =
  while not (Atomic.get t.stop_requested || t.stopped) do
    try Unix.sleepf 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let stop ?(drain = true) t =
  if not t.stopped then begin
    t.stopped <- true;
    request_stop t;
    (* Reject new submissions; queued jobs still run under [drain]. *)
    Jobq.drain t.q;
    if not drain then
      List.iter
        (fun (j : Jobq.job) -> ignore (Jobq.cancel t.q j.id))
        (Jobq.jobs t.q);
    (* Workers exit once the queue is empty; the accept loop keeps
       serving status requests while they finish, then stops. *)
    Array.iter Domain.join t.workers;
    Atomic.set t.accept_stop true;
    Option.iter Thread.join t.accept_thread;
    (try Unix.close t.sock with Unix.Unix_error _ -> ());
    (try Unix.unlink t.cfg.socket with Unix.Unix_error _ -> ())
  end
