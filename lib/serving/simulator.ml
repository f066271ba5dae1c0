module Device = Acs_hardware.Device
module Memory = Acs_hardware.Memory
module Model = Acs_workload.Model
module Request = Acs_workload.Request
module Engine = Acs_perfmodel.Engine
module Stats = Acs_util.Stats
module Span = Acs_util.Trace
module Metrics = Acs_util.Metrics

(* Registry metrics are always on. A scheduler step counts into plain
   fields of its instance, which are flushed here when the stepping call
   returns (see [Instance.flush]); spans and their attribute lists are
   built only when tracing is enabled. *)
let m_prefills =
  Metrics.handle (fun () -> Metrics.counter "serving_prefill_batches_total")
let m_decodes =
  Metrics.handle (fun () -> Metrics.counter "serving_decode_steps_total")
let m_admitted =
  Metrics.handle (fun () -> Metrics.counter "serving_admitted_total")
let m_rejected =
  Metrics.handle (fun () -> Metrics.counter "serving_rejected_total")
let m_occupancy =
  Metrics.handle (fun () -> Metrics.histogram "serving_batch_occupancy")

type policy = Prefill_priority | Decode_fair
type engine = Legacy | Compiled

type config = {
  tp : int;
  max_batch : int;
  policy : policy;
  engine : engine;
  context_bucket : int;
}

let default_config =
  {
    tp = 4;
    max_batch = 64;
    policy = Prefill_priority;
    engine = Compiled;
    context_bucket = 64;
  }

let policy_to_string = function
  | Prefill_priority -> "prefill-priority"
  | Decode_fair -> "decode-fair"

let engine_to_string = function Legacy -> "legacy" | Compiled -> "compiled"

exception Infeasible of string

type request_outcome = {
  request : Trace.request;
  ttft_s : float;
  tbt_s : float;
  finish_s : float;
}

type stats = {
  outcomes : request_outcome list;
  rejected : Trace.request list;
  makespan_s : float;
  generated_tokens : int;
  produced_tokens : int;
  throughput_tokens_per_s : float;
  mean_batch_occupancy : float;
  busy_s : float;
  p50_ttft_s : float;
  p95_ttft_s : float;
  p50_tbt_s : float;
  p95_tbt_s : float;
  kv_limited_batch : int;
  prefill_batches : int;
  decode_steps : int;
  peak_hbm_bytes : float;
  hbm_capacity_bytes : float;
}

let kv_bytes_per_token_per_device config (model : Model.t) =
  let kv_heads_per_dev =
    max 1 ((model.Model.n_kv_heads + config.tp - 1) / config.tp)
  in
  let fraction =
    float_of_int kv_heads_per_dev /. float_of_int model.Model.n_kv_heads
  in
  Model.kv_cache_bytes_per_token model
  *. float_of_int model.Model.num_layers
  *. fraction

let weight_bytes_per_device config (model : Model.t) =
  Model.total_params model *. model.Model.bytes_per_param
  /. float_of_int config.tp

let kv_capacity_batch config dev model ~context =
  if context <= 0 then invalid_arg "Simulator.kv_capacity_batch: context";
  let capacity = dev.Device.memory.Memory.capacity_bytes in
  let weights = weight_bytes_per_device config model in
  let per_request =
    kv_bytes_per_token_per_device config model *. float_of_int context
  in
  let free = capacity -. weights in
  if free <= 0. then 0
  else min config.max_batch (int_of_float (free /. per_request))

(* --- step latencies ---

   Every scheduler step is one engine evaluation at the step's (batch,
   length). The compiled engine flattens the (model, request, tp) context
   with [Engine.compile] and evaluates the device against the flat arrays
   ([simulate_compiled], bit-identical to [simulate] per the PR 4 property
   suite), then memoizes the whole-model step time keyed on
   (phase, batch, bucketed length): a long trace revisits the same few
   hundred keys, so almost every step is a hashtable hit. The legacy
   engine re-runs [Engine.simulate] per step - kept as the baseline the
   [serving_throughput] bench compares against. Both engines see the
   same bucketed lengths, so their schedules (and stats) are identical.

   A stepper is a value so a fleet of identical devices can share one:
   the memo inside is keyed purely on (phase, batch, length), which only
   depends on (config, device, model) - exactly the sharing key
   {!Cluster} uses. The key is one int, [(len * (max_batch + 1) + batch)
   * 2 + phase], which is collision-free while [batch <= max_batch] and
   the product cannot overflow; a step outside that range (no scheduler
   step is) is evaluated without the memo, which is only a cache. *)

type stepper = {
  prefill_s : batch:int -> input_len:int -> float;
  decode_s : batch:int -> context:int -> float;
}

let bucketed config len =
  let b = config.context_bucket in
  let len = max 1 len in
  if b <= 1 then len else (len + b - 1) / b * b

let step_request ~prefill ~batch ~len =
  (* output_len 0 puts the decode phase exactly at context [len], matching
     the legacy per-step convention; prefill reads TTFT so its output
     length is irrelevant beyond being >= 1. *)
  Request.make ~batch ~input_len:len ~output_len:(if prefill then 1 else 0)

module Int_tbl = Hashtbl.Make (Int)

let make_stepper ?calib ~config dev model =
  let of_result ~prefill r =
    if prefill then Engine.model_ttft_s r else Engine.model_tbt_s r
  in
  let simulate ~prefill ~batch ~len =
    let request = step_request ~prefill ~batch ~len in
    of_result ~prefill
      (match config.engine with
      | Legacy -> Engine.simulate ?calib ~tp:config.tp ~request dev model
      | Compiled ->
          Engine.simulate_compiled ?calib
            (Engine.compile ~tp:config.tp ~request model)
            dev)
  in
  let eval =
    match config.engine with
    | Legacy -> simulate
    | Compiled ->
        let stride = config.max_batch + 1 in
        let max_len = ((max_int / 2) - stride) / stride in
        let memo : float Int_tbl.t = Int_tbl.create 256 in
        fun ~prefill ~batch ~len ->
          if batch < 0 || batch >= stride || len > max_len then
            simulate ~prefill ~batch ~len
          else
            let key = (((len * stride) + batch) * 2) + Bool.to_int prefill in
            match Int_tbl.find memo key with
            | t -> t
            | exception Not_found ->
                let t = simulate ~prefill ~batch ~len in
                Int_tbl.add memo key t;
                t
  in
  {
    prefill_s =
      (fun ~batch ~input_len ->
        eval ~prefill:true ~batch ~len:(bucketed config input_len));
    decode_s =
      (fun ~batch ~context ->
        eval ~prefill:false ~batch ~len:(bucketed config context));
  }

(* --- the per-device instance ---

   The event-driven scheduler as a steppable value: requests are submitted
   over (simulated) time, [step] runs one scheduler iteration, and [stats]
   snapshots the accounting. [run] below is submit-everything-then-drain;
   {!Cluster} interleaves submission with stepping to route a shared trace
   across many instances. *)

(* Mutable per-request bookkeeping. [prefilled] marks requests whose KV
   arrived from another device (disaggregated handoff): admission reserves
   their KV but runs no prefill batch - they join the decode set directly
   and their first token is the first local decode step. *)
type entry = {
  req : Trace.request;
  prefilled : bool;
  mutable first_token_s : float;  (** nan until the first token *)
  mutable produced : int;
  mutable context : int;
}

module Instance = struct
  (* The instance's mutable floats. A record of floats only stores its
     fields unboxed, so the per-step updates allocate nothing; in the
     mixed record below every assignment would box a fresh float. *)
  type clocks = {
    mutable clock : float;
    mutable busy_weighted : float;
    mutable busy_time : float;
    mutable reserved : float;
    mutable peak : float;
    mutable first_arrival : float;
  }

  (* The waiting queue is FCFS in submission (= arrival) order, stored as
     the classic two-list functional queue so both [submit] and admission
     pops are O(1) amortized even with a million-request backlog. *)
  type t = {
    config : config;
    stepper : stepper;
    capacity : float;
    weights : float;
    kv_tok : float;
    free : float;
    f : clocks;
    mutable q_front : (Trace.request * bool) list;
    mutable q_back : (Trace.request * bool) list;  (** newest first *)
    mutable active : entry list;  (** resident requests, in admission order *)
    (* [List.length active] and the sum of its contexts, kept in step so
       a decode step need not walk the list to size itself. *)
    mutable resident : int;
    mutable resident_context : int;
    mutable outcomes : request_outcome list;
    mutable rejected_rev : Trace.request list;
    mutable prefill_batches : int;
    mutable decode_steps : int;
    mutable produced_tokens : int;
    mutable last_was_prefill : bool;
    (* Submission accounting for the final stats. *)
    mutable submitted : int;
    mutable context_sum : int;
    (* Outstanding-work estimate for router load balancing. *)
    mutable work_tokens : int;
    (* Counters mirroring [outcomes]/[rejected_rev] so bounded-memory
       callers (the streaming fleet) can drop the lists entirely. *)
    mutable completed : int;
    mutable generated : int;
    mutable rejected_n : int;
    (* When set, finished/rejected requests are handed to the sink instead
       of being retained: memory stays O(resident batch + queue) no matter
       how many requests pass through. *)
    mutable on_outcome : (request_outcome -> unit) option;
    mutable on_reject : (Trace.request -> unit) option;
    (* Registry deltas not yet flushed: prefill batches, decode steps,
       admissions, and batch-occupancy observations counted per batch
       size (sizes past the array are observed directly). *)
    mutable unflushed_prefills : int;
    mutable unflushed_decodes : int;
    mutable unflushed_admitted : int;
    unflushed_occupancy : int array;
  }

  let reserve inst (r : Trace.request) =
    inst.kv_tok *. float_of_int (r.Trace.input_len + r.Trace.output_len)
  [@@inline]

  let create ?calib ?stepper ~config dev model =
    if config.tp < 1 then invalid_arg "Simulator.run: tp must be >= 1";
    if config.max_batch < 1 then
      invalid_arg "Simulator.run: max_batch must be >= 1";
    let capacity = dev.Device.memory.Memory.capacity_bytes in
    let weights = weight_bytes_per_device config model in
    if weights >= capacity then
      raise
        (Infeasible
           (Printf.sprintf
              "%s at tp=%d needs %.1f GiB of weights per device but %s has \
               only %.1f GiB of HBM - no KV cache can fit"
              model.Model.name config.tp
              (weights /. (1024. ** 3.))
              dev.Device.name
              (capacity /. (1024. ** 3.))));
    let stepper =
      match stepper with
      | Some s -> s
      | None -> make_stepper ?calib ~config dev model
    in
    let kv_tok = kv_bytes_per_token_per_device config model in
    {
      config;
      stepper;
      capacity;
      weights;
      kv_tok;
      free = capacity -. weights;
      f =
        {
          clock = 0.;
          busy_weighted = 0.;
          busy_time = 0.;
          reserved = 0.;
          peak = weights;
          first_arrival = infinity;
        };
      q_front = [];
      q_back = [];
      active = [];
      resident = 0;
      resident_context = 0;
      outcomes = [];
      rejected_rev = [];
      prefill_batches = 0;
      decode_steps = 0;
      produced_tokens = 0;
      last_was_prefill = false;
      submitted = 0;
      context_sum = 0;
      work_tokens = 0;
      completed = 0;
      generated = 0;
      rejected_n = 0;
      on_outcome = None;
      on_reject = None;
      unflushed_prefills = 0;
      unflushed_decodes = 0;
      unflushed_admitted = 0;
      unflushed_occupancy = Array.make (min config.max_batch 1024 + 1) 0;
    }

  let set_sinks ?on_outcome ?on_reject inst =
    inst.on_outcome <- on_outcome;
    inst.on_reject <- on_reject

  (* Requests whose KV can never fit even alone would otherwise pin the
     FCFS queue head forever; mark them rejected at submission instead.
     Requests must be submitted in (fleet-wide) arrival order - the queue
     is FCFS by construction. *)
  let submit ?(prefilled = false) inst (r : Trace.request) =
    inst.submitted <- inst.submitted + 1;
    inst.f.first_arrival <- Float.min inst.f.first_arrival r.Trace.arrival_s;
    inst.context_sum <-
      inst.context_sum + r.Trace.input_len + (r.Trace.output_len / 2);
    if reserve inst r > inst.free then begin
      inst.rejected_n <- inst.rejected_n + 1;
      (match inst.on_reject with
      | Some sink -> sink r
      | None -> inst.rejected_rev <- r :: inst.rejected_rev);
      Metrics.incr (Metrics.get m_rejected)
    end
    else begin
      (* A prefilled request costs this device only its remaining decode
         tokens; a fresh one also has its whole prompt to process. *)
      inst.work_tokens <-
        inst.work_tokens + r.Trace.output_len
        + (if prefilled then 0 else r.Trace.input_len);
      inst.q_back <- (r, prefilled) :: inst.q_back
    end

  (* The waiting queue, head first: refills the front from the back when
     it runs dry, and returns the list itself, so a peek allocates
     nothing. *)
  let queue inst =
    (match (inst.q_front, inst.q_back) with
    | [], (_ :: _ as back) ->
        inst.q_front <- List.rev back;
        inst.q_back <- []
    | _ -> ());
    inst.q_front

  let queue_pop inst =
    match inst.q_front with
    | _ :: rest -> inst.q_front <- rest
    | [] -> assert false (* callers pop only after a successful peek *)

  let now inst = inst.f.clock
  let idle inst =
    inst.resident = 0
    && match (inst.q_front, inst.q_back) with [], [] -> true | _ -> false
  let load inst = inst.work_tokens
  let completed_count inst = inst.completed
  let rejected_count inst = inst.rejected_n
  let generated_count inst = inst.generated

  let note_peak inst =
    let live =
      inst.weights +. (inst.kv_tok *. float_of_int inst.resident_context)
    in
    if live > inst.f.peak then inst.f.peak <- live

  (* Counted here, added to the registry by [flush]. *)
  let note_occupancy inst batch =
    let occ = inst.unflushed_occupancy in
    if batch < Array.length occ then occ.(batch) <- occ.(batch) + 1
    else Metrics.observe (Metrics.get m_occupancy) (float_of_int batch)

  (* Add the step counts gathered since the last flush to the registry and
     zero them. Every stepping entry point calls this once, when it
     returns: a step touches only its own instance, and the shared atomic
     cells are bumped once per call instead of once per step. The
     occupancy observations are integer batch sizes, so the histogram's
     count and sum come out exactly as if observed one at a time. *)
  let flush inst =
    if
      inst.unflushed_prefills > 0
      || inst.unflushed_decodes > 0
      || inst.unflushed_admitted > 0
    then begin
      Metrics.incr ~by:inst.unflushed_prefills (Metrics.get m_prefills);
      Metrics.incr ~by:inst.unflushed_decodes (Metrics.get m_decodes);
      Metrics.incr ~by:inst.unflushed_admitted (Metrics.get m_admitted);
      inst.unflushed_prefills <- 0;
      inst.unflushed_decodes <- 0;
      inst.unflushed_admitted <- 0;
      let occ = inst.unflushed_occupancy in
      let h = Metrics.get m_occupancy in
      Array.iteri
        (fun batch n ->
          if n > 0 then begin
            Metrics.observe_n h (float_of_int batch) n;
            occ.(batch) <- 0
          end)
        occ
    end

  let finish inst (a : entry) =
    let tokens_after_first = a.req.Trace.output_len - 1 in
    let outcome =
      {
        request = a.req;
        ttft_s = a.first_token_s -. a.req.Trace.arrival_s;
        tbt_s =
          (if tokens_after_first <= 0 then 0.
           else
             (inst.f.clock -. a.first_token_s)
             /. float_of_int tokens_after_first);
        finish_s = inst.f.clock;
      }
    in
    inst.completed <- inst.completed + 1;
    inst.generated <- inst.generated + a.req.Trace.output_len;
    (match inst.on_outcome with
    | Some sink -> sink outcome
    | None -> inst.outcomes <- outcome :: inst.outcomes);
    inst.f.reserved <- inst.f.reserved -. reserve inst a.req

  (* Append newly resident requests, keeping admission order. *)
  let admit inst entries =
    inst.active <- inst.active @ entries;
    List.iter
      (fun e ->
        inst.resident <- inst.resident + 1;
        inst.resident_context <- inst.resident_context + e.context)
      entries

  (* FCFS admission: walk the queue head while requests have arrived and
     their reservations fit next to everything already resident. The first
     non-fitting (or future) request blocks the rest - no head-of-line
     bypass, so admission order is exactly arrival order. A head request is
     admissible when it has arrived, its reservation fits, and a batch slot
     is open. *)
  let admissible inst (r : Trace.request) ~slots =
    slots > 0
    && r.Trace.arrival_s <= inst.f.clock
    && inst.f.reserved +. reserve inst r <= inst.free

  (* Prefilled requests at the queue head join the decode set instantly:
     their KV is already materialized (the handoff delay was paid as
     arrival time), so admission costs reservation bookkeeping and nothing
     else - no prefill batch, no clock advance. Joins stop at the first
     fresh (or blocked) head, keeping admission strictly FCFS even in a
     mixed queue. *)
  let rec join_prefilled_from inst joined n =
    match queue inst with
    | (r, true) :: _
      when admissible inst r ~slots:(inst.config.max_batch - inst.resident - n)
      ->
        queue_pop inst;
        inst.f.reserved <- inst.f.reserved +. reserve inst r;
        let e =
          {
            req = r;
            prefilled = true;
            first_token_s = Float.nan;
            produced = 0;
            context = r.Trace.input_len;
          }
        in
        join_prefilled_from inst (e :: joined) (n + 1)
    | _ ->
        if n > 0 then begin
          admit inst (List.rev joined);
          inst.unflushed_admitted <- inst.unflushed_admitted + n;
          note_peak inst
        end

  let join_prefilled inst = join_prefilled_from inst [] 0

  (* Pop the maximal admissible run of fresh requests at the queue head,
     reserving as it goes. Called only once the policy has decided to run
     a prefill batch. *)
  let take_fresh inst =
    let rec take acc slots =
      match queue inst with
      | (r, false) :: _ when admissible inst r ~slots ->
          queue_pop inst;
          inst.f.reserved <- inst.f.reserved +. reserve inst r;
          take (r :: acc) (slots - 1)
      | _ -> List.rev acc
    in
    take [] (inst.config.max_batch - inst.resident)

  let is_done a = a.produced >= a.req.Trace.output_len

  (* One decode token for every resident request; returns how many of
     them have now produced their last token. *)
  let rec decode_tokens inst finished = function
    | [] -> finished
    | a :: rest ->
        a.produced <- a.produced + 1;
        a.context <- a.context + 1;
        if Float.is_nan a.first_token_s then a.first_token_s <- inst.f.clock;
        decode_tokens inst (if is_done a then finished + 1 else finished) rest

  (* Finish the requests that produced their last token, in admission
     order (the release order [reserved]'s float arithmetic depends on),
     and drop them from the resident set. *)
  let retire inst =
    let finished, still_active = List.partition is_done inst.active in
    List.iter
      (fun a ->
        inst.resident <- inst.resident - 1;
        inst.resident_context <- inst.resident_context - a.context;
        finish inst a)
      finished;
    inst.active <- still_active

  (* Account one iteration of [batch] resident requests that took [t]. *)
  let advance inst ~batch t =
    inst.f.clock <- inst.f.clock +. t;
    inst.f.busy_weighted <- inst.f.busy_weighted +. (float_of_int batch *. t);
    inst.f.busy_time <- inst.f.busy_time +. t;
    inst.produced_tokens <- inst.produced_tokens + batch;
    note_occupancy inst batch
  [@@inline]

  (* One scheduler iteration, without the registry flush. *)
  let step_once inst =
    if inst.resident = 0 then begin
      (* Float hygiene: releases are interleaved with later reservations,
         so [reserved] can drain to a tiny nonzero residue instead of
         exactly 0. Snapping it when the batch empties keeps admission
         exact there - a feasible queue head must always fit into an empty
         batch. *)
      inst.f.reserved <- 0.;
      (* Event jump: with nothing resident, advance straight to the next
         arrival instead of spinning. *)
      match queue inst with
      | (next, _) :: _ when next.Trace.arrival_s > inst.f.clock ->
          inst.f.clock <- next.Trace.arrival_s
      | _ -> ()
    end;
    join_prefilled inst;
    let can_prefill =
      match queue inst with
      | (r, false) :: _ ->
          admissible inst r ~slots:(inst.config.max_batch - inst.resident)
      | _ -> false
    in
    let can_decode = inst.resident > 0 in
    let do_prefill =
      can_prefill
      && ((not can_decode)
         ||
         match inst.config.policy with
         | Prefill_priority -> true
         | Decode_fair -> not inst.last_was_prefill)
    in
    if do_prefill then begin
      inst.last_was_prefill <- true;
      let admitted = take_fresh inst in
      let batch = List.length admitted in
      let input_len =
        List.fold_left (fun acc r -> max acc r.Trace.input_len) 1 admitted
      in
      inst.unflushed_prefills <- inst.unflushed_prefills + 1;
      inst.unflushed_admitted <- inst.unflushed_admitted + batch;
      let t =
        if not (Span.enabled ()) then inst.stepper.prefill_s ~batch ~input_len
        else
          Span.with_span "serve.prefill"
            ~attrs:
              [ ("admitted", Span.Int batch);
                ("input_len", Span.Int input_len);
                ("kv_free_bytes", Span.Float (inst.free -. inst.f.reserved)) ]
            (fun () -> inst.stepper.prefill_s ~batch ~input_len)
      in
      advance inst ~batch t;
      inst.prefill_batches <- inst.prefill_batches + 1;
      let staying =
        List.fold_left
          (fun acc (r : Trace.request) ->
            inst.work_tokens <-
              inst.work_tokens - r.Trace.input_len - min 1 r.Trace.output_len;
            let entry =
              {
                req = r;
                prefilled = false;
                first_token_s = inst.f.clock;
                produced = 1;
                context = r.Trace.input_len + 1;
              }
            in
            if r.Trace.output_len <= 1 then begin
              finish inst entry;
              acc
            end
            else entry :: acc)
          [] admitted
      in
      admit inst (List.rev staying);
      note_peak inst
    end
    else if can_decode then begin
      inst.last_was_prefill <- false;
      let batch = inst.resident in
      let context = inst.resident_context / batch in
      inst.unflushed_decodes <- inst.unflushed_decodes + 1;
      let t =
        if not (Span.enabled ()) then inst.stepper.decode_s ~batch ~context
        else
          Span.with_span "serve.decode"
            ~attrs:
              [ ("batch", Span.Int batch);
                ("context", Span.Int context);
                ("kv_free_bytes", Span.Float (inst.free -. inst.f.reserved)) ]
            (fun () -> inst.stepper.decode_s ~batch ~context)
      in
      advance inst ~batch t;
      inst.decode_steps <- inst.decode_steps + 1;
      inst.work_tokens <- inst.work_tokens - batch;
      let finished = decode_tokens inst 0 inst.active in
      inst.resident_context <- inst.resident_context + batch;
      note_peak inst;
      (* The resident list is rebuilt only when a request leaves it. *)
      if finished > 0 then retire inst
    end
    else begin
      (* Nothing resident and the queue head has not arrived; unreachable
         given the event jump above, but advance defensively rather than
         spin. *)
      match queue inst with
      | (next, _) :: _ ->
          inst.f.clock <- Float.max inst.f.clock next.Trace.arrival_s
      | [] -> ()
    end

  let step inst =
    step_once inst;
    flush inst

  let run_until inst horizon =
    while (not (idle inst)) && inst.f.clock < horizon do
      step_once inst
    done;
    flush inst

  let drain inst =
    while not (idle inst) do
      step_once inst
    done;
    flush inst

  let stats inst =
    let outcomes = List.rev inst.outcomes in
    (* The counter, not the list: with sinks installed the list is empty
       by design; without sinks the two are equal. *)
    let generated_tokens = inst.generated in
    (* Throughput over the span the server was actually serving: the clock
       starts at 0 but the first request may arrive arbitrarily late, and
       that idle lead-in says nothing about the hardware. *)
    let serving_span = inst.f.clock -. inst.f.first_arrival in
    let throughput =
      if serving_span > 0. && Float.is_finite serving_span then
        float_of_int generated_tokens /. serving_span
      else 0.
    in
    let ttfts = List.map (fun o -> o.ttft_s) outcomes in
    let ttfts = if ttfts = [] then [ 0. ] else ttfts in
    let tbts =
      List.filter_map
        (fun o -> if o.tbt_s > 0. then Some o.tbt_s else None)
        outcomes
    in
    let tbts = if tbts = [] then [ 0. ] else tbts in
    let mean_context =
      if inst.submitted = 0 then 1
      else
        max 1
          (int_of_float
             (float_of_int inst.context_sum /. float_of_int inst.submitted))
    in
    let kv_limited_batch =
      (* The informational mean-context batch bound, inlined from
         [kv_capacity_batch] against the instance's own free-HBM figure. *)
      let per_request = inst.kv_tok *. float_of_int mean_context in
      if inst.free <= 0. then 0
      else min inst.config.max_batch (int_of_float (inst.free /. per_request))
    in
    {
      outcomes;
      rejected = List.rev inst.rejected_rev;
      makespan_s = inst.f.clock;
      generated_tokens;
      produced_tokens = inst.produced_tokens;
      throughput_tokens_per_s = throughput;
      mean_batch_occupancy =
        (if inst.f.busy_time > 0. then inst.f.busy_weighted /. inst.f.busy_time
         else 0.);
      busy_s = inst.f.busy_time;
      p50_ttft_s = Stats.percentile 50. ttfts;
      p95_ttft_s = Stats.percentile 95. ttfts;
      p50_tbt_s = Stats.percentile 50. tbts;
      p95_tbt_s = Stats.percentile 95. tbts;
      kv_limited_batch;
      prefill_batches = inst.prefill_batches;
      decode_steps = inst.decode_steps;
      peak_hbm_bytes = inst.f.peak;
      hbm_capacity_bytes = inst.capacity;
    }
end

let by_arrival (a : Trace.request) (b : Trace.request) =
  compare a.Trace.arrival_s b.Trace.arrival_s

let run_sim ~config ~calib dev model requests =
  if requests = [] then invalid_arg "Simulator.run: empty trace";
  let inst = Instance.create ?calib ~config dev model in
  List.iter (Instance.submit inst) (List.stable_sort by_arrival requests);
  Instance.drain inst;
  Instance.stats inst

let run ?(config = default_config) ?calib dev model requests =
  if not (Span.enabled ()) then run_sim ~config ~calib dev model requests
  else
    Span.with_span "serve.run"
      ~attrs:
        [ ("requests", Span.Int (List.length requests));
          ("tp", Span.Int config.tp);
          ("max_batch", Span.Int config.max_batch);
          ("policy", Span.Str (policy_to_string config.policy));
          ("engine", Span.Str (engine_to_string config.engine)) ]
      (fun () ->
        let s = run_sim ~config ~calib dev model requests in
        Span.add_attr "generated_tokens" (Span.Int s.generated_tokens);
        Span.add_attr "makespan_s" (Span.Float s.makespan_s);
        s)

let slo_attainment stats ~ttft_s ~tbt_s =
  if ttft_s <= 0. || tbt_s <= 0. then
    invalid_arg "Simulator.slo_attainment: objectives must be positive";
  match stats.outcomes with
  | [] ->
      (* Zero requests, zero violations: report full attainment rather
         than leaking 0/0 = nan into downstream arithmetic. *)
      1.
  | outcomes ->
      let ok o =
        o.ttft_s <= ttft_s
        && (o.request.Trace.output_len <= 1 || o.tbt_s <= tbt_s)
      in
      let met = List.length (List.filter ok outcomes) in
      float_of_int met /. float_of_int (List.length outcomes)

let pp_stats ppf s =
  Format.fprintf ppf
    "%d requests%s, %d tokens in %.1f s (%.0f tok/s); %d prefill batches + \
     %d decode steps; batch occ %.1f (cap %d); peak HBM %.1f/%.1f GiB; TTFT \
     p50/p95 %.0f/%.0f ms; TBT p50/p95 %.1f/%.1f ms"
    (List.length s.outcomes)
    (match List.length s.rejected with
    | 0 -> ""
    | n -> Printf.sprintf " (+%d rejected: KV can never fit)" n)
    s.generated_tokens s.makespan_s s.throughput_tokens_per_s s.prefill_batches
    s.decode_steps s.mean_batch_occupancy s.kv_limited_batch
    (s.peak_hbm_bytes /. (1024. ** 3.))
    (s.hbm_capacity_bytes /. (1024. ** 3.))
    (1e3 *. s.p50_ttft_s) (1e3 *. s.p95_ttft_s) (1e3 *. s.p50_tbt_s)
    (1e3 *. s.p95_tbt_s)
