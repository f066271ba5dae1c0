module Device = Acs_hardware.Device
module Model = Acs_workload.Model
module Request = Acs_workload.Request
module Layer = Acs_workload.Layer

type result = {
  device : Device.t;
  model : Model.t;
  request : Request.t;
  tp : int;
  ttft_s : float;
  tbt_s : float;
  prefill : Op_model.breakdown;
  decode : Op_model.breakdown;
}

let phase_breakdown ~calib ~tp ~request device model phase =
  let ops = Layer.ops model request ~tp phase in
  List.fold_left
    (fun acc op -> Op_model.add acc (Op_model.latency ~calib device ~tp op))
    Op_model.zero ops

let op_latencies ?(calib = Calib.default) ?(tp = 4) ?(request = Request.default)
    device model phase =
  let ops = Layer.ops model request ~tp phase in
  List.map (fun op -> (op, Op_model.latency ~calib device ~tp op)) ops

module Span = Acs_util.Trace
module Metrics = Acs_util.Metrics

let dominant_bound (b : Op_model.breakdown) =
  if b.Op_model.comm_s >= b.Op_model.compute_s
     && b.Op_model.comm_s >= b.Op_model.memory_s
  then "communication"
  else if b.Op_model.compute_s >= b.Op_model.memory_s then "compute"
  else "memory"

let phase_histogram phase =
  Metrics.histogram "engine_phase_seconds"
    ~labels:[ ("phase", Layer.phase_to_string phase) ]

(* Instrumented per-phase evaluation: one span per phase carrying the
   modeled flops/bytes/bound, plus a per-phase histogram of the modeled
   layer latency. Everything is behind one [Span.enabled] branch so the
   disabled cost stays branch-only (the speed bench's [trace] group holds
   this to account). *)
let observed_phase_breakdown ~calib ~tp ~request device model phase =
  if not (Span.enabled ()) then
    phase_breakdown ~calib ~tp ~request device model phase
  else
    Span.with_span
      ("engine." ^ Layer.phase_to_string phase)
      ~attrs:[ ("model", Span.Str model.Model.name); ("tp", Span.Int tp) ]
      (fun () ->
        let b = phase_breakdown ~calib ~tp ~request device model phase in
        let flops = Layer.total_flops model request ~tp phase in
        let bytes =
          List.fold_left
            (fun acc op -> acc +. Op_model.dram_traffic_bytes ~calib device op)
             0.
            (Layer.ops model request ~tp phase)
        in
        Span.add_attr "flops" (Span.Float flops);
        Span.add_attr "dram_bytes" (Span.Float bytes);
        Span.add_attr "bound" (Span.Str (dominant_bound b));
        Span.add_attr "layer_s" (Span.Float b.Op_model.total_s);
        Metrics.observe (phase_histogram phase) b.Op_model.total_s;
        b)

let simulate ?(calib = Calib.default) ?(tp = 4) ?(request = Request.default)
    device model =
  let prefill =
    observed_phase_breakdown ~calib ~tp ~request device model Layer.Prefill
  in
  let decode =
    observed_phase_breakdown ~calib ~tp ~request device model Layer.Decode
  in
  {
    device;
    model;
    request;
    tp;
    ttft_s = prefill.Op_model.total_s;
    tbt_s = decode.Op_model.total_s;
    prefill;
    decode;
  }

(* --- the compiled fast path ---

   [compile] runs [Layer.ops] once per evaluation context;
   [simulate_compiled] evaluates a device against the flat arrays. Every
   per-device quantity the legacy path recomputes per op (effective DRAM
   bandwidth, peak MAC rate, the L2 tile, the vector-unit denominator, the
   per-device matmul-efficiency terms, the all-reduce ring constants) is
   hoisted to one computation per call; since each is the same float the
   per-op path would produce, the summed breakdowns are bit-identical to
   [simulate]'s (the property suite checks every field). *)

module Compiled = Acs_workload.Compiled

let compile ?tp ?request model =
  Compiled.compile ?tp ?request ~bytes_per_value:Op_model.bytes_per_value model

(* Closed ([leak] is a parameter) so that [@inline] applies and the op
   loop below passes and gets unboxed floats; a local closure over
   [leak] is a real call that boxes two arguments and its result. *)
let[@inline] overlapped ~leak compute_s memory_s =
  Float.max compute_s memory_s +. (leak *. Float.min compute_s memory_s)

let compiled_phase_breakdown ~calib ~tp device (ph : Compiled.phase) =
  let peak_macs =
    float_of_int (Device.total_macs_per_cycle device)
    *. device.Device.frequency_hz
  in
  let bw = Op_model.effective_dram_bandwidth ~calib device in
  let tile = sqrt (device.Device.l2_bytes /. calib.Calib.l2_reuse_bytes) in
  let menv = Op_model.matmul_env ~calib device in
  let vector_denom =
    Device.peak_vector_flops device *. calib.Calib.vector_efficiency
  in
  let overhead_s = calib.Calib.kernel_overhead_s in
  let leak = calib.Calib.overlap_leak in
  (* Ring all-reduce constants; [steps_over_n] is 0 at tp = 1 (no
     communication), matching the legacy guard. *)
  let n = float_of_int tp in
  let steps = 2. *. (n -. 1.) in
  let steps_over_n = steps /. n in
  let per_direction =
    Acs_hardware.Interconnect.total_bandwidth device.Device.interconnect /. 2.
  in
  let ar_latency_s = steps *. calib.Calib.hop_latency_s in
  let compute = ref 0.
  and memory = ref 0.
  and comm = ref 0.
  and overhead = ref 0.
  and total = ref 0.
  and dram_bytes = ref 0. in
  (* A [for] loop, not [Array.iter]: refs captured by a closure live in
     the heap, and every update boxes a fresh float. Here they stay
     unboxed, and a warm call allocates only its result. *)
  let ops = ph.Compiled.ops in
  for i = 0 to Array.length ops - 1 do
    match ops.(i) with
    | Compiled.Matmul mm ->
        let compute_s =
          mm.Compiled.macs /. peak_macs
          /. Op_model.matmul_efficiency_in menv ~m:mm.Compiled.m
               ~n:mm.Compiled.n
        in
        let bytes =
          Float.max mm.Compiled.compulsory_bytes
            ((mm.Compiled.mac_bytes /. tile) +. mm.Compiled.out_bytes)
        in
        let ramp_bytes =
          if mm.Compiled.weights_streamed then calib.Calib.dram_ramp_bytes
          else 0.
        in
        let memory_s = (bytes +. ramp_bytes) /. bw in
        compute := !compute +. compute_s;
        memory := !memory +. memory_s;
        overhead := !overhead +. overhead_s;
        total := !total +. (overlapped ~leak compute_s memory_s +. overhead_s);
        dram_bytes := !dram_bytes +. bytes
    | Compiled.Elementwise ew ->
        let compute_s = ew.flops /. vector_denom in
        let memory_s = ew.bytes /. bw in
        compute := !compute +. compute_s;
        memory := !memory +. memory_s;
        overhead := !overhead +. overhead_s;
        total := !total +. (overlapped ~leak compute_s memory_s +. overhead_s);
        dram_bytes := !dram_bytes +. ew.bytes
    | Compiled.All_reduce c ->
        let comm_s =
          if tp <= 1 then 0.
          else (steps_over_n *. c.bytes /. per_direction) +. ar_latency_s
        in
        comm := !comm +. comm_s;
        overhead := !overhead +. overhead_s;
        total := !total +. (comm_s +. overhead_s)
  done;
  ( {
      Op_model.compute_s = !compute;
      memory_s = !memory;
      comm_s = !comm;
      overhead_s = !overhead;
      total_s = !total;
    },
    !dram_bytes )

let observed_compiled_breakdown ~calib (c : Compiled.t) device phase =
  let ph =
    match phase with
    | Layer.Prefill -> c.Compiled.prefill
    | Layer.Decode -> c.Compiled.decode
  in
  if not (Span.enabled ()) then
    fst (compiled_phase_breakdown ~calib ~tp:c.Compiled.tp device ph)
  else
    Span.with_span
      ("engine." ^ Layer.phase_to_string phase)
      ~attrs:
        [
          ("model", Span.Str c.Compiled.model.Model.name);
          ("tp", Span.Int c.Compiled.tp);
        ]
      (fun () ->
        let b, bytes =
          compiled_phase_breakdown ~calib ~tp:c.Compiled.tp device ph
        in
        Span.add_attr "flops" (Span.Float ph.Compiled.flops);
        Span.add_attr "dram_bytes" (Span.Float bytes);
        Span.add_attr "bound" (Span.Str (dominant_bound b));
        Span.add_attr "layer_s" (Span.Float b.Op_model.total_s);
        Metrics.observe (phase_histogram phase) b.Op_model.total_s;
        b)

let simulate_compiled ?(calib = Calib.default) (c : Compiled.t) device =
  let prefill = observed_compiled_breakdown ~calib c device Layer.Prefill in
  let decode = observed_compiled_breakdown ~calib c device Layer.Decode in
  {
    device;
    model = c.Compiled.model;
    request = c.Compiled.request;
    tp = c.Compiled.tp;
    ttft_s = prefill.Op_model.total_s;
    tbt_s = decode.Op_model.total_s;
    prefill;
    decode;
  }

let layers r = float_of_int r.model.Model.num_layers
let model_ttft_s r = r.ttft_s *. layers r
let model_tbt_s r = r.tbt_s *. layers r

let end_to_end_s r =
  let output = max 1 r.request.Request.output_len in
  model_ttft_s r +. (model_tbt_s r *. float_of_int (output - 1))

let throughput_tokens_per_s r =
  let output = float_of_int (max 1 r.request.Request.output_len) in
  float_of_int r.request.Request.batch *. output /. end_to_end_s r

let mfu phase_flops latency r =
  let cluster_peak =
    Device.peak_tensor_flops r.device *. float_of_int r.tp
  in
  phase_flops /. latency /. cluster_peak

let mfu_prefill r =
  let flops =
    Layer.total_flops r.model r.request ~tp:r.tp Layer.Prefill
    *. float_of_int r.tp
  in
  mfu flops r.ttft_s r

let mfu_decode r =
  let flops =
    Layer.total_flops r.model r.request ~tp:r.tp Layer.Decode
    *. float_of_int r.tp
  in
  mfu flops r.tbt_s r

let pp_result ppf r =
  Format.fprintf ppf
    "%s on %s (tp=%d, %a): TTFT %.4g ms, TBT %.4g ms/layer (MFU %.1f%% / \
     %.1f%%)"
    r.model.Model.name r.device.Device.name r.tp Request.pp r.request
    (Acs_util.Units.to_ms r.ttft_s)
    (Acs_util.Units.to_ms r.tbt_s)
    (100. *. mfu_prefill r)
    (100. *. mfu_decode r)
