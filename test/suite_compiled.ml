(* The compiled workload fast path must be *bit*-identical to the per-op
   engine: [Eval] now runs every sweep through it, and the golden CSVs
   (table4, scorecard) are byte-compared, so even a last-ulp deviation -
   e.g. from reassociating the efficiency product or hoisting a term into
   a different expression shape - would surface as a golden diff. The
   property here holds every breakdown field to exact equality over
   random devices, models, parallelism degrees and request shapes. *)

open Core
open Helpers

let bits = Int64.bits_of_float

let breakdown_eq (a : Op_model.breakdown) (b : Op_model.breakdown) =
  bits a.Op_model.compute_s = bits b.Op_model.compute_s
  && bits a.Op_model.memory_s = bits b.Op_model.memory_s
  && bits a.Op_model.comm_s = bits b.Op_model.comm_s
  && bits a.Op_model.overhead_s = bits b.Op_model.overhead_s
  && bits a.Op_model.total_s = bits b.Op_model.total_s

let result_eq (a : Engine.result) (b : Engine.result) =
  bits a.Engine.ttft_s = bits b.Engine.ttft_s
  && bits a.Engine.tbt_s = bits b.Engine.tbt_s
  && breakdown_eq a.Engine.prefill b.Engine.prefill
  && breakdown_eq a.Engine.decode b.Engine.decode

(* Presets whose head counts every tp in {1,2,4,8} divides (gpt2_xl's 25
   heads would make [Layer.ops] reject most of them). *)
let models =
  [ Model.gpt3_175b; Model.llama3_8b; Model.llama3_70b; Model.mixtral_8x7b ]

let ctx_gen =
  let open QCheck.Gen in
  let* model = oneofl models in
  let* tp = oneofl [ 1; 2; 4; 8 ] in
  let* batch = int_range 1 64 in
  let* input_len = int_range 1 4096 in
  let* output_len = int_range 1 2048 in
  return (model, tp, Request.make ~batch ~input_len ~output_len)

let ctx_device_arb =
  QCheck.make
    ~print:(fun ((m, tp, r), d) ->
      Printf.sprintf "%s tp=%d batch=%d in=%d out=%d on %s" m.Model.name tp
        r.Request.batch r.Request.input_len r.Request.output_len
        (Device.summary d))
    QCheck.Gen.(pair ctx_gen device_gen)

let prop_simulate_identity =
  qcheck "simulate_compiled bit-identical to simulate" ctx_device_arb
    (fun ((model, tp, request), device) ->
      let legacy = Engine.simulate ~tp ~request device model in
      let compiled =
        Engine.simulate_compiled (Engine.compile ~tp ~request model) device
      in
      result_eq legacy compiled)

let t_defaults_identity () =
  (* The compile defaults must be the simulate defaults (tp 4, the
     paper's request). *)
  let d = Presets.a100 in
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (m.Model.name ^ " under defaults") true
        (result_eq (Engine.simulate d m)
           (Engine.simulate_compiled (Engine.compile m) d)))
    models

let t_traced_identity () =
  (* The instrumented path (spans + phase histograms) must not perturb
     the numbers either. *)
  Tracing.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Tracing.set_enabled false)
    (fun () ->
      let d = Presets.a100 in
      Alcotest.(check bool)
        "traced compiled == traced legacy" true
        (result_eq
           (Engine.simulate d Model.gpt3_175b)
           (Engine.simulate_compiled (Engine.compile Model.gpt3_175b) d)))

let t_compile_validates_tp () =
  check_raises_invalid "tp 0" (fun () ->
      ignore (Engine.compile ~tp:0 Model.llama3_8b));
  check_raises_invalid "tp not dividing heads" (fun () ->
      ignore (Engine.compile ~tp:7 Model.llama3_8b))

(* Full-sweep identity through [Eval] (which evaluates via the compiled
   path) against the legacy [Design.evaluate_sweep], sequential and
   parallel, with tp/request overrides exercised. *)

let thinned =
  {
    Space.systolic_dims = [ 16; 32 ];
    lanes_per_core = [ 2; 4 ];
    l1_kb = [ 192.; 256. ];
    l2_mb = [ 32.; 48. ];
    memory_bw_tb_s = [ 2.; 2.4 ];
    device_bw_gb_s = [ 600. ];
    clock_mhz = [ Space.default_clock_mhz ];
  }

let t_sweep_identity () =
  let model = Model.llama3_8b in
  let request = Request.make ~batch:8 ~input_len:512 ~output_len:256 in
  let ground =
    Design.evaluate_sweep ~tp:2 ~request ~model ~tpp_target:2400. thinned
  in
  let run jobs =
    Parallel.with_jobs jobs (fun () ->
        Eval.sweep ~cache:false ~tp:2 ~request ~model ~tpp_target:2400.
          thinned)
  in
  Alcotest.(check bool)
    "1 job == legacy sweep (bit-identical)" true
    (run 1 = ground);
  Alcotest.(check bool)
    "4 jobs == legacy sweep (bit-identical)" true
    (run 4 = ground)

(* The op loop keeps its six float accumulators unboxed, so a warm call
   allocates only its result: the two breakdowns, their tuples and the
   result record (169 words). A closure over the ops array boxed a float
   on every accumulator update: 713 words per call, on each context
   below. *)
let t_compiled_allocation () =
  List.iter
    (fun name ->
      let s = Option.get (Scenario.find name) in
      let compiled =
        Engine.compile ?tp:s.Scenario.tp ?request:s.Scenario.request
          s.Scenario.model
      in
      let p =
        match s.Scenario.target with
        | Scenario.Space sweep -> List.hd (Space.enumerate sweep)
        | Scenario.Point p -> p
      in
      let device =
        Space.build ?memory_gb:s.Scenario.memory_gb
          ~tpp_target:s.Scenario.tpp_target p
      in
      ignore (Engine.simulate_compiled compiled device);
      let before = Gc.minor_words () in
      let r = Engine.simulate_compiled compiled device in
      let words = Gc.minor_words () -. before in
      ignore (Sys.opaque_identity r);
      if words > 180. then
        Alcotest.failf "%s: simulate_compiled allocated %.0f minor words" name
          words)
    [ "fig7-gpt3"; "fig6-llama3"; "fig12-gpt3" ]

let suite =
  [
    prop_simulate_identity;
    test "identity under engine defaults" t_defaults_identity;
    test "identity with tracing enabled" t_traced_identity;
    test "compile validates tp" t_compile_validates_tp;
    test "full-sweep identity, sequential and parallel" t_sweep_identity;
    test "a warm call allocates only its result" t_compiled_allocation;
  ]
