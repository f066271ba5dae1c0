(* Measurement primitives shared by the workloads: clocks, order
   statistics, process memory, registry reads, and the self-time
   accounting of a recorded trace. Everything here observes the program
   from outside; nothing is instrumented inside the library. *)

open Core

let now = Acs_experiments.Common.wall_s

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* --- order statistics --- *)

let sorted xs = List.sort Float.compare xs

(* Linear interpolation between closest ranks (q in [0, 1]). *)
let quantile xs q =
  match sorted xs with
  | [] -> invalid_arg "Measure.quantile: no samples"
  | s ->
      let a = Array.of_list s in
      let pos = q *. float_of_int (Array.length a - 1) in
      let lo = int_of_float pos in
      let hi = min (Array.length a - 1) (lo + 1) in
      a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

(* The highest order statistic with at least ten samples, and at least
   5% of them, above it: the highest percentile with ten samples beyond
   it, but no higher than p95. Higher up, a dozen operations caught by a
   host stall set the value: over ten seeds the p99.5 of ~2,200 searches
   ranged from 22 to 36 ms while their median stayed within 11-13 ms.
   Below 21 samples no percentile above the median has ten samples beyond
   it, and the median is reported instead. Returns (value, percentile). *)
let tail xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n < 21 then (median xs, 50.)
  else
    let above = max 10 (n / 20) in
    (a.(n - 1 - above), 100. *. float_of_int (n - above) /. float_of_int n)

(* Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so
   the spreads the ledger reports match the ones the acceptance checks
   compute. Needs at least two samples. *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n < 2 then (a.(0), a.(0), a.(0))
  else
    let cut k =
      let m = float_of_int (n + 1) *. float_of_int k /. 4. in
      let j = max 1 (min (n - 1) (int_of_float m)) in
      let delta = m -. float_of_int j in
      a.(j - 1) +. (delta *. (a.(j) -. a.(j - 1)))
    in
    (cut 1, cut 2, cut 3)

(* --- process state --- *)

(* VmHWM, the resident-set high-water mark, in MB (Linux /proc). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %d" (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> failwith "ledger: no VmHWM in /proc/self/status"
      in
      scan ())

let cores () = Domain.recommended_domain_count ()

(* The pool size each workload is pinned to. *)
let jobs () = min 4 (cores ())

(* Minor-heap words allocated by [f], all domains included: OCaml folds a
   domain's allocation into the global count at collections and when the
   domain ends, so the caller runs [f] single-domain or joins its domains
   inside [f]. *)
let minor_words f =
  Gc.minor ();
  let w0 = (Gc.quick_stat ()).Gc.minor_words in
  let r = f () in
  Gc.minor ();
  (r, (Gc.quick_stat ()).Gc.minor_words -. w0)

(* --- registry reads --- *)

let counter name = Metrics.counter_value (Metrics.counter name)
let hist_sum name = Metrics.hist_sum (Metrics.histogram name)

(* Sum of a gauge over every label set (e.g. parallel_busy_seconds, one
   gauge per domain). *)
let gauge_sum name =
  Json.member "gauges" (Metrics.export ())
  |> Json.to_list
  |> List.fold_left
       (fun acc g ->
         if Json.to_str (Json.member "name" g) = name then
           acc +. Json.to_float (Json.member "value" g)
         else acc)
       0.

(* --- fingerprints (for digests and bit-identity checks) --- *)

let add_float buf x = Buffer.add_int64_le buf (Int64.bits_of_float x)
let add_int buf i = Buffer.add_int64_le buf (Int64.of_int i)

let add_design buf (d : Design.t) =
  let p = d.Design.params in
  add_int buf p.Space.systolic_dim;
  add_int buf p.Space.lanes;
  List.iter (add_float buf)
    [ p.Space.l1; p.Space.l2; p.Space.memory_bw; p.Space.device_bw;
      p.Space.clock_mhz; d.Design.area_mm2; d.Design.die_cost_usd;
      d.Design.ttft_s; d.Design.tbt_s ];
  Buffer.add_char buf (if Design.manufacturable d then 'm' else '-');
  Buffer.add_char buf (if Design.compliant_2023 d then 'c' else '-')

let digest_of fill =
  let buf = Buffer.create 4096 in
  fill buf;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* --- trace accounting ---

   A layer's self time is its spans' durations minus the part covered by
   their child spans on the same domain. The tracer records a span when it
   closes, and spans nest on each domain (one thread per domain records
   them), so a span's children are recorded before it, one level deeper.
   One pass in recorded order, keeping the closed children's time per
   depth, gives every self time without sorting or copying the spans: a
   traced fleet pass records about a million of them. *)

let layer_of_span name =
  match name with
  | "eval.run" | "eval.point" -> "eval"
  | "parallel.map" | "parallel.worker" -> "parallel"
  | "serve.run" | "serve.prefill" | "serve.decode" -> "serve"
  | "fleet.run" | "ledger.stream" -> "fleet"
  | "ledger.round" -> "sweep"
  | "ledger.search" -> "adaptive"
  | "ledger.trace_gen" -> "trace"
  | n when String.starts_with ~prefix:"engine." n -> "engine"
  | _ -> "other"

type accounting = {
  self : (string * float) list;  (** layer -> self seconds *)
  covered : float;  (** seconds covered by root spans *)
}

(* What the ledger keeps of a recorded trace. *)
type summary = {
  domains : (int * accounting) list;  (** per domain *)
  engine_calls : int;  (** engine.* spans, every domain *)
  worker_s : float;  (** parallel.worker time, every domain *)
  spans : int;
}

type domain_acc = {
  mutable pending : int array;  (** closed children's ns, by depth *)
  self_ns : (string, int) Hashtbl.t;
  mutable covered_ns : int;
}

let summarize (spans : Tracing.span list) =
  let doms = Hashtbl.create 4 in
  let calls = ref 0 and worker_ns = ref 0 and count = ref 0 in
  List.iter
    (fun (s : Tracing.span) ->
      let a =
        match Hashtbl.find_opt doms s.Tracing.domain with
        | Some a -> a
        | None ->
            let a = { pending = Array.make 16 0; self_ns = Hashtbl.create 16; covered_ns = 0 } in
            Hashtbl.add doms s.Tracing.domain a;
            a
      in
      let d = s.Tracing.depth and dur = Int64.to_int s.Tracing.dur_ns in
      if d + 1 >= Array.length a.pending then
        a.pending <- Array.append a.pending (Array.make (d + 2) 0);
      let layer = layer_of_span s.Tracing.name in
      let prev = Option.value ~default:0 (Hashtbl.find_opt a.self_ns layer) in
      Hashtbl.replace a.self_ns layer (prev + max 0 (dur - a.pending.(d + 1)));
      a.pending.(d + 1) <- 0;
      a.pending.(d) <- a.pending.(d) + dur;
      if d = 0 then a.covered_ns <- a.covered_ns + dur;
      if layer = "engine" then incr calls;
      if s.Tracing.name = "parallel.worker" then worker_ns := !worker_ns + dur;
      incr count)
    spans;
  let s ns = float_of_int ns /. 1e9 in
  {
    domains =
      Hashtbl.fold
        (fun dom a acc ->
          ( dom,
            {
              self = Hashtbl.fold (fun k v acc -> (k, s v) :: acc) a.self_ns [];
              covered = s a.covered_ns;
            } )
          :: acc)
        doms [];
    engine_calls = !calls;
    worker_s = s !worker_ns;
    spans = !count;
  }

let self_of acc layer = Option.value ~default:0. (List.assoc_opt layer acc.self)

(* A layer's self time summed over the domains [keep] selects. *)
let self_over ?(keep = fun _ -> true) sum layer =
  List.fold_left
    (fun acc (dom, a) -> if keep dom then acc +. self_of a layer else acc)
    0. sum.domains

(* Record [f] with tracing on into a ring of [capacity] spans; returns
   the result, the wall time, the summary of the spans and how many the
   ring dropped. The ring goes back to the library's default size before
   the spans are summarized, so its array is freed first. *)
let traced ~capacity f =
  Tracing.set_capacity capacity;
  let r, wall = timed (fun () -> Tracing.with_tracing true f) in
  let spans = Tracing.spans () in
  let dropped = Tracing.dropped () in
  Tracing.set_capacity 65536;
  (r, wall, summarize spans, dropped)
