open Core
open Helpers

let sweep = Space.oct2022
let model = Model.llama3_8b
let feasible d = Design.compliant Regime.acr_2022 d && Design.manufacturable d
let objective d = d.Design.tbt_s

let center =
  { Space.systolic_dim = 16; lanes = 2; l1 = 256.; l2 = 48.; memory_bw = 2.4;
    device_bw = 600.; clock_mhz = Space.default_clock_mhz }

let t_neighbors () =
  let ns = Search.neighbors sweep center in
  (* Interior point on 5 swept dimensions (device_bw has one value):
     dims 16 has one neighbor (32), lanes 2 has two, l1 256 two, l2 48 two,
     membw 2.4 two, devbw none = 9. *)
  Alcotest.(check int) "neighbor count" 9 (List.length ns);
  Alcotest.(check bool) "one-step moves" true
    (List.for_all
       (fun (n : Space.params) ->
         let diffs =
           List.length
             (List.filter Fun.id
                [
                  n.Space.systolic_dim <> center.Space.systolic_dim;
                  n.Space.lanes <> center.Space.lanes;
                  n.Space.l1 <> center.Space.l1;
                  n.Space.l2 <> center.Space.l2;
                  n.Space.memory_bw <> center.Space.memory_bw;
                  n.Space.device_bw <> center.Space.device_bw;
                ])
         in
         diffs = 1)
       ns)

let t_neighbors_at_edge () =
  let corner =
    { Space.systolic_dim = 16; lanes = 1; l1 = 192.; l2 = 32.; memory_bw = 2.;
      device_bw = 600.; clock_mhz = Space.default_clock_mhz }
  in
  let ns = Search.neighbors sweep corner in
  (* Every dimension at its low end: one neighbor each for the five
     multi-valued dimensions. *)
  Alcotest.(check int) "edge neighbors" 5 (List.length ns)

let t_local_search_improves () =
  match
    Search.local_search ~sweep ~tpp_target:4800. ~model ~objective ~feasible
      center
  with
  | None -> Alcotest.fail "center is feasible"
  | Some o ->
      Alcotest.(check bool) "made progress" true (o.Search.steps > 0);
      Alcotest.(check bool) "local optimum" true
        (List.for_all
           (fun p ->
             let d = Design.evaluate ~model p (Space.build ~tpp_target:4800. p) in
             (not (feasible d)) || objective d >= objective o.Search.best)
           (Search.neighbors sweep o.Search.best.Design.params))

let t_optimize_matches_sweep () =
  match
    Search.optimize ~sweep ~tpp_target:4800. ~model ~objective ~feasible ()
  with
  | None -> Alcotest.fail "optimize found nothing"
  | Some o ->
      let designs = Design.evaluate_sweep ~model ~tpp_target:4800. sweep in
      let global =
        Optimum.best_exn ~filters:[ feasible ] Optimum.Tbt designs
      in
      (* Hill climbing on this near-separable objective should land within
         a few percent of the global optimum with far fewer evaluations. *)
      check_within "near-global" ~tolerance:0.05 global.Design.tbt_s
        (objective o.Search.best);
      Alcotest.(check bool) "cheaper than the sweep" true
        (o.Search.evaluated < List.length designs)

(* Adjacent swept values (the hill-climbing move set). *)

let t_adjacent () =
  let vs = [ 3; 1; 2; 2; 4 ] in
  (* Unsorted input with a duplicate: [adjacent] sorts and dedups first. *)
  Alcotest.(check (list int)) "interior" [ 1; 3 ] (Search.adjacent vs 2);
  Alcotest.(check (list int)) "low end" [ 2 ] (Search.adjacent vs 1);
  Alcotest.(check (list int)) "high end" [ 3 ] (Search.adjacent vs 4);
  Alcotest.(check (list int)) "absent current" [] (Search.adjacent vs 99);
  Alcotest.(check (list int)) "singleton" [] (Search.adjacent [ 7 ] 7);
  Alcotest.(check (list int)) "empty" [] (Search.adjacent [] 7)

let t_adjacent_float () =
  let cmp = Float.compare in
  (* Values equal under the comparator must dedup: 0. and -0. are one
     swept value, so 1. sees a single low neighbor. *)
  Alcotest.(check (list (float 0.))) "equal-after-sort dedup" [ 0.; 2. ]
    (Search.adjacent ~cmp [ 2.; 0.; -0.; 1. ] 1.);
  Alcotest.(check (list (float 0.))) "-0. finds 0." [ 1. ]
    (Search.adjacent ~cmp [ 0.; 1.; 2. ] (-0.));
  (* Under [Float.compare], nan is a findable (smallest) value; under the
     polymorphic [=] it could never match itself. *)
  Alcotest.(check (list (float 0.))) "nan findable" [ 1. ]
    (Search.adjacent ~cmp [ 1.; Float.nan; 4. ] Float.nan);
  Alcotest.(check (list int)) "default compare unchanged" [ 1; 3 ]
    (Search.adjacent [ 3; 1; 2 ] 2)

(* The parallel pool. *)

let pool_args =
  QCheck.(
    triple (int_range 1 8) (int_range 1 50)
      (list_of_size Gen.(int_range 0 120) small_int))

let prop_parallel_map =
  qcheck "Parallel.map == List.map for any jobs/chunk" pool_args
    (fun (jobs, chunk, xs) ->
      let f x = (x * x) + 1 in
      Parallel.map ~jobs ~chunk f xs = List.map f xs)

let prop_parallel_filter_map =
  qcheck "Parallel.filter_map == List.filter_map" pool_args
    (fun (jobs, chunk, xs) ->
      let f x = if x mod 3 = 0 then None else Some (x - 7) in
      Parallel.filter_map ~jobs ~chunk f xs = List.filter_map f xs)

let t_parallel_arrays () =
  let xs = Array.init 97 Fun.id in
  let keep_even x = if x mod 2 = 0 then Some (-x) else None in
  Alcotest.(check bool) "map_array" true
    (Parallel.map_array ~jobs:4 ~chunk:5 string_of_int xs
    = Array.map string_of_int xs);
  Alcotest.(check bool) "filter_map_array" true
    (Parallel.filter_map_array ~jobs:4 ~chunk:5 keep_even xs
    = Array.of_list (List.filter_map keep_even (Array.to_list xs)))

let prop_map_reduce =
  qcheck "Parallel.map_reduce == sequential fold" pool_args
    (fun (jobs, chunk, xs) ->
      let f x = (x * 2) + 1 in
      Parallel.map_reduce ~jobs ~chunk ~map:f ~combine:( + ) 0 xs
      = List.fold_left (fun acc x -> acc + f x) 0 xs)

let t_map_reduce_order () =
  (* Concatenation is associative but not commutative: the fold must
     combine per-chunk partials in chunk order, whatever domain finished
     first. Also exercises the auto-tuned chunk (no ~chunk). *)
  let xs = Array.init 53 string_of_int in
  let expected = String.concat "" (Array.to_list xs) in
  Alcotest.(check string) "explicit chunk" expected
    (Parallel.map_reduce_array ~jobs:4 ~chunk:5 ~map:Fun.id ~combine:( ^ ) ""
       xs);
  Alcotest.(check string) "auto-tuned chunk" expected
    (Parallel.map_reduce_array ~jobs:4 ~map:Fun.id ~combine:( ^ ) "" xs);
  Alcotest.(check string) "empty input" "seed"
    (Parallel.map_reduce_array ~jobs:4 ~map:Fun.id ~combine:( ^ ) "seed" [||])

let t_parallel_exception () =
  match
    Parallel.map ~jobs:4 ~chunk:1
      (fun x -> if x = 5 then invalid_arg "boom" else x)
      [ 1; 2; 3; 4; 5; 6 ]
  with
  | exception Invalid_argument msg ->
      Alcotest.(check string) "original exception" "boom" msg
  | _ -> Alcotest.fail "expected Invalid_argument"

let t_parallel_jobs_validation () =
  check_raises_invalid "jobs 0" (fun () ->
      ignore (Parallel.map ~jobs:0 Fun.id [ 1 ]));
  check_raises_invalid "with_jobs 0" (fun () ->
      Parallel.with_jobs 0 (fun () -> ()))

(* The evaluation engine: parallel must be bit-identical to sequential,
   and the cache must answer repeats without re-evaluating. *)

let t_sweep_parallel_identical () =
  let run jobs =
    Parallel.with_jobs jobs (fun () ->
        Eval.sweep ~cache:false ~model ~tpp_target:2400. Space.oct2023)
  in
  let seq = run 1 and par = run 4 in
  let ground = Design.evaluate_sweep ~model ~tpp_target:2400. Space.oct2023 in
  Alcotest.(check bool) "4 jobs == 1 job (bit-identical)" true (par = seq);
  Alcotest.(check bool) "engine == Design.evaluate_sweep" true (seq = ground)

let t_eval_cache () =
  Eval.clear ();
  let s0 = Eval.stats () in
  let a = Eval.sweep ~model ~tpp_target:4800. sweep in
  let s1 = Eval.stats () in
  let b = Eval.sweep ~model ~tpp_target:4800. sweep in
  let s2 = Eval.stats () in
  Alcotest.(check bool) "repeat is identical" true (a = b);
  Alcotest.(check int) "cold pass evaluates every point" (Space.size sweep)
    (s1.Eval.evaluations - s0.Eval.evaluations);
  Alcotest.(check int) "warm pass all hits" (Space.size sweep)
    (s2.Eval.hits - s1.Eval.hits);
  Alcotest.(check int) "warm pass evaluates nothing" 0
    (s2.Eval.evaluations - s1.Eval.evaluations);
  (* A different evaluation context must not collide with cached entries. *)
  let c = Eval.sweep ~model ~tpp_target:2400. sweep in
  Alcotest.(check bool) "different target, different designs" true (a <> c)

let t_optimize_dedups_starts () =
  (* On a near-singleton sweep the hi and mid corners coincide; the
     duplicate start must not rerun the climb and recount its evaluations
     (the historical bug: each duplicate restart re-counted the shared
     start point in [outcome.evaluated]). *)
  let sweep2 =
    { Space.systolic_dims = [ 16 ]; lanes_per_core = [ 2 ];
      l1_kb = [ 192.; 256. ]; l2_mb = [ 32.; 48. ]; memory_bw_tb_s = [ 2. ];
      device_bw_gb_s = [ 600. ]; clock_mhz = [ Space.default_clock_mhz ] }
  in
  let start l1 l2 =
    { Space.systolic_dim = 16; lanes = 2; l1; l2; memory_bw = 2.;
      device_bw = 600.; clock_mhz = Space.default_clock_mhz }
  in
  (* corners = lo, hi, mid; mid picks the upper of two values on both
     multi-valued axes, so it equals hi: two distinct starts remain. *)
  let unique_starts = [ start 192. 32.; start 256. 48. ] in
  let expected =
    List.fold_left
      (fun acc s ->
        match
          Search.local_search ~sweep:sweep2 ~tpp_target:4800. ~model ~objective
            ~feasible s
        with
        | Some o -> acc + o.Search.evaluated
        | None -> acc)
      0 unique_starts
  in
  match
    Search.optimize ~sweep:sweep2 ~tpp_target:4800. ~model ~objective ~feasible
      ()
  with
  | None -> Alcotest.fail "optimize found nothing"
  | Some o ->
      Alcotest.(check int) "evaluations counted once per unique start"
        expected o.Search.evaluated

let t_infeasible_everywhere () =
  let impossible _ = false in
  Alcotest.(check bool) "no outcome" true
    (Search.local_search ~sweep ~tpp_target:4800. ~model ~objective
       ~feasible:impossible center
    = None)

let suite =
  [
    test "lattice neighbors" t_neighbors;
    test "neighbors at the edge" t_neighbors_at_edge;
    test "local search improves to a local optimum" t_local_search_improves;
    test "multi-start matches the sweep optimum" t_optimize_matches_sweep;
    test "duplicate starts deduplicated and counted once"
      t_optimize_dedups_starts;
    test "infeasible everywhere" t_infeasible_everywhere;
    test "adjacent swept values" t_adjacent;
    test "adjacent under Float.compare" t_adjacent_float;
    prop_parallel_map;
    prop_parallel_filter_map;
    prop_map_reduce;
    test "map_reduce combines in chunk order" t_map_reduce_order;
    test "parallel array variants" t_parallel_arrays;
    test "parallel exception propagation" t_parallel_exception;
    test "parallel job-count validation" t_parallel_jobs_validation;
    test "parallel sweep bit-identical to sequential" t_sweep_parallel_identical;
    test "evaluation cache" t_eval_cache;
  ]
