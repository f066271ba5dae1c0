open Core
open Helpers

(* The adaptive-search correctness battery.

   The load-bearing properties: with budget covering the whole sweep,
   every strategy IS the exhaustive oracle (objective bit-for-bit); with
   a tight budget it never exceeds the budget, never returns an
   infeasible design, and its rung/provenance accounting adds up; the
   roofline lower bound the pruning relies on really is a lower bound;
   and the outcome is identical whether the evaluations came cold, from
   the memo cache, or from the disk tier under any job count. *)

let fig6 = Option.get (Scenario.find "fig6-llama3")
let fig6_gpt3 = Option.get (Scenario.find "fig6-gpt3")

let feasible s d = Scenario.compliant s d && Design.manufacturable d

let oracle ?(objective = Optimum.Tbt) s =
  Optimum.best
    ~filters:[ feasible s ]
    objective (Eval.run s)

let obj_bits objective d =
  Int64.bits_of_float (Optimum.objective_value objective d)

let all_strategies = List.map snd Adaptive.strategies

(* --- oracle identity: unbounded budget degenerates to the exhaustive
   optimum, bit for bit --- *)

let t_oracle_identity s () =
  let g = Option.get (oracle s) in
  List.iter
    (fun strategy ->
      let o = Adaptive.search ~budget:(Scenario.size s) ~strategy s in
      let name = Adaptive.strategy_to_string strategy in
      match o.Adaptive.best with
      | None -> Alcotest.failf "%s: no design found at full budget" name
      | Some b ->
          Alcotest.(check int64)
            (name ^ ": objective bits equal the exhaustive optimum")
            (obj_bits Optimum.Tbt g) (obj_bits Optimum.Tbt b);
          Alcotest.(check int)
            (name ^ ": exhaustive fallback evaluates the whole sweep")
            (Scenario.size s) o.Adaptive.evaluated)
    all_strategies

(* --- budgeted accuracy: every strategy lands within 1% of the oracle on
   the paper's own (oracle-computable) space with an eighth of its
   evaluations --- *)

let t_within_one_percent () =
  List.iter
    (fun objective ->
      let g = Option.get (oracle ~objective fig6) in
      let gv = Optimum.objective_value objective g in
      List.iter
        (fun strategy ->
          let o = Adaptive.search ~budget:64 ~objective ~strategy fig6 in
          let name =
            Printf.sprintf "%s under %s"
              (Adaptive.strategy_to_string strategy)
              (match objective with
              | Optimum.Ttft -> "ttft"
              | Optimum.Tbt -> "tbt"
              | Optimum.Ttft_cost -> "ttft-cost"
              | Optimum.Tbt_cost -> "tbt-cost")
          in
          Alcotest.(check bool) (name ^ ": within budget") true
            (o.Adaptive.evaluated <= 64);
          match o.Adaptive.best with
          | None -> Alcotest.failf "%s: found nothing" name
          | Some b ->
              check_within name ~tolerance:0.01 gv
                (Optimum.objective_value objective b))
        all_strategies)
    [ Optimum.Tbt; Optimum.Ttft_cost ]

(* --- invariants under random sub-sweeps and budgets --- *)

let sub_sweep_gen =
  let open QCheck.Gen in
  let axis g =
    oneof
      [
        map (fun a -> [ a ]) g;
        map2 (fun a b -> List.sort_uniq compare [ a; b ]) g g;
      ]
  in
  let* systolic_dims = axis (oneofl [ 8; 16; 32 ]) in
  let* lanes_per_core = axis (oneofl [ 1; 2; 4; 8 ]) in
  let* l1_kb = axis (oneofl [ 192.; 256.; 512. ]) in
  let* l2_mb = axis (oneofl [ 32.; 48.; 64. ]) in
  let* memory_bw_tb_s = axis (oneofl [ 2.; 2.4; 3.2 ]) in
  let* device_bw_gb_s = axis (oneofl [ 500.; 600.; 900. ]) in
  let* clock_mhz = axis (oneofl [ Space.default_clock_mhz; 1100.; 1800. ]) in
  return
    {
      Space.systolic_dims; lanes_per_core; l1_kb; l2_mb; memory_bw_tb_s;
      device_bw_gb_s; clock_mhz;
    }

let search_case_arb =
  QCheck.make
    ~print:(fun (sweep, budget, strategy) ->
      Printf.sprintf "size=%d budget=%d strategy=%s" (Space.size sweep) budget
        (Adaptive.strategy_to_string strategy))
    QCheck.Gen.(
      triple sub_sweep_gen (int_range 1 140)
        (oneofl (List.map snd Adaptive.strategies)))

let prop_invariants =
  qcheck ~count:30 "budget, accounting and feasibility invariants"
    search_case_arb
    (fun (sweep, budget, strategy) ->
      let s =
        Scenario.make ~name:"" ~model:Model.llama3_8b ~tpp_target:4800.
          ~regime:Regime.acr_2022 (Scenario.Space sweep)
      in
      let o = Adaptive.search ~budget ~strategy s in
      let rung_evals =
        List.fold_left
          (fun a (r : Adaptive.rung) -> a + r.Adaptive.evaluated)
          0 o.Adaptive.rungs
      in
      let pv = o.Adaptive.provenance in
      o.Adaptive.evaluated <= budget
      && rung_evals = o.Adaptive.evaluated
      && pv.Adaptive.memory + pv.Adaptive.disk + pv.Adaptive.cold
         = o.Adaptive.evaluated
      && (match o.Adaptive.best with
         | None -> true
         | Some d -> feasible s d)
      &&
      if budget >= Space.size sweep then
        match (oracle s, o.Adaptive.best) with
        | None, None -> true
        | Some g, Some b ->
            obj_bits Optimum.Tbt g = obj_bits Optimum.Tbt b
        | _ -> false
      else true)

(* --- the roofline bound is sound: never above the simulated latency --- *)

let widened_point_gen =
  let open QCheck.Gen in
  let pick l = oneofl l in
  let* systolic_dim = pick Space.widened.Space.systolic_dims in
  let* lanes = pick Space.widened.Space.lanes_per_core in
  let* l1 = pick Space.widened.Space.l1_kb in
  let* l2 = pick Space.widened.Space.l2_mb in
  let* memory_bw = pick Space.widened.Space.memory_bw_tb_s in
  let* device_bw = pick Space.widened.Space.device_bw_gb_s in
  let* clock_mhz = pick Space.widened.Space.clock_mhz in
  return
    { Space.systolic_dim; lanes; l1; l2; memory_bw; device_bw; clock_mhz }

let prop_bound_sound =
  qcheck ~count:40 "roofline bound <= engine latency"
    (QCheck.make
       ~print:(fun p -> Acs_util.Json.to_string (Space.params_to_json p))
       widened_point_gen)
    (fun p ->
      let s = fig6 in
      let ttft_lb, tbt_lb = Adaptive.bounds s p in
      match Eval.points s [ p ] with
      | [ d ] ->
          let slack = 1. +. 1e-9 in
          ttft_lb <= d.Design.ttft_s *. slack
          && tbt_lb <= d.Design.tbt_s *. slack
          && ttft_lb > 0. && tbt_lb > 0.
      | _ -> false)

(* --- provenance: cold vs warm-memory runs, identical outcomes --- *)

let t_provenance () =
  Eval.clear ();
  let run () = Adaptive.search ~budget:40 ~strategy:Adaptive.Zoom fig6 in
  let a = run () in
  Alcotest.(check int) "cold run: everything cold" a.Adaptive.evaluated
    a.Adaptive.provenance.Adaptive.cold;
  Alcotest.(check int) "cold run: nothing from memory" 0
    a.Adaptive.provenance.Adaptive.memory;
  let b = run () in
  Alcotest.(check int) "warm run: everything from memory"
    b.Adaptive.evaluated b.Adaptive.provenance.Adaptive.memory;
  Alcotest.(check int) "same evaluation count" a.Adaptive.evaluated
    b.Adaptive.evaluated;
  Alcotest.(check int64) "same best, bit for bit"
    (obj_bits Optimum.Tbt (Option.get a.Adaptive.best))
    (obj_bits Optimum.Tbt (Option.get b.Adaptive.best));
  Alcotest.(check bool) "same rung trace" true
    (a.Adaptive.rungs = b.Adaptive.rungs)

(* --- the widened lattice: a billion implicit points, a budgeted dent --- *)

let t_widened_space () =
  Alcotest.(check int) "widened lattice size" 1_027_604_480
    (Space.size Space.widened);
  let s = Option.get (Scenario.find "search-widened") in
  let o = Adaptive.search ~budget:64 ~strategy:Adaptive.Halving s in
  Alcotest.(check bool) "implicit >= 1e9" true (o.Adaptive.implicit >= 1e9);
  Alcotest.(check bool) "evaluated within budget" true
    (o.Adaptive.evaluated <= 64);
  Alcotest.(check bool) "pruned accounts for the rest" true
    (o.Adaptive.pruned
    = o.Adaptive.implicit -. float_of_int o.Adaptive.evaluated);
  match o.Adaptive.best with
  | None -> Alcotest.fail "no feasible design found on the widened lattice"
  | Some d ->
      Alcotest.(check bool) "best is feasible" true (feasible s d);
      Alcotest.(check bool) "widened clock axis is exercised" true
        (List.mem d.Design.params.Space.clock_mhz
           Space.widened.Space.clock_mhz)

(* --- argument validation --- *)

let t_validation () =
  let point = Option.get (Scenario.find "a100-proxy") in
  check_raises_invalid "Point target" (fun () ->
      ignore (Adaptive.search ~strategy:Adaptive.Halving point));
  check_raises_invalid "budget 0" (fun () ->
      ignore (Adaptive.search ~budget:0 ~strategy:Adaptive.Halving fig6))

(* --- refine hook: a final fidelity re-ranks the top designs --- *)

let t_refine_hook () =
  (* A refine metric that inverts the objective ordering must flip the
     winner to the worst of the top designs - proving the hook, not the
     engine objective, picks the final answer. *)
  let refine d = -.Optimum.objective_value Optimum.Tbt d in
  let plain = Adaptive.search ~budget:64 ~strategy:Adaptive.Halving fig6 in
  let refined =
    Adaptive.search ~budget:64 ~strategy:Adaptive.Halving ~refine fig6
  in
  let pb = Option.get plain.Adaptive.best
  and rb = Option.get refined.Adaptive.best in
  Alcotest.(check bool) "refine changed the winner" true
    (Optimum.objective_value Optimum.Tbt rb
    > Optimum.objective_value Optimum.Tbt pb);
  match List.rev refined.Adaptive.rungs with
  | last :: _ ->
      Alcotest.(check string) "refine rung recorded" "refine"
        last.Adaptive.fidelity
  | [] -> Alcotest.fail "no rungs"

(* --- the disk tier --- *)

(* One fig6 point, its design, and a handle that has stored it. *)
let stored_point dir =
  let p = List.hd (Space.enumerate Space.oct2022) in
  let d = List.hd (Eval.points fig6 [ p ]) in
  let c = Disk_cache.open_dir ~dir fig6 in
  Disk_cache.store c p d;
  (c, p, d)

let check_bitwise d d' =
  Alcotest.(check int64) "ttft bits" (Int64.bits_of_float d.Design.ttft_s)
    (Int64.bits_of_float d'.Design.ttft_s);
  Alcotest.(check int64) "tbt bits" (Int64.bits_of_float d.Design.tbt_s)
    (Int64.bits_of_float d'.Design.tbt_s);
  Alcotest.(check bool) "whole design structurally equal" true (d = d')

let check_found what c p d =
  match Disk_cache.find c p with
  | None -> Alcotest.failf "%s: stored point not found" what
  | Some d' -> check_bitwise d d'

let check_stats what (hits, stores, skipped) c =
  let st = Disk_cache.stats c in
  Alcotest.(check (triple int int int))
    (what ^ ": hits, stores, skipped")
    (hits, stores, skipped)
    (st.Disk_cache.hits, st.Disk_cache.stores, st.Disk_cache.skipped)

let t_disk_roundtrip () =
  with_cache_dir @@ fun dir ->
  let c1, p, d = stored_point dir in
  check_stats "writer" (0, 1, 0) c1;
  let c2 = Disk_cache.open_dir ~dir fig6 in
  check_found "reopen" c2 p d;
  check_stats "reader" (1, 0, 0) c2

let t_disk_context_isolation () =
  with_cache_dir @@ fun dir ->
  let _, p, _ = stored_point dir in
  (* Same directory, different evaluation context: the gpt3 handle must
     not see the llama3 entry. *)
  let c2 = Disk_cache.open_dir ~dir fig6_gpt3 in
  Alcotest.(check bool) "find misses" true (Disk_cache.find c2 p = None);
  check_stats "other context (entry is healthy)" (0, 0, 0) c2

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

let t_disk_foreign_record () =
  (* Healthy records at the wrong path - as if the filename hashes had
     collided - are misses, not answers and not skips. *)
  with_cache_dir @@ fun dir ->
  let c, p, _ = stored_point dir in
  let q = List.nth (Space.enumerate Space.oct2022) 1 in
  Disk_cache.store c q (List.hd (Eval.points fig6 [ q ]));
  let p_path = Disk_cache.entry_path c p in
  write_file p_path (read_file (Disk_cache.entry_path c q));
  let c2 = Disk_cache.open_dir ~dir fig6 in
  Alcotest.(check bool) "q's record at p's path misses p" true
    (Disk_cache.find c2 p = None);
  (* The gpt3 record for p, planted at the llama3 path for p. *)
  let g = Disk_cache.open_dir ~dir fig6_gpt3 in
  Disk_cache.store g p (List.hd (Eval.points fig6_gpt3 [ p ]));
  write_file p_path (read_file (Disk_cache.entry_path g p));
  Alcotest.(check bool) "another context's record misses" true
    (Disk_cache.find c2 p = None);
  check_stats "collisions" (0, 0, 0) c2

let t_disk_crash_safety () =
  with_cache_dir @@ fun dir ->
  let c1, p, d = stored_point dir in
  let real = Disk_cache.entry_path c1 p in
  (* A torn write (truncated record) and outright garbage, both named
     like cache entries, next to the healthy one. *)
  let text = read_file real in
  let torn = String.sub text 0 (String.length text / 2) in
  write_file (Filename.concat dir "acs-truncated.json") torn;
  write_file (Filename.concat dir "acs-garbage.json") "{ not json at all";
  let c2 = Disk_cache.open_dir ~dir fig6 in
  check_found "beside garbage" c2 p d;
  check_stats "beside garbage" (1, 0, 0) c2;
  (* The same damage at the point's own path: a miss and a skip, no
     exception. *)
  List.iteri
    (fun i bad ->
      write_file real bad;
      let c = Disk_cache.open_dir ~dir fig6 in
      Alcotest.(check bool) (Printf.sprintf "damaged record %d misses" i) true
        (Disk_cache.find c p = None);
      check_stats "damaged record" (0, 0, 1) c;
      (* The next store of the point repairs the record. *)
      Disk_cache.store c p d;
      check_found "repaired" (Disk_cache.open_dir ~dir fig6) p d)
    [ torn; "{ not json at all" ]

let t_disk_version_invalidation () =
  with_cache_dir @@ fun dir ->
  let c1, p, d = stored_point dir in
  let real = Disk_cache.entry_path c1 p in
  let bumped =
    match Acs_util.Json.of_string (read_file real) with
    | Acs_util.Json.Obj members ->
        Acs_util.Json.Obj
          (List.map
             (fun (k, v) ->
               if k = "version" then
                 (k, Acs_util.Json.int (Disk_cache.version + 1))
               else (k, v))
             members)
    | _ -> Alcotest.fail "cache record is not an object"
  in
  write_file real (Acs_util.Json.to_string bumped);
  let c2 = Disk_cache.open_dir ~dir fig6 in
  Alcotest.(check bool) "future-version entry misses" true
    (Disk_cache.find c2 p = None);
  check_stats "future-version entry counted as skipped" (0, 0, 1) c2;
  Disk_cache.store c2 p d;
  check_found "rewritten at this version" (Disk_cache.open_dir ~dir fig6) p d

let t_disk_failed_store () =
  (* A directory where the record belongs makes the rename fail: the
     store raises and leaves no temp file behind. *)
  with_cache_dir @@ fun dir ->
  let p = List.nth (Space.enumerate Space.oct2022) 2 in
  let d = List.hd (Eval.points fig6 [ p ]) in
  let c = Disk_cache.open_dir ~dir fig6 in
  let path = Disk_cache.entry_path c p in
  Sys.mkdir path 0o755;
  Alcotest.(check bool) "store raises" true
    (match Disk_cache.store c p d with
    | () -> false
    | exception Sys_error _ -> true);
  Alcotest.(check (list string)) "no temp file left" []
    (Sys.readdir dir |> Array.to_list
    |> List.filter (fun n -> Filename.check_suffix n ".part"));
  Alcotest.(check bool) "the directory is a miss" true
    (Disk_cache.find c p = None);
  Sys.rmdir path;
  Disk_cache.store c p d;
  check_found "stored once the path is free" c p d

(* Random widened-lattice points in two evaluation contexts sharing one
   directory: each point is stored under neither, either or both, and
   fresh handles find exactly what their context stored, bit for bit. *)
let widened = Option.get (Scenario.find "search-widened")
let widened_4800 = { widened with Scenario.tpp_target = 4800. }

let prop_disk_exact =
  qcheck ~count:25 "disk cache finds exactly the stored points"
    (QCheck.make
       ~print:(fun cases ->
         String.concat "; "
           (List.map
              (fun (p, (a, b)) ->
                Printf.sprintf "%s a=%b b=%b"
                  (Acs_util.Json.to_string (Space.params_to_json p))
                  a b)
              cases))
       QCheck.Gen.(
         list_size (int_range 1 12)
           (pair widened_point_gen (pair bool bool))))
    (fun cases ->
      let cases =
        List.fold_left
          (fun acc (p, flags) ->
            if List.exists (fun (q, _) -> Space.params_equal p q) acc then acc
            else (p, flags) :: acc)
          [] cases
        |> List.rev
      in
      let pts = List.map fst cases in
      let contexts = [ (widened, fst); (widened_4800, snd) ] in
      let designs = List.map (fun (s, _) -> Eval.points s pts) contexts in
      with_cache_dir @@ fun dir ->
      List.iter2
        (fun (s, stored_in) ds ->
          let w = Disk_cache.open_dir ~dir s in
          List.iter2
            (fun (p, flags) d -> if stored_in flags then Disk_cache.store w p d)
            cases ds)
        contexts designs;
      List.for_all2
        (fun (s, stored_in) ds ->
          let r = Disk_cache.open_dir ~dir s in
          List.for_all2
            (fun (p, flags) d ->
              match Disk_cache.find r p with
              | Some d' ->
                  stored_in flags
                  && Int64.bits_of_float d.Design.ttft_s
                     = Int64.bits_of_float d'.Design.ttft_s
                  && Int64.bits_of_float d.Design.tbt_s
                     = Int64.bits_of_float d'.Design.tbt_s
                  && d = d'
              | None -> not (stored_in flags))
            cases ds)
        contexts designs)

let t_disk_jobs_identity () =
  with_cache_dir @@ fun dir ->
  let run jobs =
    Eval.clear ();
    Parallel.with_jobs jobs (fun () ->
        Adaptive.search ~budget:48 ~strategy:Adaptive.Halving ~cache_dir:dir
          fig6)
  in
  let a = run 1 in
  (* Cold disk: every evaluation simulated and written through. *)
  Alcotest.(check int) "cold run stores everything" a.Adaptive.evaluated
    (Option.get a.Adaptive.disk).Disk_cache.stores;
  let b = run 4 in
  (* Memory cleared, disk warm: every evaluation answered by the disk
     tier, and the outcome is identical under a different job count. *)
  Alcotest.(check int) "warm run all from disk" b.Adaptive.evaluated
    b.Adaptive.provenance.Adaptive.disk;
  Alcotest.(check int) "warm run stores nothing" 0
    (Option.get b.Adaptive.disk).Disk_cache.stores;
  Alcotest.(check int) "same evaluation count" a.Adaptive.evaluated
    b.Adaptive.evaluated;
  Alcotest.(check int64) "same best, bit for bit"
    (obj_bits Optimum.Tbt (Option.get a.Adaptive.best))
    (obj_bits Optimum.Tbt (Option.get b.Adaptive.best));
  Alcotest.(check bool) "same rung trace" true
    (a.Adaptive.rungs = b.Adaptive.rungs)

let suite =
  [
    test "oracle identity on fig6-llama3 (all strategies)"
      (t_oracle_identity fig6);
    test "oracle identity on fig6-gpt3" (fun () ->
        let g = Option.get (oracle fig6_gpt3) in
        let o =
          Adaptive.search
            ~budget:(Scenario.size fig6_gpt3)
            ~strategy:Adaptive.Halving fig6_gpt3
        in
        Alcotest.(check int64) "objective bits"
          (obj_bits Optimum.Tbt g)
          (obj_bits Optimum.Tbt (Option.get o.Adaptive.best)));
    test "within 1% of the oracle at 1/8 budget" t_within_one_percent;
    prop_invariants;
    prop_bound_sound;
    test "provenance: cold then memory-warm, identical outcome" t_provenance;
    test "widened lattice: 1e9 implicit points" t_widened_space;
    test "argument validation" t_validation;
    test "refine hook re-ranks the winner" t_refine_hook;
    test "disk cache round-trip is bitwise" t_disk_roundtrip;
    test "disk cache isolates contexts" t_disk_context_isolation;
    test "disk cache skips corrupt records" t_disk_crash_safety;
    test "disk cache version bump invalidates" t_disk_version_invalidation;
    test "disk-warm run identical under 1 and 4 jobs" t_disk_jobs_identity;
    test "disk cache: a colliding record is a miss" t_disk_foreign_record;
    test "disk cache: a failed store leaves no temp file" t_disk_failed_store;
    prop_disk_exact;
  ]
