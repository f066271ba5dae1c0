(* Adaptive search over the compiled-engine evaluation path.

   The paper's own spaces (512-9216 points) are cheap to enumerate; the
   widened lattice ([Space.widened], ~1e9 implicit points) is not. Each
   strategy here walks that lattice evaluating only a budgeted subset,
   exploiting two facts:

   - feasibility (compliance + reticle) and die cost are computable from
     the built device alone, without simulating ([Space.constrain]
     already relies on this); and
   - a sound analytic lower bound on the engine's phase latency exists:
     per op the engine charges at least max(compute, memory) with
     efficiencies <= 1 and actual DRAM traffic >= compulsory bytes, so
        max(sum_op compute_lb, sum_op memory_lb) <= engine latency
     (sum of maxes dominates max of sums; the property suite asserts the
     inequality against the real engine). A candidate whose bound already
     exceeds the incumbent's true objective can therefore be discarded
     without ever simulating it - branch-and-bound, exact.

   Every strategy is deterministic given (scenario, strategy, budget,
   seed): decisions depend only on evaluated design values, never on
   cache state or the parallel pool size, so warm/cold and 1-job/4-job
   runs return identical outcomes (the adaptive suite pins this). When
   the budget covers the whole sweep, every strategy degenerates to the
   exhaustive oracle. *)

module Area_model = Acs_area.Area_model
module Engine = Acs_perfmodel.Engine
module Compiled = Acs_workload.Compiled
module Device = Acs_hardware.Device
module Units = Acs_util.Units

type strategy = Halving | Pareto_front | Descent | Zoom

let strategies =
  [ ("halving", Halving); ("pareto", Pareto_front); ("descent", Descent);
    ("zoom", Zoom) ]

let strategy_to_string s =
  List.find_map (fun (n, s') -> if s = s' then Some n else None) strategies
  |> Option.get

let strategy_of_string name =
  List.assoc_opt (String.lowercase_ascii (String.trim name)) strategies

type rung = {
  fidelity : string;
  candidates : int;
  evaluated : int;
  promoted : int;
  pruned : int;
}

type provenance = { memory : int; disk : int; cold : int }

type outcome = {
  best : Design.t option;
  objective : Optimum.objective;
  strategy : strategy;
  budget : int;
  evaluated : int;
  bounded : int;
  implicit : float;
  pruned : float;
  rungs : rung list;
  provenance : provenance;
  disk : Disk_cache.stats option;
}

(* --- fidelity 0: the analytic roofline lower bound --- *)

type phase_totals = { macs : float; vec_flops : float; min_bytes : float }

let totals_of_phase (ph : Compiled.phase) =
  Array.fold_left
    (fun t op ->
      match op with
      | Compiled.Matmul mm ->
          {
            t with
            macs = t.macs +. mm.Compiled.macs;
            min_bytes = t.min_bytes +. mm.Compiled.compulsory_bytes;
          }
      | Compiled.Elementwise e ->
          {
            t with
            vec_flops = t.vec_flops +. e.flops;
            min_bytes = t.min_bytes +. e.bytes;
          }
      | Compiled.All_reduce _ ->
          (* Interconnect traffic only adds time; ignoring it keeps the
             bound a lower bound. *)
          t)
    { macs = 0.; vec_flops = 0.; min_bytes = 0. }
    ph.Compiled.ops

let phase_bound totals device =
  let peak_macs =
    float_of_int (Device.total_macs_per_cycle device)
    *. device.Device.frequency_hz
  in
  let compute =
    (totals.macs /. peak_macs)
    +. (totals.vec_flops /. Device.peak_vector_flops device)
  in
  let memory = totals.min_bytes /. Device.memory_bandwidth device in
  Float.max compute memory

let compile_of (s : Scenario.t) =
  Engine.compile ?tp:s.Scenario.tp ?request:s.Scenario.request
    s.Scenario.model

let build (s : Scenario.t) p =
  Space.build ?memory_gb:s.Scenario.memory_gb ~tpp_target:s.Scenario.tpp_target
    p

let bounds (s : Scenario.t) p =
  let c = compile_of s in
  let device = build s p in
  ( phase_bound (totals_of_phase c.Compiled.prefill) device,
    phase_bound (totals_of_phase c.Compiled.decode) device )

(* --- bound probes ---

   A probe builds a candidate's device and die area, never a design: no
   latencies, good-die cost, SRAM total or stored spec. From those two it
   reads the default feasibility verdict and, for a survivor, the die cost
   and the objective's lower bound; only those floats outlive it. *)

(* The default feasibility test, one definition for evaluated designs and
   probes alike: compliant under the scenario's regime and within the
   reticle, judged from the device and its die area. *)
let default_feasible (s : Scenario.t) ~area_mm2 device =
  Design.compliant_device s.Scenario.regime ~area_mm2 device
  && Design.fits_reticle area_mm2

let objective_bound objective ~pre ~dec device ~die_cost_usd =
  match objective with
  | Optimum.Ttft -> phase_bound pre device
  | Optimum.Tbt -> phase_bound dec device
  | Optimum.Ttft_cost -> Units.to_ms (phase_bound pre device) *. die_cost_usd
  | Optimum.Tbt_cost -> Units.to_ms (phase_bound dec device) *. die_cost_usd

(* The bound rung's probe of [p]: [None] when [prescreen] is set and [p]
   fails the default feasibility test, else [p]'s die cost and the
   objective's lower bound. *)
let bound_probe (s : Scenario.t) ~objective ~pre ~dec ~prescreen p =
  let device = build s p in
  let area_mm2 = Area_model.total_mm2 device in
  if prescreen && not (default_feasible s ~area_mm2 device) then None
  else
    let die_cost_usd = Design.die_cost_of_area area_mm2 in
    Some (die_cost_usd, objective_bound objective ~pre ~dec device ~die_cost_usd)

let probe ?(objective = Optimum.Tbt) ~prescreen (s : Scenario.t) p =
  let c = compile_of s in
  bound_probe s ~objective
    ~pre:(totals_of_phase c.Compiled.prefill)
    ~dec:(totals_of_phase c.Compiled.decode)
    ~prescreen p

(* --- per-run search context --- *)

module Ptable = Hashtbl.Make (struct
  type t = Space.params

  let equal = Space.params_equal
  let hash p = Space.mix (Space.params_hash p)
end)

type ctx = {
  scenario : Scenario.t;
  objective : Optimum.objective;
  feasible : Design.t -> bool;
  budget : int;
  disk : Disk_cache.t option;
  results : Design.t Ptable.t;
  pre : phase_totals;
  dec : phase_totals;
  mutable log : Design.t list;  (** reverse evaluation order *)
  mutable evaluated : int;
  mutable bounded : int;
  mutable mem : int;
  mutable dsk : int;
  mutable cold : int;
  mutable best : Design.t option;
  mutable rungs : rung list;  (** reversed *)
}

let remaining ctx = ctx.budget - ctx.evaluated
let obj_value ctx d = Optimum.objective_value ctx.objective d
let push_rung ctx r = ctx.rungs <- r :: ctx.rungs

let consider ctx d =
  if ctx.feasible d then
    match ctx.best with
    | Some b when obj_value ctx b <= obj_value ctx d -> ()
    | _ -> ctx.best <- Some d

(* Descent's and zoom's prescreen probe, which reads only the verdict.
   Every probe is charged to [bounded], not to the evaluation budget. *)
let probe_feasible ctx p =
  ctx.bounded <- ctx.bounded + 1;
  let device = build ctx.scenario p in
  default_feasible ctx.scenario ~area_mm2:(Area_model.total_mm2 device) device

(* The only path that spends evaluation budget. Deduplicates against
   everything already evaluated this run, truncates to the remaining
   budget (in list order, so truncation is deterministic), classifies
   provenance, promotes disk entries into the in-memory cache, evaluates
   the rest through [Eval.points] (one shared compile, parallel over the
   pool) and writes the cold results - only those - through to disk.
   Returns the designs now known for the requested points, in request
   order. *)
let require ctx ps =
  let tmp = Ptable.create 64 in
  let fresh =
    List.filter
      (fun p ->
        if Ptable.mem ctx.results p || Ptable.mem tmp p then false
        else begin
          Ptable.add tmp p ();
          true
        end)
      ps
  in
  let take = min (remaining ctx) (List.length fresh) in
  let chosen = List.filteri (fun i _ -> i < take) fresh in
  if chosen <> [] then begin
    let tagged =
      List.map
        (fun p ->
          if Eval.probe ctx.scenario p then begin
            ctx.mem <- ctx.mem + 1;
            (p, false)
          end
          else
            match Option.bind ctx.disk (fun dc -> Disk_cache.find dc p) with
            | Some d ->
                Eval.seed ctx.scenario p d;
                ctx.dsk <- ctx.dsk + 1;
                (p, false)
            | None ->
                ctx.cold <- ctx.cold + 1;
                (p, true))
        chosen
    in
    let designs = Eval.points ctx.scenario chosen in
    ctx.evaluated <- ctx.evaluated + List.length chosen;
    List.iter2
      (fun (p, cold) d ->
        Ptable.add ctx.results p d;
        ctx.log <- d :: ctx.log;
        (match ctx.disk with
        | Some dc when cold -> Disk_cache.store dc p d
        | _ -> ());
        consider ctx d)
      tagged designs
  end;
  List.filter_map (fun p -> Ptable.find_opt ctx.results p) ps

(* --- the index lattice --- *)

type axes = {
  dims : int array;
  lanes : int array;
  l1 : float array;
  l2 : float array;
  membw : float array;
  devbw : float array;
  clock : float array;
}

let n_axes = 7

let axes_of (s : Space.sweep) =
  let ia l = Array.of_list (List.sort_uniq Int.compare l) in
  let fa l = Array.of_list (List.sort_uniq Float.compare l) in
  {
    dims = ia s.Space.systolic_dims;
    lanes = ia s.Space.lanes_per_core;
    l1 = fa s.Space.l1_kb;
    l2 = fa s.Space.l2_mb;
    membw = fa s.Space.memory_bw_tb_s;
    devbw = fa s.Space.device_bw_gb_s;
    clock = fa s.Space.clock_mhz;
  }

let axis_lengths a =
  [|
    Array.length a.dims; Array.length a.lanes; Array.length a.l1;
    Array.length a.l2; Array.length a.membw; Array.length a.devbw;
    Array.length a.clock;
  |]

let params_at a (ix : int array) =
  {
    Space.systolic_dim = a.dims.(ix.(0));
    lanes = a.lanes.(ix.(1));
    l1 = a.l1.(ix.(2));
    l2 = a.l2.(ix.(3));
    memory_bw = a.membw.(ix.(4));
    device_bw = a.devbw.(ix.(5));
    clock_mhz = a.clock.(ix.(6));
  }

let find_index eq arr v =
  let r = ref (-1) in
  Array.iteri (fun i x -> if !r < 0 && eq x v then r := i) arr;
  if !r < 0 then invalid_arg "Adaptive: point off the sweep lattice";
  !r

let index_of a (p : Space.params) =
  let fi = find_index (fun x y -> Float.compare x y = 0) in
  [|
    find_index Int.equal a.dims p.Space.systolic_dim;
    find_index Int.equal a.lanes p.Space.lanes;
    fi a.l1 p.Space.l1;
    fi a.l2 p.Space.l2;
    fi a.membw p.Space.memory_bw;
    fi a.devbw p.Space.device_bw;
    fi a.clock p.Space.clock_mhz;
  |]

(* All swept values along axis [k] through [p]. *)
let axis_line a k (p : Space.params) =
  match k with
  | 0 ->
      List.map (fun v -> { p with Space.systolic_dim = v })
        (Array.to_list a.dims)
  | 1 -> List.map (fun v -> { p with Space.lanes = v }) (Array.to_list a.lanes)
  | 2 -> List.map (fun v -> { p with Space.l1 = v }) (Array.to_list a.l1)
  | 3 -> List.map (fun v -> { p with Space.l2 = v }) (Array.to_list a.l2)
  | 4 ->
      List.map (fun v -> { p with Space.memory_bw = v })
        (Array.to_list a.membw)
  | 5 ->
      List.map (fun v -> { p with Space.device_bw = v })
        (Array.to_list a.devbw)
  | _ ->
      List.map (fun v -> { p with Space.clock_mhz = v })
        (Array.to_list a.clock)

type box = { lo : int array; hi : int array }  (* inclusive, per axis *)

let full_box lens = { lo = Array.make n_axes 0; hi = Array.map pred lens }

(* Per-axis sample counts whose product stays within [target]: start at
   two per axis (the endpoints), shed axes - round-robin from [offset] -
   if even that is too many, then grow round-robin while the grid still
   fits. Rotating [offset] across zoom levels lets every axis take a turn
   at the finer resolution. *)
let allocate ~target ~offset lens =
  let n = Array.length lens in
  let counts = Array.map (fun l -> min l 2) lens in
  let product () = Array.fold_left ( * ) 1 counts in
  let k = ref 0 in
  while product () > target && !k < n do
    counts.((offset + !k) mod n) <- 1;
    incr k
  done;
  let grew = ref true in
  while !grew do
    grew := false;
    for j = 0 to n - 1 do
      let i = (offset + j) mod n in
      if counts.(i) < lens.(i) && product () / counts.(i) * (counts.(i) + 1) <= target
      then begin
        counts.(i) <- counts.(i) + 1;
        grew := true
      end
    done
  done;
  counts

let axis_samples lo hi k =
  let n = hi - lo + 1 in
  if k >= n then List.init n (fun i -> lo + i)
  else if k <= 1 then [ lo + ((n - 1) / 2) ]
  else
    List.sort_uniq Int.compare
      (List.init k (fun j -> lo + (((j * (n - 1)) + ((k - 1) / 2)) / (k - 1))))

let box_samples box counts =
  Array.init n_axes (fun k -> axis_samples box.lo.(k) box.hi.(k) counts.(k))

(* Every point of the sample grid, axis 0 slowest and axis 6 fastest: the
   i-th point decodes i in mixed radix over the per-axis sample counts.
   [params_at] copies the indexes out, so one index array serves all. *)
let grid a (samples : int list array) =
  let s = Array.map Array.of_list samples in
  let total = Array.fold_left (fun n x -> n * Array.length x) 1 s in
  let ix = Array.make n_axes 0 in
  List.init total (fun i ->
      let r = ref i in
      for k = n_axes - 1 downto 0 do
        let n = Array.length s.(k) in
        ix.(k) <- s.(k).(!r mod n);
        r := !r / n
      done;
      params_at a ix)

(* --- strategies --- *)

let exhaustive ctx sweep =
  let before = ctx.evaluated in
  ignore (require ctx (Space.enumerate sweep));
  push_rung ctx
    {
      fidelity = "exhaustive";
      candidates = Space.size sweep;
      evaluated = ctx.evaluated - before;
      promoted = (if Option.is_some ctx.best then 1 else 0);
      pruned = 0;
    }

(* Shared first rung of halving/pareto: a coarse candidate grid probed at
   bound fidelity - cheap-infeasible candidates pruned (when the default
   feasibility test is in force), survivors kept as (point, die cost,
   objective lower bound) and sorted by the bound, ties kept in grid
   order. *)
let bound_rung ctx axes sweep ~prescreen =
  let lens = axis_lengths axes in
  let target = min (Space.size sweep) (min 4096 (max 64 (ctx.budget * 4))) in
  let counts = allocate ~target ~offset:0 lens in
  let cands = grid axes (box_samples (full_box lens) counts) in
  let scored =
    List.filter_map
      (fun p ->
        ctx.bounded <- ctx.bounded + 1;
        match
          bound_probe ctx.scenario ~objective:ctx.objective ~pre:ctx.pre
            ~dec:ctx.dec ~prescreen p
        with
        | None -> None
        | Some (die_cost_usd, lb) -> Some (p, die_cost_usd, lb))
      cands
  in
  let sorted =
    List.stable_sort (fun (_, _, a) (_, _, b) -> Float.compare a b) scored
  in
  let candidates = List.length cands and promoted = List.length sorted in
  push_rung ctx
    {
      fidelity = "bound";
      candidates;
      evaluated = 0;
      promoted;
      pruned = candidates - promoted;
    };
  sorted

let wave_size ctx = max 8 (ctx.budget / 8)

let halving ctx axes sweep ~prescreen =
  let queue = ref (bound_rung ctx axes sweep ~prescreen) in
  let w = ref 0 in
  while !queue <> [] && remaining ctx > 0 do
    (* Sound prune: a candidate whose lower bound exceeds the incumbent's
       true objective cannot win. *)
    let kept, pruned =
      match ctx.best with
      | None -> (!queue, 0)
      | Some b ->
          let s = obj_value ctx b in
          let kept = List.filter (fun (_, _, lb) -> lb <= s) !queue in
          (kept, List.length !queue - List.length kept)
    in
    let wave = wave_size ctx in
    let now = List.filteri (fun i _ -> i < wave) kept in
    let later = List.filteri (fun i _ -> i >= wave) kept in
    let before = ctx.evaluated in
    ignore (require ctx (List.map (fun (p, _, _) -> p) now));
    push_rung ctx
      {
        fidelity = Printf.sprintf "engine%d" !w;
        candidates = List.length kept;
        evaluated = ctx.evaluated - before;
        promoted = List.length later;
        pruned;
      };
    queue := later;
    incr w
  done

let pareto ctx axes sweep ~prescreen =
  let queue = ref (bound_rung ctx axes sweep ~prescreen) in
  let w = ref 0 and last_wave = ref [] in
  while !queue <> [] && remaining ctx > 0 do
    (* Frontier prune: candidate [p] is discarded when some already
       evaluated feasible design is at or below [p]'s objective lower
       bound AND at or below its exact die cost - [p] can then neither
       beat that design on the objective nor extend the (objective, cost)
       frontier. A queued candidate has survived this test against every
       design evaluated before the last wave, so only the last wave's
       designs, as (objective, cost) pairs, need checking. *)
    let recent =
      List.filter_map
        (fun d ->
          if ctx.feasible d then Some (obj_value ctx d, d.Design.die_cost_usd)
          else None)
        !last_wave
    in
    let dominated (_, die_cost_usd, lb) =
      List.exists (fun (o, c) -> o <= lb && c <= die_cost_usd) recent
    in
    let kept, pruned =
      if recent = [] then (!queue, 0)
      else
        let kept = List.filter (fun c -> not (dominated c)) !queue in
        (kept, List.length !queue - List.length kept)
    in
    let wave = wave_size ctx in
    let now = List.filteri (fun i _ -> i < wave) kept in
    let later = List.filteri (fun i _ -> i >= wave) kept in
    let before = ctx.evaluated in
    last_wave := require ctx (List.map (fun (p, _, _) -> p) now);
    push_rung ctx
      {
        fidelity = Printf.sprintf "pareto%d" !w;
        candidates = List.length kept;
        evaluated = ctx.evaluated - before;
        promoted = List.length later;
        pruned;
      };
    queue := later;
    incr w
  done

let descent ctx axes sweep ~prescreen ~seed =
  (* Multi-start coordinate descent: the deduplicated lattice corners
     (generalizing [Search.optimize]) plus seeded random starts. All
     randomness is drawn up front, before any evaluation, so the start
     set is independent of cache state. *)
  let rng = Random.State.make [| seed; 0x5eed |] in
  let lens = axis_lengths axes in
  let random_start () =
    params_at axes (Array.map (fun l -> Random.State.int rng l) lens)
  in
  let starts =
    Search.corners sweep @ List.init 4 (fun _ -> random_start ())
    |> List.fold_left
         (fun acc p ->
           if List.exists (Space.params_equal p) acc then acc else p :: acc)
         []
    |> List.rev
  in
  List.iteri
    (fun si start ->
      if remaining ctx > 0 then begin
        let before = ctx.evaluated in
        let moves = ref 0 in
        (match require ctx [ start ] with
        | [] -> () (* budget exhausted mid-start *)
        | d0 :: _ ->
            (* Lexicographic score: feasible designs always beat
               infeasible ones, then lower objective wins. *)
            let score d =
              ((if ctx.feasible d then 0 else 1), obj_value ctx d)
            in
            let current = ref d0 and current_score = ref (score d0) in
            let improved = ref true in
            while !improved && remaining ctx > 0 do
              improved := false;
              for k = 0 to n_axes - 1 do
                let line = axis_line axes k !current.Design.params in
                let line =
                  if not prescreen then line
                  else
                    List.filter
                      (fun p ->
                        Space.params_equal p !current.Design.params
                        || probe_feasible ctx p)
                      line
                in
                let ds = require ctx line in
                List.iter
                  (fun d ->
                    let s = score d in
                    if s < !current_score then begin
                      current := d;
                      current_score := s;
                      improved := true;
                      incr moves
                    end)
                  ds
              done
            done);
        push_rung ctx
          {
            fidelity = Printf.sprintf "start%d" si;
            candidates = 1;
            evaluated = ctx.evaluated - before;
            promoted = !moves;
            pruned = 0;
          }
      end)
    starts

let zoom ctx axes ~prescreen =
  let lens = axis_lengths axes in
  let box = ref (full_box lens) in
  let level = ref 0 in
  let stop = ref false in
  while (not !stop) && remaining ctx > 0 && !level < 64 do
    let blens =
      Array.init n_axes (fun k -> !box.hi.(k) - !box.lo.(k) + 1)
    in
    let target = max 16 (min (remaining ctx) (max 64 (ctx.budget / 4))) in
    let counts = allocate ~target ~offset:(!level mod n_axes) blens in
    (* [allocate] works on box-relative lengths; samples are absolute. *)
    let samples = box_samples !box counts in
    let cands = grid axes samples in
    let kept =
      if prescreen then List.filter (probe_feasible ctx) cands else cands
    in
    let before = ctx.evaluated in
    ignore (require ctx kept);
    let news = ctx.evaluated - before in
    push_rung ctx
      {
        fidelity = Printf.sprintf "zoom%d" !level;
        candidates = List.length cands;
        evaluated = news;
        promoted = (if Option.is_some ctx.best then 1 else 0);
        pruned = List.length cands - List.length kept;
      };
    (match ctx.best with
    | None -> if news = 0 then stop := true
    | Some b ->
        (* Shrink to the incumbent's cell: per axis, the sampled indices
           bracketing the incumbent's own index. *)
        let bi = index_of axes b.Design.params in
        let nlo = Array.copy !box.lo and nhi = Array.copy !box.hi in
        for k = 0 to n_axes - 1 do
          let below = List.filter (fun i -> i < bi.(k)) samples.(k) in
          let above = List.filter (fun i -> i > bi.(k)) samples.(k) in
          nlo.(k) <- (match List.rev below with x :: _ -> x | [] -> bi.(k));
          nhi.(k) <- (match above with x :: _ -> x | [] -> bi.(k))
        done;
        let unchanged = nlo = !box.lo && nhi = !box.hi in
        box := { lo = nlo; hi = nhi };
        if unchanged && news = 0 then stop := true);
    incr level
  done

(* --- entry point --- *)

let search ?(budget = 1024) ?(seed = 42) ?(objective = Optimum.Tbt) ?feasible
    ?refine ?cache_dir ~strategy (s : Scenario.t) =
  if budget < 1 then invalid_arg "Adaptive.search: budget must be positive";
  let sweep =
    match s.Scenario.target with
    | Scenario.Space sw -> sw
    | Scenario.Point _ ->
        invalid_arg
          "Adaptive.search: scenario targets a single point; search needs a \
           design space"
  in
  (* The prescreen applies the default test to probes; a custom
     feasibility function may read the latencies, so only the default
     (device-only) test is safe to run at bound fidelity. *)
  let prescreen = feasible = None in
  let feasible =
    match feasible with
    | Some f -> f
    | None ->
        fun d -> default_feasible s ~area_mm2:d.Design.area_mm2 d.Design.device
  in
  let disk = Option.map (fun dir -> Disk_cache.open_dir ~dir s) cache_dir in
  let compiled = compile_of s in
  let ctx =
    {
      scenario = s;
      objective;
      feasible;
      budget;
      disk;
      results = Ptable.create 1024;
      pre = totals_of_phase compiled.Compiled.prefill;
      dec = totals_of_phase compiled.Compiled.decode;
      log = [];
      evaluated = 0;
      bounded = 0;
      mem = 0;
      dsk = 0;
      cold = 0;
      best = None;
      rungs = [];
    }
  in
  let axes = axes_of sweep in
  if budget >= Space.size sweep then exhaustive ctx sweep
  else begin
    match strategy with
    | Halving -> halving ctx axes sweep ~prescreen
    | Pareto_front -> pareto ctx axes sweep ~prescreen
    | Descent -> descent ctx axes sweep ~prescreen ~seed
    | Zoom -> zoom ctx axes ~prescreen
  end;
  (* Optional final fidelity: re-rank the evaluated top designs with a
     caller-supplied refinement metric (e.g. a serving-simulator pass). *)
  (match refine with
  | None -> ()
  | Some f ->
      let ranked =
        List.filter ctx.feasible (List.rev ctx.log)
        |> List.stable_sort (fun a b ->
               Float.compare (obj_value ctx a) (obj_value ctx b))
      in
      let top = List.filteri (fun i _ -> i < 8) ranked in
      (match top with
      | [] -> ()
      | first :: rest ->
          let best_refined =
            List.fold_left
              (fun (d, v) d' ->
                let v' = f d' in
                if v' < v then (d', v') else (d, v))
              (first, f first) rest
            |> fst
          in
          ctx.best <- Some best_refined;
          push_rung ctx
            {
              fidelity = "refine";
              candidates = List.length top;
              evaluated = 0;
              promoted = 1;
              pruned = List.length top - 1;
            }));
  let implicit = float_of_int (Space.size sweep) in
  {
    best = ctx.best;
    objective;
    strategy;
    budget;
    evaluated = ctx.evaluated;
    bounded = ctx.bounded;
    implicit;
    pruned = implicit -. float_of_int ctx.evaluated;
    rungs = List.rev ctx.rungs;
    provenance = { memory = ctx.mem; disk = ctx.dsk; cold = ctx.cold };
    disk = Option.map Disk_cache.stats ctx.disk;
  }
