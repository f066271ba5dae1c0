type labels = (string * string) list

let rec atomic_add_float cell x =
  let old = Atomic.get cell in
  if not (Atomic.compare_and_set cell old (old +. x)) then
    atomic_add_float cell x

type counter = { c_value : int Atomic.t }
type gauge = { g_value : float Atomic.t }

(* Log-scale buckets: [buckets_per_decade] per decade from [range_floor]
   to [range_floor * 10^(n_value_buckets / buckets_per_decade)]. Index 0
   is the underflow bucket (<= floor, and NaN); the last index absorbs
   overflow. *)
let buckets_per_decade = 4
let decades = 12
let range_floor = 1e-9
let n_value_buckets = buckets_per_decade * decades
let n_buckets = n_value_buckets + 2

type histogram = { h_counts : int Atomic.t array; h_sum : float Atomic.t }

type metric = C of counter | G of gauge | H of histogram

let registry : (string * labels, metric) Hashtbl.t = Hashtbl.create 64
let registry_mutex = Mutex.create ()

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

let register name labels make expect =
  let key = (name, List.sort compare labels) in
  Mutex.lock registry_mutex;
  let metric =
    match Hashtbl.find_opt registry key with
    | Some m -> m
    | None ->
        let m = make () in
        Hashtbl.add registry key m;
        m
  in
  Mutex.unlock registry_mutex;
  match expect metric with
  | Some v -> v
  | None ->
      invalid_arg
        (Printf.sprintf "Metrics: %S is already registered as a %s" name
           (kind_name metric))

(* A metric registered on first use. [Lazy.t] would do the caching, but a
   suspension is not domain-safe in OCaml 5: two domains forcing it for
   the first time at once raise [CamlinternalLazy.Undefined]. Here racing
   first uses each run [make]; registration is get-or-create under the
   registry mutex, so they all get the same metric, and the atomic only
   caches it. The fast path is an atomic load and a match: about 3 ns a
   call against 5-7 ns for forcing an evaluated suspension, on a 2-core
   x86-64 KVM guest. *)
type 'a handle = { make : unit -> 'a; cell : 'a option Atomic.t }

let handle make = { make; cell = Atomic.make None }

let get h =
  match Atomic.get h.cell with
  | Some m -> m
  | None ->
      let m = h.make () in
      Atomic.set h.cell (Some m);
      m

let counter ?(labels = []) name =
  register name labels
    (fun () -> C { c_value = Atomic.make 0 })
    (function C c -> Some c | G _ | H _ -> None)

let incr ?(by = 1) c =
  if by < 0 then invalid_arg "Metrics.incr: counters are monotone";
  ignore (Atomic.fetch_and_add c.c_value by)

let counter_value c = Atomic.get c.c_value

let gauge ?(labels = []) name =
  register name labels
    (fun () -> G { g_value = Atomic.make 0. })
    (function G g -> Some g | C _ | H _ -> None)

let set_gauge g x = Atomic.set g.g_value x
let add_gauge g x = atomic_add_float g.g_value x
let gauge_value g = Atomic.get g.g_value

let histogram ?(labels = []) name =
  register name labels
    (fun () ->
      H
        {
          h_counts = Array.init n_buckets (fun _ -> Atomic.make 0);
          h_sum = Atomic.make 0.;
        })
    (function H h -> Some h | C _ | G _ -> None)

let bucket_upper_bound i =
  if i = 0 then range_floor
  else
    range_floor
    *. (10. ** (float_of_int i /. float_of_int buckets_per_decade))

(* The reported upper bound of every bucket but the overflow one. *)
let bounds = Array.init (n_buckets - 1) bucket_upper_bound

(* Bucket [i] holds the values in [(bounds.(i-1), bounds.(i)]]: the
   export's "le" is inclusive, and a quantile never reports a bound below
   the value it stands for. Bucket 0 holds everything at or below the
   floor (and NaN); the last bucket everything above the top bound,
   infinity included. The logarithm only guesses the index, from a ratio
   that cannot overflow because [v] is in range by then; one comparison
   with the neighbouring bounds corrects a guess that rounding in [log10]
   or an exact edge put one bucket off. *)
let bucket_index v =
  let top = n_buckets - 2 in
  if not (v > range_floor) then 0
  else if v > bounds.(top) then n_buckets - 1
  else
    let guess =
      1
      + int_of_float
          (Float.floor
             (float_of_int buckets_per_decade *. Float.log10 (v /. range_floor)))
    in
    let i = min (max guess 1) top in
    if v <= bounds.(i - 1) then i - 1 else if v > bounds.(i) then i + 1 else i

let observe h v =
  ignore (Atomic.fetch_and_add h.h_counts.(bucket_index v) 1);
  if not (Float.is_nan v) then atomic_add_float h.h_sum v

let observe_n h v n =
  if n < 0 then invalid_arg "Metrics.observe_n: negative count";
  if n > 0 then begin
    ignore (Atomic.fetch_and_add h.h_counts.(bucket_index v) n);
    if not (Float.is_nan v) then atomic_add_float h.h_sum (v *. float_of_int n)
  end

let time h f =
  let t0 = Monotonic_clock.now () in
  Fun.protect
    ~finally:(fun () ->
      let dt = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9 in
      observe h dt)
    f

let hist_count h =
  Array.fold_left (fun acc c -> acc + Atomic.get c) 0 h.h_counts

let hist_sum h = Atomic.get h.h_sum

let quantile h q =
  if not (q >= 0. && q <= 1.) then
    invalid_arg "Metrics.quantile: q must be in [0, 1]";
  let count = hist_count h in
  if count = 0 then Float.nan
  else begin
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int count))) in
    let rec walk i seen =
      let seen = seen + Atomic.get h.h_counts.(i) in
      if seen >= rank || i = n_buckets - 1 then bucket_upper_bound i
      else walk (i + 1) seen
    in
    walk 0 0
  end

let buckets h =
  List.filter_map
    (fun i ->
      let c = Atomic.get h.h_counts.(i) in
      if c = 0 then None else Some (bucket_upper_bound i, c))
    (List.init n_buckets Fun.id)

(* --- registry-wide views --- *)

let entries () =
  Mutex.lock registry_mutex;
  let all = Hashtbl.fold (fun k m acc -> (k, m) :: acc) registry [] in
  Mutex.unlock registry_mutex;
  List.sort compare (List.map (fun ((n, l), m) -> ((n, l), m)) all)

let reset () =
  Mutex.lock registry_mutex;
  Hashtbl.iter
    (fun _ -> function
      | C c -> Atomic.set c.c_value 0
      | G g -> Atomic.set g.g_value 0.
      | H h ->
          Array.iter (fun cell -> Atomic.set cell 0) h.h_counts;
          Atomic.set h.h_sum 0.)
    registry;
  Mutex.unlock registry_mutex

let label_string labels =
  match labels with
  | [] -> ""
  | labels ->
      Printf.sprintf "{%s}"
        (String.concat ","
           (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) labels))

let labels_json labels =
  Json.obj (List.map (fun (k, v) -> (k, Json.string v)) labels)

let finite_float f = if Float.is_finite f then Json.float f else Json.Null

let export () =
  let entry name labels fields =
    Json.obj
      ([ ("name", Json.string name) ]
      @ (if labels = [] then [] else [ ("labels", labels_json labels) ])
      @ fields)
  in
  let counters, gauges, histograms =
    List.fold_left
      (fun (cs, gs, hs) ((name, labels), m) ->
        match m with
        | C c ->
            ( entry name labels [ ("value", Json.int (counter_value c)) ] :: cs,
              gs, hs )
        | G g ->
            ( cs,
              entry name labels [ ("value", finite_float (gauge_value g)) ] :: gs,
              hs )
        | H h ->
            let bs =
              List.map
                (fun (le, count) ->
                  Json.obj [ ("le", Json.float le); ("count", Json.int count) ])
                (buckets h)
            in
            ( cs, gs,
              entry name labels
                [
                  ("count", Json.int (hist_count h));
                  ("sum", finite_float (hist_sum h));
                  ("buckets", Json.List bs);
                ]
              :: hs ))
      ([], [], []) (entries ())
  in
  Json.obj
    [
      ("counters", Json.List (List.rev counters));
      ("gauges", Json.List (List.rev gauges));
      ("histograms", Json.List (List.rev histograms));
    ]

let summary_table () =
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Left; Table.Right; Table.Right; Table.Right;
                Table.Right ]
      [ "metric"; "kind"; "value"; "mean"; "p50"; "p95" ]
  in
  List.iter
    (fun ((name, labels), m) ->
      let id = name ^ label_string labels in
      match m with
      | C c ->
          Table.add_row t
            [ id; "counter"; string_of_int (counter_value c); ""; ""; "" ]
      | G g ->
          Table.add_row t
            [ id; "gauge"; Table.fmt_g (gauge_value g); ""; ""; "" ]
      | H h ->
          let count = hist_count h in
          let cell v = if count = 0 then "-" else Table.fmt_g v in
          Table.add_row t
            [
              id; "histogram"; string_of_int count;
              cell (if count = 0 then 0. else hist_sum h /. float_of_int count);
              cell (quantile h 0.5); cell (quantile h 0.95);
            ])
    (entries ());
  t
