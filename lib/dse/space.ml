module Device = Acs_hardware.Device
module Systolic = Acs_hardware.Systolic

(* The paper's sweeps fix the clock at the A100's 1410 MHz; the widened
   space below makes it a first-class axis. Keeping the default exactly
   [Device.default_frequency_mhz] means every pre-existing sweep builds
   bit-identical devices. *)
let default_clock_mhz = Device.default_frequency_mhz

type sweep = {
  systolic_dims : int list;
  lanes_per_core : int list;
  l1_kb : float list;
  l2_mb : float list;
  memory_bw_tb_s : float list;
  device_bw_gb_s : float list;
  clock_mhz : float list;
}

let table3 ~device_bw =
  {
    systolic_dims = [ 16; 32 ];
    lanes_per_core = [ 1; 2; 4; 8 ];
    l1_kb = [ 192.; 256.; 512.; 1024. ];
    l2_mb = [ 32.; 48.; 64.; 80. ];
    memory_bw_tb_s = [ 2.; 2.4; 2.8; 3.2 ];
    device_bw_gb_s = device_bw;
    clock_mhz = [ default_clock_mhz ];
  }

let oct2022 = table3 ~device_bw:[ 600. ]
let oct2023 = table3 ~device_bw:[ 500.; 700.; 900. ]

let restricted =
  {
    systolic_dims = [ 4; 8; 16 ];
    lanes_per_core = [ 1; 2; 4; 8 ];
    l1_kb = [ 32.; 64.; 128.; 192. ];
    l2_mb = [ 8.; 16.; 32.; 40. ];
    memory_bw_tb_s = [ 0.8; 1.2; 1.6; 2. ];
    device_bw_gb_s = [ 400.; 500.; 600. ];
    clock_mhz = [ default_clock_mhz ];
  }

(* Axis generators for the widened space. HBM stacks are the memory-bw
   axis quantized to whole 400 GB/s stacks ([Memory.make] derives the
   stack count back from the bandwidth); dividing by 1000 after the
   integer multiply keeps the values on the same floats the hand-written
   sweeps use (e.g. [1.2], not [3. *. 0.4]). *)
let lin_axis ~lo ~step n = List.init n (fun i -> lo +. (step *. float_of_int i))

let hbm_stack_axis n =
  let stack_gb_s = Acs_hardware.Memory.stack_bandwidth /. Acs_util.Units.giga in
  List.init n (fun i -> float_of_int (i + 1) *. stack_gb_s /. 1000.)

let widened =
  {
    systolic_dims = [ 4; 8; 12; 16; 20; 24; 28; 32; 48; 64 ];
    lanes_per_core = [ 1; 2; 3; 4; 5; 6; 7; 8 ];
    l1_kb = lin_axis ~lo:32. ~step:32. 32;
    l2_mb = lin_axis ~lo:4. ~step:4. 32;
    memory_bw_tb_s = hbm_stack_axis 16;
    device_bw_gb_s = lin_axis ~lo:100. ~step:100. 16;
    clock_mhz = lin_axis ~lo:900. ~step:25. 49;
  }

let named =
  [
    ("oct2022", oct2022);
    ("oct2023", oct2023);
    ("restricted", restricted);
    ("widened", widened);
  ]
let find_named name = List.assoc_opt (String.lowercase_ascii (String.trim name)) named
let name_of s = List.find_map (fun (n, s') -> if s = s' then Some n else None) named

let size (s : sweep) =
  List.length s.systolic_dims * List.length s.lanes_per_core
  * List.length s.l1_kb * List.length s.l2_mb
  * List.length s.memory_bw_tb_s
  * List.length s.device_bw_gb_s
  * List.length s.clock_mhz

type params = {
  systolic_dim : int;
  lanes : int;
  l1 : float;
  l2 : float;
  memory_bw : float;
  device_bw : float;
  clock_mhz : float;
}

(* The clock loop is innermost so pre-existing (singleton-clock) sweeps
   keep their historical enumeration order - the golden CSVs pin it. *)
let enumerate (s : sweep) =
  let acc = ref [] in
  List.iter
    (fun systolic_dim ->
      List.iter
        (fun lanes ->
          List.iter
            (fun l1 ->
              List.iter
                (fun l2 ->
                  List.iter
                    (fun memory_bw ->
                      List.iter
                        (fun device_bw ->
                          List.iter
                            (fun clock_mhz ->
                              acc :=
                                {
                                  systolic_dim;
                                  lanes;
                                  l1;
                                  l2;
                                  memory_bw;
                                  device_bw;
                                  clock_mhz;
                                }
                                :: !acc)
                            s.clock_mhz)
                        s.device_bw_gb_s)
                    s.memory_bw_tb_s)
                s.l2_mb)
            s.l1_kb)
        s.lanes_per_core)
    s.systolic_dims;
  List.rev !acc

(* --- structural equality and hashing ---

   The [Eval] cache keys on these; they live here (not in [Scenario]) so a
   per-point key can hash raw [params] without allocating a scenario.
   Floats go through [Float.compare], making nan equal to itself and [-0.]
   equal to [0.] - the polymorphic [=] returns false on nan, which would
   make a nan-bearing key unfindable. The hash normalizes the same two
   cases (every nan to one constant, [-0.] folded onto [0.] by adding [0.]
   before taking its bits), keeping it consistent with equality. *)

let float_eq a b = Float.compare a b = 0
let list_eq eq a b = List.compare_lengths a b = 0 && List.for_all2 eq a b

(* Hash combination: h <+> x folds one component in; [land max_int] keeps
   the value non-negative on 63-bit ints. *)
let ( <+> ) h x = ((h * 31) + x) land max_int

let float_hash f =
  if Float.is_nan f then 0x7ff8
  else Int64.to_int (Int64.bits_of_float (f +. 0.)) land max_int

let list_hash hash xs = List.fold_left (fun h x -> h <+> hash x) 23 xs

(* splitmix64's steps on 63-bit ints; its multipliers are cut to 62
   bits so that they fit an OCaml int, and stay odd. *)
let mix h =
  let h = (h lxor (h lsr 31)) * 0x3f58476d1ce4e5b9 in
  let h = (h lxor (h lsr 27)) * 0x14d049bb133111eb in
  (h lxor (h lsr 31)) land max_int

let params_equal (a : params) (b : params) =
  a.systolic_dim = b.systolic_dim
  && a.lanes = b.lanes
  && float_eq a.l1 b.l1
  && float_eq a.l2 b.l2
  && float_eq a.memory_bw b.memory_bw
  && float_eq a.device_bw b.device_bw
  && float_eq a.clock_mhz b.clock_mhz

let params_hash (p : params) =
  p.systolic_dim <+> p.lanes <+> float_hash p.l1 <+> float_hash p.l2
  <+> float_hash p.memory_bw <+> float_hash p.device_bw
  <+> float_hash p.clock_mhz

let sweep_equal (a : sweep) (b : sweep) =
  list_eq ( = ) a.systolic_dims b.systolic_dims
  && list_eq ( = ) a.lanes_per_core b.lanes_per_core
  && list_eq float_eq a.l1_kb b.l1_kb
  && list_eq float_eq a.l2_mb b.l2_mb
  && list_eq float_eq a.memory_bw_tb_s b.memory_bw_tb_s
  && list_eq float_eq a.device_bw_gb_s b.device_bw_gb_s
  && list_eq float_eq a.clock_mhz b.clock_mhz

let sweep_hash (s : sweep) =
  list_hash Fun.id s.systolic_dims
  <+> list_hash Fun.id s.lanes_per_core
  <+> list_hash float_hash s.l1_kb
  <+> list_hash float_hash s.l2_mb
  <+> list_hash float_hash s.memory_bw_tb_s
  <+> list_hash float_hash s.device_bw_gb_s
  <+> list_hash float_hash s.clock_mhz

(* [Printf.sprintf "dse-%.0f" tpp_target], byte for byte. A positive
   integral target below 1e15 (every registry target) prints the same
   digits through [string_of_int], without the format interpreter that
   otherwise takes most of a build. *)
let device_name tpp_target =
  if Float.is_integer tpp_target && 0. < tpp_target && tpp_target < 1e15 then
    "dse-" ^ string_of_int (int_of_float tpp_target)
  else Printf.sprintf "dse-%.0f" tpp_target

let build ?(memory_gb = 80.) ~tpp_target p =
  let name = device_name tpp_target in
  let systolic = Systolic.square p.systolic_dim in
  let cores =
    Device.cores_for_tpp ~tpp:tpp_target ~lanes_per_core:p.lanes ~systolic
      ~frequency_mhz:p.clock_mhz ()
  in
  (* [cores_for_tpp] keeps TPP <= target; the rules use ">= threshold", so
     back off one core when the bound is hit exactly. *)
  let probe c =
    Device.make ~name ~core_count:c
      ~lanes_per_core:p.lanes ~systolic ~l1_kb:p.l1 ~l2_mb:p.l2
      ~frequency_mhz:p.clock_mhz
      ~memory:(Acs_hardware.Memory.make ~capacity_gb:memory_gb ~bandwidth_tb_s:p.memory_bw)
      ~interconnect:(Acs_hardware.Interconnect.of_total_gb_s p.device_bw)
      ()
  in
  let dev = probe cores in
  if Device.tpp dev >= tpp_target && cores > 1 then probe (cores - 1) else dev

let designs ?memory_gb ~tpp_target s =
  Acs_util.Parallel.map (build ?memory_gb ~tpp_target) (enumerate s)

let constrain ?market ?memory_gb ~regime ~tpp_target s =
  (* Building a device and its area model is cheap next to simulating it,
     so compliance prunes the sweep before any evaluation happens. *)
  let keep p =
    not
      (Acs_policy.Regime.regulated ?market regime
         (Acs_policy.Regime.of_device (build ?memory_gb ~tpp_target p)))
  in
  List.filter keep (enumerate s)

(* --- JSON codecs --- *)

module Json = Acs_util.Json

(* The clock member is emitted only away from the 1410 MHz default so
   pre-widening manifests and dumps stay byte-stable; reading defaults it
   back, which keeps the codec an exact round-trip either way. *)
let params_to_json p =
  Json.obj
    [
      ("systolic_dim", Json.int p.systolic_dim);
      ("lanes", Json.int p.lanes);
      ("l1_kb", Json.float p.l1);
      ("l2_mb", Json.float p.l2);
      ("memory_bw_tb_s", Json.float p.memory_bw);
      ("device_bw_gb_s", Json.float p.device_bw);
      ( "clock_mhz",
        if float_eq p.clock_mhz default_clock_mhz then Json.Null
        else Json.float p.clock_mhz );
    ]

let params_of_json j =
  {
    systolic_dim = Json.to_int (Json.member "systolic_dim" j);
    lanes = Json.to_int (Json.member "lanes" j);
    l1 = Json.to_float (Json.member "l1_kb" j);
    l2 = Json.to_float (Json.member "l2_mb" j);
    memory_bw = Json.to_float (Json.member "memory_bw_tb_s" j);
    device_bw = Json.to_float (Json.member "device_bw_gb_s" j);
    clock_mhz =
      (if Json.mem "clock_mhz" j then Json.to_float (Json.member "clock_mhz" j)
       else default_clock_mhz);
  }

let sweep_to_json s =
  (* The three paper sweeps serialize by name, keeping manifests readable
     and diff-stable against future parameter edits. *)
  match name_of s with
  | Some n -> Json.string n
  | None ->
      Json.obj
        [
          ("systolic_dims", Json.list Json.int s.systolic_dims);
          ("lanes_per_core", Json.list Json.int s.lanes_per_core);
          ("l1_kb", Json.list Json.float s.l1_kb);
          ("l2_mb", Json.list Json.float s.l2_mb);
          ("memory_bw_tb_s", Json.list Json.float s.memory_bw_tb_s);
          ("device_bw_gb_s", Json.list Json.float s.device_bw_gb_s);
          ( "clock_mhz",
            if list_eq float_eq s.clock_mhz [ default_clock_mhz ] then Json.Null
            else Json.list Json.float s.clock_mhz );
        ]

let sweep_of_json = function
  | Json.String name -> begin
      match find_named name with
      | Some s -> s
      | None ->
          raise
            (Json.Error
               (Printf.sprintf "unknown design space %S (known: %s)" name
                  (String.concat ", " (List.map fst named))))
    end
  | j ->
      let ints k = List.map Json.to_int (Json.to_list (Json.member k j)) in
      let floats k = List.map Json.to_float (Json.to_list (Json.member k j)) in
      let s =
        {
          systolic_dims = ints "systolic_dims";
          lanes_per_core = ints "lanes_per_core";
          l1_kb = floats "l1_kb";
          l2_mb = floats "l2_mb";
          memory_bw_tb_s = floats "memory_bw_tb_s";
          device_bw_gb_s = floats "device_bw_gb_s";
          clock_mhz =
            (if Json.mem "clock_mhz" j then floats "clock_mhz"
             else [ default_clock_mhz ]);
        }
      in
      if size s = 0 then raise (Json.Error "design space has an empty axis");
      s
