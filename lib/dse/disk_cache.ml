(* Persistent on-disk tier under the in-memory [Eval] cache: one JSON
   record per evaluated (context, point) pair, so repeated studies - and
   separate processes - resume instead of re-simulating. Only the
   latencies are stored; everything else in a [Design.t] is derived
   deterministically from the built device, so [Design.of_latencies]
   reconstitutes a bitwise-equal value on load (the test suite asserts
   it). Latencies are stored as the hex of their IEEE-754 bits - exact by
   construction, and immune to any printer subtlety - with a readable
   decimal duplicate alongside for humans.

   A record's filename is a function of its context and point, so the
   tier keeps no index: [find] reads the one file that could hold the
   answer and [open_dir] never lists the directory, whatever its size.
   Writes go to a temp file in the same directory followed by a
   [Sys.rename], so a crash mid-write leaves at worst a [.part] file no
   lookup ever opens; a truncated or garbage record is counted in
   [stats.skipped] and is a miss, never fatal, and the next store of its
   point replaces it. Records carry a version field: bumping [version]
   orphans every existing entry, which is the invalidation story when the
   perf model changes. *)

module Json = Acs_util.Json

let version = 1
let default_dir = Filename.concat "results" "cache"

type stats = { hits : int; stores : int; skipped : int }

type t = {
  dir : string;
  ctx_tag : string;  (** hex of [Scenario.context_hash], for filenames *)
  ctx_str : string;  (** canonical context JSON, compared on lookup *)
  scenario : Scenario.t;
  mutable hits : int;
  mutable stores : int;
  mutable skipped : int;
}

(* The canonical context string: the scenario manifest restricted to the
   members [Scenario.context_equal] actually compares (model, request,
   calib, tp, tpp_target, memory_gb) - name, description, regime and the
   target are sliced off, so e.g. table4 and fig7-gpt3-2400 share disk
   entries exactly as they share the in-memory cache. *)
let context_keys = [ "model"; "request"; "calib"; "tp"; "tpp_target"; "memory_gb" ]

let context_string (s : Scenario.t) =
  let j = Scenario.to_json s in
  Json.to_string
    (Json.Obj
       (List.filter_map
          (fun k -> if Json.mem k j then Some (k, Json.member k j) else None)
          context_keys))

let float_bits f = Printf.sprintf "%016Lx" (Int64.bits_of_float f)
let bits_float s = Int64.float_of_bits (Int64.of_string ("0x" ^ s))

let entry_path t p =
  (* Content-addressed name: context hash, then two independent hashes of
     the point (the lattice hash plus a string hash of its JSON), so
     distinct points collide with negligible probability and a rewrite of
     the same point lands on the same file (idempotent). *)
  let pj = Json.to_string (Space.params_to_json p) in
  Printf.sprintf "acs-%s-%015x%08x.json" t.ctx_tag
    (Space.params_hash p land 0xfff_ffff_ffff_ffff)
    (Hashtbl.hash pj land 0xffff_ffff)
  |> Filename.concat t.dir

let open_dir ~dir scenario =
  Acs_util.Fs.mkdir_p dir;
  {
    dir;
    ctx_tag = Printf.sprintf "%015x" (Scenario.context_hash scenario land max_int);
    ctx_str = context_string scenario;
    scenario;
    hits = 0;
    stores = 0;
    skipped = 0;
  }

(* A record is a few hundred bytes. Anything far longer - or a directory
   or device, whose length says nothing - is not one, and is never read
   into memory. *)
let max_record_bytes = 1 lsl 16

exception Foreign

(* The record in [ic], which sits at [p]'s path: [`Hit] its design;
   [`Miss] a healthy record of another context or point - the hashes in
   its name collided - which is left alone; [`Skip] a record that cannot
   be read, does not parse or was written by another [version]. *)
let decode t p ic =
  try
    let n = in_channel_length ic in
    if n > max_record_bytes then failwith "oversized cache record";
    let j = Json.of_string (really_input_string ic n) in
    let field f name = f (Json.member name j) in
    if field Json.to_int "version" <> version then failwith "stale cache record";
    let q = field Space.params_of_json "params" in
    if field Json.to_str "context" <> t.ctx_str || not (Space.params_equal p q) then
      raise Foreign;
    let s = t.scenario in
    let device =
      Space.build ?memory_gb:s.Scenario.memory_gb ~tpp_target:s.Scenario.tpp_target q
    in
    `Hit
      (Design.of_latencies q device
         ~ttft_s:(bits_float (field Json.to_str "ttft_bits"))
         ~tbt_s:(bits_float (field Json.to_str "tbt_bits")))
  with
  | Foreign -> `Miss
  | _ -> `Skip

let find t p =
  match open_in_bin (entry_path t p) with
  | exception Sys_error _ -> None (* no record: the usual miss *)
  | ic -> (
      match Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> decode t p ic) with
      | `Hit d ->
          t.hits <- t.hits + 1;
          Some d
      | `Miss -> None
      | `Skip ->
          t.skipped <- t.skipped + 1;
          None)

let store t p (d : Design.t) =
  let finite_or_null f = if Float.is_finite f then Json.float f else Json.Null in
  let record =
    Json.obj
      [
        ("version", Json.int version);
        ("context", Json.string t.ctx_str);
        ("params", Space.params_to_json p);
        ("ttft_bits", Json.string (float_bits d.Design.ttft_s));
        ("tbt_bits", Json.string (float_bits d.Design.tbt_s));
        (* Readable duplicates, informational only (dropped when not
           finite - JSON has no literal for nan/infinity). *)
        ("ttft_s", finite_or_null d.Design.ttft_s);
        ("tbt_s", finite_or_null d.Design.tbt_s);
      ]
  in
  let tmp, oc =
    Filename.open_temp_file ~mode:[ Open_binary ] ~temp_dir:t.dir "acs_write" ".part"
  in
  match
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc (Json.to_string ~indent:2 record);
        close_out oc);
    Sys.rename tmp (entry_path t p)
  with
  | () -> t.stores <- t.stores + 1
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      (try Sys.remove tmp with Sys_error _ -> ());
      Printexc.raise_with_backtrace e bt

let stats t = { hits = t.hits; stores = t.stores; skipped = t.skipped }
