open Core
open Helpers

(* Table *)

let t_table_render () =
  let t = Table.create ~aligns:[ Table.Left; Table.Right ] [ "name"; "value" ] in
  Table.add_row t [ "a"; "1" ];
  Table.add_row t [ "bb"; "22" ];
  let s = Table.to_string t in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "line count" 4 (List.length lines);
  Alcotest.(check string) "header" "name  value" (List.nth lines 0);
  Alcotest.(check string) "row 1" "a         1" (List.nth lines 2);
  Alcotest.(check string) "row 2" "bb       22" (List.nth lines 3)

let t_table_padding () =
  let t = Table.create [ "a"; "b"; "c" ] in
  Table.add_row t [ "x" ];
  let s = Table.to_string t in
  Alcotest.(check bool) "renders" true (String.length s > 0);
  check_raises_invalid "too many cells" (fun () ->
      Table.add_row t [ "1"; "2"; "3"; "4" ])

let t_table_float_rows () =
  let t = Table.create [ "k"; "v" ] in
  Table.add_float_row t "pi" [ 3.14159 ];
  Alcotest.(check bool) "formats" true
    (String.length (Table.to_string t) > 0);
  Alcotest.(check string) "fmt_g" "3.142" (Table.fmt_g 3.14159);
  Alcotest.(check string) "fmt_pct" "-27.0%" (Table.fmt_pct (-0.27));
  Alcotest.(check string) "fmt_pct positive" "+4.0%" (Table.fmt_pct 0.04)

let t_table_align_mismatch () =
  check_raises_invalid "aligns mismatch" (fun () ->
      Table.create ~aligns:[ Table.Left ] [ "a"; "b" ])

(* Scatter *)

let t_scatter_empty () =
  let p = Scatter.create ~xlabel:"x" ~ylabel:"y" () in
  Alcotest.(check string) "empty" "(empty plot)" (Scatter.render p)

let t_scatter_points () =
  let p = Scatter.create ~width:20 ~height:8 ~xlabel:"x" ~ylabel:"y" () in
  Scatter.add p ~marker:'o' ~x:0. ~y:0.;
  Scatter.add p ~marker:'x' ~x:10. ~y:5.;
  let s = Scatter.render p in
  Alcotest.(check bool) "has o" true (String.contains s 'o');
  Alcotest.(check bool) "has x" true (String.contains s 'x');
  Alcotest.(check bool) "axis range" true
    (String.length s > 0
    && String.split_on_char '\n' s |> List.length > 8)

let t_scatter_degenerate () =
  let p = Scatter.create ~xlabel:"x" ~ylabel:"y" () in
  Scatter.add p ~marker:'*' ~x:5. ~y:5.;
  (* A single point must not divide by a zero extent. *)
  Alcotest.(check bool) "renders" true (String.contains (Scatter.render p) '*')

let t_scatter_series () =
  let p = Scatter.create ~xlabel:"x" ~ylabel:"y" () in
  Scatter.add_series p ~marker:'+' [ (1., 1.); (2., 2.); (3., 3.) ];
  Alcotest.(check bool) "renders" true (String.contains (Scatter.render p) '+');
  check_raises_invalid "too small" (fun () ->
      Scatter.create ~width:2 ~height:2 ~xlabel:"x" ~ylabel:"y" ())

(* Boxplot *)

let t_boxplot_renders () =
  let series =
    [
      { Boxplot.label = "all"; values = [ 1.; 2.; 3.; 4.; 10. ] };
      { Boxplot.label = "narrow"; values = [ 5.; 5.1; 5.2 ] };
    ]
  in
  let s = Boxplot.render ~width:40 series in
  let lines = String.split_on_char '\n' s in
  (* Two series lines plus the axis line (and a trailing empty split). *)
  Alcotest.(check int) "line count" 4 (List.length lines);
  Alcotest.(check bool) "median marker" true (String.contains s '#');
  Alcotest.(check bool) "box edges" true
    (String.contains s '[' && String.contains s ']');
  Alcotest.(check bool) "labels present" true
    (String.length s > 0
    && List.exists (fun l -> String.length l >= 3 && String.sub l 0 3 = "all") lines)

let t_boxplot_degenerate () =
  (* A constant series must not divide by a zero span. *)
  let s =
    Boxplot.render [ { Boxplot.label = "const"; values = [ 7.; 7.; 7. ] } ]
  in
  Alcotest.(check bool) "renders" true (String.contains s '#');
  check_raises_invalid "empty series list" (fun () -> ignore (Boxplot.render []));
  check_raises_invalid "empty values" (fun () ->
      ignore (Boxplot.render [ { Boxplot.label = "x"; values = [] } ]));
  check_raises_invalid "tiny width" (fun () ->
      ignore
        (Boxplot.render ~width:4 [ { Boxplot.label = "x"; values = [ 1. ] } ]))

let t_scatter_nonfinite () =
  (* A non-finite coordinate would reach [int_of_float] through the
     placement fraction (undefined in OCaml), so [add] must reject it
     up front. *)
  let p = Scatter.create ~xlabel:"x" ~ylabel:"y" () in
  check_raises_invalid "nan x" (fun () ->
      Scatter.add p ~marker:'o' ~x:nan ~y:1.);
  check_raises_invalid "inf y" (fun () ->
      Scatter.add p ~marker:'o' ~x:1. ~y:infinity);
  check_raises_invalid "-inf x" (fun () ->
      Scatter.add p ~marker:'o' ~x:neg_infinity ~y:1.);
  (* The rejected points left no state behind. *)
  Alcotest.(check string) "still empty" "(empty plot)" (Scatter.render p)

let t_scatter_zero_range () =
  (* Degenerate on one axis only: every x equal, y spread (and the
     transpose). The zero-extent axis must clamp, not divide to nan. *)
  let p = Scatter.create ~width:20 ~height:8 ~xlabel:"x" ~ylabel:"y" () in
  Scatter.add p ~marker:'a' ~x:3. ~y:1.;
  Scatter.add p ~marker:'b' ~x:3. ~y:9.;
  let s = Scatter.render p in
  Alcotest.(check bool) "both markers" true
    (String.contains s 'a' && String.contains s 'b');
  let q = Scatter.create ~width:20 ~height:8 ~xlabel:"x" ~ylabel:"y" () in
  Scatter.add q ~marker:'c' ~x:1. ~y:4.;
  Scatter.add q ~marker:'d' ~x:9. ~y:4.;
  let s = Scatter.render q in
  Alcotest.(check bool) "flat y renders" true
    (String.contains s 'c' && String.contains s 'd')

let t_boxplot_nonfinite () =
  check_raises_invalid "nan value" (fun () ->
      ignore
        (Boxplot.render [ { Boxplot.label = "x"; values = [ 1.; nan ] } ]));
  check_raises_invalid "inf value" (fun () ->
      ignore
        (Boxplot.render
           [ { Boxplot.label = "x"; values = [ 1.; infinity ] } ]));
  check_raises_invalid "-inf value" (fun () ->
      ignore
        (Boxplot.render
           [ { Boxplot.label = "x"; values = [ neg_infinity; 1. ] } ]))

(* Fs *)

let t_mkdir_p () =
  with_cache_dir @@ fun dir ->
  let deep = Filename.concat (Filename.concat dir "a") "b/c" in
  Fs.mkdir_p deep;
  Alcotest.(check bool) "created" true (Sys.is_directory deep);
  (* Idempotent on an existing tree. *)
  Fs.mkdir_p deep;
  Alcotest.(check bool) "still there" true (Sys.is_directory deep);
  (* A file in the way is an error, not a silent success. *)
  let file = Filename.concat dir "plain" in
  let oc = open_out file in
  close_out oc;
  (match Fs.mkdir_p file with
  | () -> Alcotest.fail "mkdir_p over a file: expected Sys_error"
  | exception Sys_error _ -> ());
  match Fs.mkdir_p (Filename.concat file "sub") with
  | () -> Alcotest.fail "mkdir_p under a file: expected Sys_error"
  | exception Sys_error _ -> ()

(* Csv *)

let t_csv_escape () =
  Alcotest.(check string) "plain" "abc" (Csv.escape "abc");
  Alcotest.(check string) "comma" "\"a,b\"" (Csv.escape "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\"" (Csv.escape "a\"b");
  Alcotest.(check string) "row" "a,\"b,c\",d"
    (Csv.row_to_string [ "a"; "b,c"; "d" ])

let t_csv_cr_escape () =
  (* A bare CR splits the record for CRLF-aware readers, so it must force
     quoting just like LF does. *)
  Alcotest.(check string) "cr" "\"a\rb\"" (Csv.escape "a\rb");
  Alcotest.(check string) "lf" "\"a\nb\"" (Csv.escape "a\nb");
  Alcotest.(check string) "crlf" "\"a\r\nb\"" (Csv.escape "a\r\nb")

let t_csv_parse_row () =
  Alcotest.(check (list string)) "plain" [ "a"; "b"; "c" ]
    (Csv.parse_row "a,b,c");
  Alcotest.(check (list string)) "quoted comma" [ "a,b"; "c" ]
    (Csv.parse_row "\"a,b\",c");
  Alcotest.(check (list string)) "escaped quote" [ "a\"b" ]
    (Csv.parse_row "\"a\"\"b\"");
  Alcotest.(check (list string)) "empty cells" [ ""; ""; "" ]
    (Csv.parse_row ",,")

let cell_gen =
  (* Printable ASCII plus the separators/quotes/newlines that exercise the
     quoting rules. *)
  QCheck.Gen.(
    string_size (int_range 0 12)
      ~gen:
        (frequency
           [ (6, printable); (2, oneofl [ ','; '"'; '\n'; '\r' ]) ]))

let prop_csv_round_trip =
  qcheck "parse_row (row_to_string cells) == cells"
    QCheck.(
      make
        ~print:(fun cs -> String.concat "|" cs)
        Gen.(list_size (int_range 1 8) cell_gen))
    (fun cells -> Csv.parse_row (Csv.row_to_string cells) = cells)

let t_csv_write () =
  let path = Filename.concat (Filename.get_temp_dir_name ()) "acs_test/out.csv" in
  Csv.write ~path ~header:[ "x"; "y" ] [ [ "1"; "2" ]; [ "3"; "4" ] ];
  let ic = open_in path in
  let line1 = input_line ic in
  let line2 = input_line ic in
  close_in ic;
  Alcotest.(check string) "header" "x,y" line1;
  Alcotest.(check string) "row" "1,2" line2

(* Json *)

let t_json_parse () =
  let v =
    Json.of_string
      {| { "a": [1, 2.5, -3e2], "b": "x\ny \u0041\uD83D\uDE00", "c": {"d": null, "e": true} } |}
  in
  Alcotest.(check bool) "array" true
    (Json.member "a" v = Json.List [ Json.Number 1.; Json.Number 2.5; Json.Number (-300.) ]);
  Alcotest.(check string) "escapes + surrogate pair" "x\ny A\xF0\x9F\x98\x80"
    (Json.to_str (Json.member "b" v));
  Alcotest.(check bool) "null member" true
    (Json.member "d" (Json.member "c" v) = Json.Null);
  Alcotest.(check bool) "absent member is Null" true
    (Json.member "zzz" v = Json.Null);
  Alcotest.(check bool) "mem" true
    (Json.mem "d" (Json.member "c" v) && not (Json.mem "zzz" v))

let t_json_errors () =
  let fails s =
    match Json.of_string s with
    | exception Json.Error _ -> ()
    | _ -> Alcotest.failf "expected Json.Error on %S" s
  in
  List.iter fails
    [
      ""; "{"; "[1,]"; "{\"a\" 1}"; "nul"; "\"unterminated"; "1 2";
      "\"\\uD800x\""; "\"\\q\""; "01a";
    ];
  (match Json.to_int (Json.Number 1.5) with
  | exception Json.Error _ -> ()
  | _ -> Alcotest.fail "to_int on 1.5 must fail");
  check_raises_invalid "nan has no encoding" (fun () ->
      ignore (Json.to_string (Json.Number Float.nan)))

let t_json_depth_cap () =
  (* n nested arrays, or n nested single-member objects. *)
  let arrays n = String.make n '[' ^ String.make n ']' in
  let objects n =
    String.concat "" (List.init n (fun _ -> {|{"k":|})) ^ "1" ^ String.make n '}'
  in
  let depth_of s =
    let rec go = function
      | Json.List [] -> 1
      | Json.List (v :: _) | Json.Obj [ (_, v) ] -> 1 + go v
      | _ -> 0
    in
    go (Json.of_string s)
  in
  List.iter
    (fun (what, nest) ->
      Alcotest.(check int) (what ^ " at the cap parse") Json.max_depth
        (depth_of (nest Json.max_depth));
      match Json.of_string (nest (Json.max_depth + 1)) with
      | exception Json.Error _ -> ()
      | _ -> Alcotest.failf "%s one past the cap must fail" what)
    [ ("arrays", arrays); ("objects", objects) ];
  (* The daemon's largest body, all '[': refused at the cap, not after
     recursing through 8 MB. *)
  match Json.of_string (String.make 8_000_000 '[') with
  | exception Json.Error _ -> ()
  | _ -> Alcotest.fail "8 MB of '[' must fail"

let t_json_print () =
  let v = Json.obj [ ("keep", Json.int 1); ("drop", Json.option Json.float None) ] in
  Alcotest.(check string) "obj drops Null members" {|{"keep":1}|}
    (Json.to_string v);
  Alcotest.(check string) "indent"
    "{\n  \"keep\": 1\n}"
    (Json.to_string ~indent:2 v)

let json_arb =
  let open QCheck.Gen in
  let finite_float =
    oneof
      [
        float_bound_inclusive 1e6;
        map float_of_int int;
        map (fun f -> if Float.is_finite f then f else 0.) float;
        oneofl [ 0.; -0.; 1e-7; 2.5; max_float; -1.0000000000000002 ];
      ]
  in
  let key = string_size ~gen:printable (int_range 0 6) in
  let gen =
    sized
    @@ fix (fun self n ->
           let scalar =
             oneof
               [
                 return Json.Null;
                 map (fun b -> Json.Bool b) bool;
                 map (fun f -> Json.Number f) finite_float;
                 map (fun s -> Json.String s) (string_size (int_range 0 8));
               ]
           in
           if n = 0 then scalar
           else
             frequency
               [
                 (2, scalar);
                 (1, map (fun l -> Json.List l) (list_size (int_range 0 4) (self (n / 2))));
                 (1, map (fun l -> Json.Obj l)
                       (list_size (int_range 0 4) (pair key (self (n / 2)))));
               ])
  in
  QCheck.make ~print:(fun v -> Json.to_string ~indent:2 v) gen

let prop_json_round_trip =
  qcheck "Json.of_string (to_string v) = v" json_arb (fun v ->
      Json.of_string (Json.to_string v) = v
      && Json.of_string (Json.to_string ~indent:2 v) = v)

(* Units *)

let t_units () =
  check_close "gb" 80e9 (Units.gb 80.);
  check_close "tbps" 2e12 (Units.tbps 2.);
  check_close "kb" 192e3 (Units.kb 192.);
  check_close "mhz" 1.41e9 (Units.mhz 1410.);
  check_close "to_ms" 1.5 (Units.to_ms 0.0015);
  check_close "to_us" 25. (Units.to_us 25e-6)

let t_units_pp () =
  Alcotest.(check string) "bytes" "40 MB" (Format.asprintf "%a" Units.pp_bytes 40e6);
  Alcotest.(check string) "bw" "600 GB/s"
    (Format.asprintf "%a" Units.pp_bandwidth 600e9);
  Alcotest.(check string) "time ms" "1.43 ms"
    (Format.asprintf "%a" Units.pp_time 0.00143)

(* Heap *)

let t_heap_basics () =
  let h = Heap.create ~cmp:compare in
  Alcotest.(check bool) "fresh heap empty" true (Heap.is_empty h);
  Alcotest.(check (option unit)) "pop empty" None
    (Option.map (fun _ -> ()) (Heap.pop h));
  Heap.push h 3 "c";
  Heap.push h 1 "a";
  Heap.push h 2 "b";
  Alcotest.(check int) "length" 3 (Heap.length h);
  Alcotest.(check (option int)) "min key peek" (Some 1) (Heap.min_key h);
  Alcotest.(check (list (pair int string)))
    "ordered drain"
    [ (1, "a"); (2, "b"); (3, "c") ]
    (Heap.drain h);
  Alcotest.(check bool) "drained empty" true (Heap.is_empty h)

let t_heap_stability () =
  (* Equal keys must drain in insertion order: the fleet's decode
     re-arrivals tie on time and the tie-break decides routing order. *)
  let h = Heap.create ~cmp:(fun (a : float) b -> compare a b) in
  List.iteri (fun i k -> Heap.push h k i) [ 1.; 0.5; 1.; 0.5; 1.; 0.5 ];
  Alcotest.(check (list (pair (float 0.) int)))
    "ties drain FIFO"
    [ (0.5, 1); (0.5, 3); (0.5, 5); (1., 0); (1., 2); (1., 4) ]
    (Heap.drain h)

let prop_heap_sorts =
  qcheck "heap drains sorted and complete"
    QCheck.(list (int_range (-1000) 1000))
    (fun keys ->
      let h = Heap.create ~cmp:compare in
      List.iteri (fun i k -> Heap.push h k i) keys;
      let drained = Heap.drain h in
      let ks = List.map fst drained in
      ks = List.sort compare keys
      &&
      (* Stability, in general: equal keys carry increasing payloads
         (payload = push index). *)
      let rec stable = function
        | (k1, v1) :: ((k2, v2) :: _ as rest) ->
            (k1 < k2 || v1 < v2) && stable rest
        | _ -> true
      in
      stable drained)

let prop_heap_interleaved =
  qcheck "heap pop is min under interleaved push/pop"
    QCheck.(list (option (int_range 0 100)))
    (fun ops ->
      (* Some k = push k, None = pop; mirror against a sorted list. *)
      let h = Heap.create ~cmp:compare in
      let model = ref [] in
      List.for_all
        (fun op ->
          match op with
          | Some k ->
              Heap.push h k ();
              model := List.merge compare [ k ] !model;
              true
          | None -> (
              match (Heap.pop h, !model) with
              | None, [] -> true
              | Some (k, ()), m :: rest ->
                  model := rest;
                  k = m
              | _ -> false))
        ops
      && Heap.length h = List.length !model)

let suite =
  [
    test "heap basics" t_heap_basics;
    test "heap equal keys drain FIFO" t_heap_stability;
    prop_heap_sorts;
    prop_heap_interleaved;
    test "table renders aligned" t_table_render;
    test "table pads short rows" t_table_padding;
    test "table float rows" t_table_float_rows;
    test "table align mismatch" t_table_align_mismatch;
    test "scatter empty" t_scatter_empty;
    test "scatter places markers" t_scatter_points;
    test "scatter single point" t_scatter_degenerate;
    test "scatter series" t_scatter_series;
    test "scatter rejects non-finite points" t_scatter_nonfinite;
    test "scatter zero-range axes" t_scatter_zero_range;
    test "boxplot rendering" t_boxplot_renders;
    test "boxplot edge cases" t_boxplot_degenerate;
    test "boxplot rejects non-finite values" t_boxplot_nonfinite;
    test "mkdir_p" t_mkdir_p;
    test "csv escaping" t_csv_escape;
    test "csv CR escaping" t_csv_cr_escape;
    test "csv row parsing" t_csv_parse_row;
    prop_csv_round_trip;
    test "csv writes files" t_csv_write;
    test "json parsing" t_json_parse;
    test "json malformed inputs" t_json_errors;
    test "json printing" t_json_print;
    prop_json_round_trip;
    test "unit conversions" t_units;
    test "unit pretty printing" t_units_pp;
    test "json nesting depth cap" t_json_depth_cap;
  ]
