(* Telemetry subsystem tests: JSON round-trips, span nesting on a
   deterministic clock, histogram bucketing, snapshot/diff, Chrome
   trace_event export shape, and the load-bearing property that
   installing collectors does not change compilation results. *)

module Json = Hlsb_telemetry.Json
module Clock = Hlsb_telemetry.Clock
module Trace = Hlsb_telemetry.Trace
module Metrics = Hlsb_telemetry.Metrics
module Pipeline = Core.Pipeline
module Style = Hlsb_ctrl.Style

(* A fake clock advancing 1 us per read keeps span durations exact. *)
let with_fake_clock f =
  let t = ref 0L in
  Clock.set_source (fun () ->
    t := Int64.add !t 1_000L;
    !t);
  Fun.protect ~finally:Clock.reset_source f

let uninstall_all () =
  Trace.uninstall ();
  Metrics.uninstall ()

(* ---- Json ---- *)

let sample_json =
  Json.Obj
    [
      ("null", Json.Null);
      ("bool", Json.Bool true);
      ("int", Json.Int (-42));
      ("float", Json.Float 2.5);
      ("big", Json.Float 1.2345678901234e17);
      ("str", Json.Str "a \"quoted\"\\\n\ttab\x01");
      ("list", Json.List [ Json.Int 1; Json.Str "two"; Json.List [] ]);
      ("obj", Json.Obj [ ("nested", Json.Obj []) ]);
    ]

let test_json_roundtrip () =
  List.iter
    (fun minify ->
      match Json.of_string (Json.to_string ~minify sample_json) with
      | Ok v ->
        Alcotest.(check bool)
          (Printf.sprintf "round-trip minify=%b" minify)
          true (Json.equal v sample_json)
      | Error e -> Alcotest.fail e)
    [ true; false ]

let test_json_numbers () =
  (* Integral floats keep a '.' so they come back as Float, not Int. *)
  (match Json.of_string (Json.to_string (Json.Float 3.0)) with
  | Ok (Json.Float f) -> Alcotest.(check (float 0.)) "3.0" 3.0 f
  | _ -> Alcotest.fail "expected Float");
  (match Json.of_string "17" with
  | Ok (Json.Int 17) -> ()
  | _ -> Alcotest.fail "expected Int 17");
  match Json.of_string "not json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted"

let test_json_member () =
  Alcotest.(check bool) "member" true
    (Json.member "int" sample_json = Some (Json.Int (-42)));
  Alcotest.(check bool) "missing" true (Json.member "nope" sample_json = None)

(* Every accessor names the field in its error, missing or mistyped. *)
let test_json_typed_fields () =
  let j =
    Json.Obj
      [
        ("s", Json.Str "x"); ("i", Json.Int 3); ("f", Json.Float 1.5);
        ("b", Json.Bool true); ("n", Json.Null);
      ]
  in
  Alcotest.(check bool) "str" true (Json.str_field "s" j = Ok "x");
  Alcotest.(check bool) "int" true (Json.int_field "i" j = Ok 3);
  Alcotest.(check bool) "float" true (Json.float_field "f" j = Ok 1.5);
  Alcotest.(check bool) "int widens to float" true
    (Json.float_field "i" j = Ok 3.);
  Alcotest.(check bool) "bool" true (Json.bool_field "b" j = Ok true);
  Alcotest.(check bool) "null optional" true
    (Json.opt_field Json.int_field "n" j = Ok None);
  Alcotest.(check bool) "missing optional" true
    (Json.opt_field Json.int_field "zz" j = Ok None);
  Alcotest.(check bool) "present optional" true
    (Json.opt_field Json.int_field "i" j = Ok (Some 3));
  let error name r =
    match r with
    | Ok _ -> Alcotest.failf "%s: expected an error" name
    | Error msg -> msg
  in
  Alcotest.(check string) "missing names the field" "field \"zz\" missing"
    (error "missing" (Json.int_field "zz" j));
  Alcotest.(check string) "mistyped names the field and the type"
    "field \"s\": expected int"
    (error "mistyped" (Json.int_field "s" j));
  List.iter
    (fun (name, r) ->
      Alcotest.(check bool) (name ^ " names the field") true
        (String.starts_with ~prefix:"field \"" (error name r)))
    [
      ("str", Json.str_field "i" j |> Result.map ignore);
      ("float", Json.float_field "s" j |> Result.map ignore);
      ("bool", Json.bool_field "n" j |> Result.map ignore);
      ("optional", Json.opt_field Json.str_field "i" j |> Result.map ignore);
      ("non-object", Json.str_field "s" (Json.List []) |> Result.map ignore);
    ]

(* ---- Trace ---- *)

let test_span_nesting () =
  with_fake_clock (fun () ->
    let t = Trace.create () in
    Trace.with_collector t (fun () ->
      Trace.with_span "root" (fun () ->
        Trace.with_span "child1" (fun () -> ());
        Trace.with_span ~attrs:[ ("k", Json.Int 7) ] "child2" (fun () ->
          Trace.with_span "grandchild" (fun () -> ()))));
    let spans = Trace.spans t in
    Alcotest.(check int) "span count" 4 (List.length spans);
    let names = List.map (fun s -> s.Trace.sp_name) spans in
    Alcotest.(check (list string)) "start order"
      [ "root"; "child1"; "child2"; "grandchild" ]
      names;
    let by_name n = List.find (fun s -> s.Trace.sp_name = n) spans in
    let root = by_name "root" in
    let c1 = by_name "child1" in
    let c2 = by_name "child2" in
    let gc = by_name "grandchild" in
    Alcotest.(check int) "root is root" (-1) root.Trace.sp_parent;
    Alcotest.(check int) "child1 parent" root.Trace.sp_id c1.Trace.sp_parent;
    Alcotest.(check int) "child2 parent" root.Trace.sp_id c2.Trace.sp_parent;
    Alcotest.(check int) "grandchild parent" c2.Trace.sp_id gc.Trace.sp_parent;
    Alcotest.(check int) "depths" 2 gc.Trace.sp_depth;
    Alcotest.(check bool) "attr recorded" true
      (List.mem_assoc "k" c2.Trace.sp_attrs);
    (* children are contained in the parent interval *)
    List.iter
      (fun c ->
        Alcotest.(check bool) "contained" true
          (c.Trace.sp_start_ns >= root.Trace.sp_start_ns
          && c.Trace.sp_stop_ns <= root.Trace.sp_stop_ns))
      [ c1; c2; gc ])

let test_span_exception_safety () =
  with_fake_clock (fun () ->
    let t = Trace.create () in
    (try
       Trace.with_collector t (fun () ->
         Trace.with_span "outer" (fun () ->
           Trace.with_span "thrower" (fun () -> failwith "boom")))
     with Failure _ -> ());
    Alcotest.(check int) "both spans closed" 2 (List.length (Trace.spans t));
    Alcotest.(check bool) "collector uninstalled" false (Trace.enabled ()))

let test_span_disabled_noop () =
  uninstall_all ();
  (* no collector: with_span is the identity on the thunk *)
  Alcotest.(check int) "passthrough" 41 (Trace.with_span "x" (fun () -> 41));
  Metrics.incr "ignored";
  Metrics.observe_int "ignored" 3;
  Alcotest.(check bool) "nothing installed" true
    ((not (Trace.enabled ())) && not (Metrics.enabled ()))

let test_chrome_export_shape () =
  with_fake_clock (fun () ->
    let t = Trace.create () in
    Trace.with_collector t (fun () ->
      Trace.with_span "a" (fun () -> Trace.with_span "b" (fun () -> ())));
    let j = Trace.to_chrome_json ~process_name:"test" t in
    (* must survive an encode/decode cycle *)
    let j =
      match Json.of_string (Json.to_string j) with
      | Ok v -> v
      | Error e -> Alcotest.fail e
    in
    match Json.member "traceEvents" j with
    | Some (Json.List events) ->
      (* process_name + one thread_name per domain, then one complete
         event per span *)
      Alcotest.(check int) "event count" 4 (List.length events);
      let phases =
        List.filter_map
          (fun e ->
            match Json.member "ph" e with Some (Json.Str p) -> Some p | _ -> None)
          events
      in
      Alcotest.(check (list string)) "phases" [ "M"; "M"; "X"; "X" ] phases;
      List.iter
        (fun e ->
          match (Json.member "ts" e, Json.member "dur" e) with
          | Some (Json.Float ts), Some (Json.Float dur) ->
            Alcotest.(check bool) "non-negative times" true (ts >= 0. && dur >= 0.)
          | _ -> (
            match Json.member "ph" e with
            | Some (Json.Str "M") -> ()
            | _ -> Alcotest.fail "event missing ts/dur"))
        events
    | _ -> Alcotest.fail "no traceEvents list")

(* ---- Metrics ---- *)

let test_counters_gauges () =
  let m = Metrics.create () in
  Metrics.with_registry m (fun () ->
    Metrics.incr "c";
    Metrics.incr ~by:4 "c";
    Metrics.set_gauge "g" 1.5;
    Metrics.set_gauge "g" 2.5);
  Alcotest.(check int) "counter" 5 (Metrics.counter_value m "c");
  Alcotest.(check int) "absent counter" 0 (Metrics.counter_value m "nope");
  Alcotest.(check bool) "gauge last-wins" true (Metrics.gauge_value m "g" = Some 2.5)

(* [~times:n] is n observations of one value: the same snapshot, first
   sample included. *)
let test_histogram_times () =
  let snap f =
    let m = Metrics.create () in
    Metrics.with_registry m f;
    Metrics.to_json (Metrics.snapshot m) |> Json.to_string
  in
  let values = [ (7, 3); (1, 1); (5000, 2); (2, 4); (7, 1) ] in
  Alcotest.(check string) "times = repeated observes"
    (snap (fun () ->
       List.iter
         (fun (v, n) ->
           for _ = 1 to n do
             Metrics.observe_int "h" v
           done)
         values))
    (snap (fun () ->
       List.iter (fun (v, n) -> Metrics.observe_int ~times:n "h" v) values));
  Alcotest.check_raises "times < 1"
    (Invalid_argument "Metrics.observe: times < 1") (fun () ->
      Metrics.observe ~times:0 "h" 1.)

let test_histogram_bucketing () =
  let m = Metrics.create () in
  Metrics.with_registry m (fun () ->
    (* default power-of-two buckets: 1,2,4,...,1024 *)
    List.iter (Metrics.observe_int "h") [ 1; 1; 2; 3; 9; 1024; 5000 ]);
  let snap = Metrics.snapshot m in
  match List.assoc_opt "h" snap.Metrics.sn_hists with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
    Alcotest.(check int) "count" 7 h.Metrics.hs_count;
    Alcotest.(check (float 0.)) "min" 1. h.Metrics.hs_min;
    Alcotest.(check (float 0.)) "max" 5000. h.Metrics.hs_max;
    let bucket upper =
      let rec idx i =
        if i >= Array.length h.Metrics.hs_buckets then i
        else if h.Metrics.hs_buckets.(i) = upper then i
        else idx (i + 1)
      in
      h.Metrics.hs_counts.(idx 0)
    in
    Alcotest.(check int) "<=1" 2 (bucket 1.);
    Alcotest.(check int) "<=2" 1 (bucket 2.);
    Alcotest.(check int) "<=4" 1 (bucket 4.);
    Alcotest.(check int) "<=16" 1 (bucket 16.);
    Alcotest.(check int) "<=1024" 1 (bucket 1024.);
    Alcotest.(check int) "overflow" 1
      h.Metrics.hs_counts.(Array.length h.Metrics.hs_buckets)

let test_metrics_json_shape () =
  let m = Metrics.create () in
  Metrics.with_registry m (fun () ->
    Metrics.incr "c";
    Metrics.set_gauge "g" 0.5;
    Metrics.observe_int "h" 3);
  let j = Metrics.to_json (Metrics.snapshot m) in
  let j =
    match Json.of_string (Json.to_string ~minify:false j) with
    | Ok v -> v
    | Error e -> Alcotest.fail e
  in
  (match Json.member "counters" j with
  | Some (Json.Obj [ ("c", Json.Int 1) ]) -> ()
  | _ -> Alcotest.fail "counters shape");
  match Option.bind (Json.member "histograms" j) (Json.member "h") with
  | Some h ->
    Alcotest.(check bool) "hist count" true (Json.member "count" h = Some (Json.Int 1));
    (match Json.member "buckets" h with
    | Some (Json.List (_ :: _)) -> ()
    | _ -> Alcotest.fail "buckets list")
  | None -> Alcotest.fail "histogram missing in JSON"

(* [Metrics.of_json] inverts [to_json], on the tree and through the
   printed text, including the nan extrema of an empty histogram
   (printed as null). *)
let test_metrics_json_roundtrip () =
  let m = Metrics.create () in
  Metrics.with_registry m (fun () ->
    Metrics.incr ~by:5 "c";
    Metrics.incr "d";
    Metrics.set_gauge "g" 0.25;
    Metrics.set_gauge "g.int" 7.;
    List.iter (Metrics.observe_int "h") [ 1; 3; 3; 900; 5000 ];
    Metrics.observe "idle" 1.);
  let after = Metrics.snapshot m in
  (* an empty histogram on its own bucket layout: no samples, so nan
     extrema *)
  let empty =
    {
      after with
      Metrics.sn_hists =
        [
          ( "idle",
            {
              Metrics.hs_buckets = [| 0.5; 1.5 |];
              hs_counts = [| 0; 0; 0 |];
              hs_count = 0;
              hs_sum = 0.;
              hs_min = nan;
              hs_max = nan;
            } );
        ];
    }
  in
  let same_hist (a : Metrics.hist_snap) (b : Metrics.hist_snap) =
    let same_float x y = x = y || (Float.is_nan x && Float.is_nan y) in
    a.Metrics.hs_buckets = b.Metrics.hs_buckets
    && a.Metrics.hs_counts = b.Metrics.hs_counts
    && a.Metrics.hs_count = b.Metrics.hs_count
    && same_float a.Metrics.hs_sum b.Metrics.hs_sum
    && same_float a.Metrics.hs_min b.Metrics.hs_min
    && same_float a.Metrics.hs_max b.Metrics.hs_max
  in
  let check name (s : Metrics.snapshot) (s' : Metrics.snapshot) =
    Alcotest.(check (list (pair string int)))
      (name ^ ": counters") s.Metrics.sn_counters s'.Metrics.sn_counters;
    Alcotest.(check (list (pair string (float 0.))))
      (name ^ ": gauges") s.Metrics.sn_gauges s'.Metrics.sn_gauges;
    Alcotest.(check (list string))
      (name ^ ": histogram names")
      (List.map fst s.Metrics.sn_hists)
      (List.map fst s'.Metrics.sn_hists);
    List.iter2
      (fun (k, h) (_, h') ->
        Alcotest.(check bool) (name ^ ": histogram " ^ k) true (same_hist h h'))
      s.Metrics.sn_hists s'.Metrics.sn_hists
  in
  List.iter
    (fun (name, s) ->
      let j = Metrics.to_json s in
      check (name ^ " tree") s (Metrics.of_json j);
      match Json.of_string (Json.to_string j) with
      | Error e -> Alcotest.fail e
      | Ok j -> check (name ^ " text") s (Metrics.of_json j))
    [ ("snapshot", after); ("empty", empty) ]

(* ---- Telemetry does not perturb compilation ---- *)

let compile_fingerprint (r : Pipeline.result) =
  let nl = r.fr_design.Hlsb_rtlgen.Design.netlist in
  ( r.fr_fmax_mhz,
    r.fr_critical_ns,
    (r.fr_lut_pct, r.fr_ff_pct, r.fr_bram_pct, r.fr_dsp_pct),
    Hlsb_netlist.Netlist.n_cells nl,
    Hlsb_netlist.Netlist.n_nets nl )

let prop_telemetry_transparent =
  QCheck.Test.make ~count:6 ~name:"telemetry does not change compile results"
    QCheck.(pair (int_range 1 3) bool)
    (fun (pes, optimized) ->
      uninstall_all ();
      let width = pes * 8 in
      let device = Hlsb_device.Device.ultrascale_plus in
      let recipe = if optimized then Style.optimized else Style.original in
      let compile () =
        Pipeline.run_exn
          (Pipeline.create ~device ~name:"qcheck_va"
             ~build:(fun () -> Hlsb_designs.Vector_arith.dataflow ~width ~pes ())
             ())
          ~recipe
      in
      let bare = compile () in
      let traced =
        Trace.with_collector (Trace.create ()) (fun () ->
          Metrics.with_registry (Metrics.create ()) compile)
      in
      compile_fingerprint bare = compile_fingerprint traced)

let test_instrumentation_populates () =
  let trace = Trace.create () in
  let m = Metrics.create () in
  let _r =
    Trace.with_collector trace (fun () ->
      Metrics.with_registry m (fun () ->
        Pipeline.run_exn
          (Pipeline.create ~device:Hlsb_device.Device.ultrascale_plus
             ~name:"probe_va"
             ~build:(fun () ->
               Hlsb_designs.Vector_arith.dataflow ~width:16 ~pes:2 ())
             ())
          ~recipe:Style.optimized))
  in
  let names = List.map (fun s -> s.Trace.sp_name) (Trace.spans trace) in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " span present") true (List.mem n names))
    [ "pipeline"; "stage.schedule"; "stage.lower"; "stage.place"; "stage.sta" ];
  let snap = Metrics.snapshot m in
  Alcotest.(check bool) "broadcast factor histogram non-empty" true
    (match List.assoc_opt "sched.broadcast_factor" snap.Metrics.sn_hists with
    | Some h -> h.Metrics.hs_count > 0
    | None -> false);
  Alcotest.(check bool) "calibrate lookups counted" true
    (Metrics.counter_value m "calibrate.lookups" > 0)

let test_sim_occupancy_series () =
  let m = Metrics.create () in
  let r =
    Metrics.with_registry m (fun () ->
      Hlsb_sim.Pipeline.run_skid ~stages:4 ~skid_depth:5 ~ctrl_delay:0
        ~gate:Hlsb_sim.Pipeline.Gate_empty
        ~inputs:(List.init 32 Fun.id)
        ~ready:(fun c -> c mod 3 <> 0)
        ~f:Fun.id)
  in
  let snap = Metrics.snapshot m in
  match List.assoc_opt "sim.skid_occupancy" snap.Metrics.sn_hists with
  | None -> Alcotest.fail "no occupancy histogram"
  | Some h ->
    Alcotest.(check int) "one sample per cycle" r.Hlsb_sim.Pipeline.cycles
      h.Metrics.hs_count;
    Alcotest.(check bool) "max within skid depth" true (h.Metrics.hs_max <= 5.)

let test_trace_domain_safety () =
  (* Installation is process-wide: a span recorded inside a spawned
     domain lands in that domain's shard, carries its domain id, and is
     a root of its own track (parentage never crosses domains). *)
  let t = Trace.create () in
  Trace.with_collector t (fun () ->
    Trace.with_span "main_root" (fun () ->
      Domain.join
        (Domain.spawn (fun () ->
           Trace.with_span "worker_span" (fun () ->
             Trace.with_span "worker_child" (fun () -> ()))))));
  let spans = Trace.spans t in
  Alcotest.(check int) "all three spans recorded" 3 (List.length spans);
  let by_name n = List.find (fun s -> s.Trace.sp_name = n) spans in
  let root = by_name "main_root" in
  let w = by_name "worker_span" in
  let wc = by_name "worker_child" in
  Alcotest.(check bool) "worker has its own tid" true
    (root.Trace.sp_tid <> w.Trace.sp_tid);
  Alcotest.(check int) "worker span roots its track" (-1) w.Trace.sp_parent;
  Alcotest.(check int) "worker-side nesting kept" w.Trace.sp_id
    wc.Trace.sp_parent;
  let ids = List.map (fun s -> s.Trace.sp_id) spans in
  Alcotest.(check int) "ids unique across domains" 3
    (List.length (List.sort_uniq compare ids))

let test_trace_parallel_spans_race_free () =
  (* Many spans opened concurrently from pool workers: all recorded, no
     crash, every span well-formed. *)
  let t = Trace.create () in
  Trace.with_collector t (fun () ->
    Hlsb_util.Pool.iter ~jobs:4
      (fun i ->
        Trace.with_span ~attrs:[ ("i", Json.Int i) ] "w" (fun () ->
          Trace.with_span "inner" (fun () -> ())))
      (Array.init 64 (fun i -> i)));
  let spans = Trace.spans t in
  Alcotest.(check int) "two spans per task" 128 (List.length spans);
  List.iter
    (fun s ->
      Alcotest.(check bool) "span closed" true
        (s.Trace.sp_stop_ns >= s.Trace.sp_start_ns))
    spans

let test_metrics_merge_across_domains () =
  (* Each domain writes to its own shard; the registry only merges at read
     time. Increments from pool worker domains must sum with the caller's. *)
  let m = Metrics.create () in
  Metrics.with_registry m (fun () ->
    Hlsb_util.Pool.iter ~jobs:4
      (fun i ->
        Metrics.incr "t.shard_counter";
        Metrics.set_gauge "t.shard_gauge" (float_of_int i))
      (Array.init 100 (fun i -> i)));
  Alcotest.(check int) "counter sums across shards" 100
    (Metrics.counter_value m "t.shard_counter");
  Alcotest.(check bool) "gauge visible from some shard" true
    (Metrics.gauge_value m "t.shard_gauge" <> None)

let suite =
  [
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json numbers" `Quick test_json_numbers;
    Alcotest.test_case "json member" `Quick test_json_member;
    Alcotest.test_case "json typed fields name the field" `Quick
      test_json_typed_fields;
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "span exception safety" `Quick test_span_exception_safety;
    Alcotest.test_case "disabled is no-op" `Quick test_span_disabled_noop;
    Alcotest.test_case "chrome export shape" `Quick test_chrome_export_shape;
    Alcotest.test_case "counters and gauges" `Quick test_counters_gauges;
    Alcotest.test_case "histogram bucketing" `Quick test_histogram_bucketing;
    Alcotest.test_case "histogram ~times" `Quick test_histogram_times;
    Alcotest.test_case "trace domain safety" `Quick test_trace_domain_safety;
    Alcotest.test_case "trace parallel spans" `Quick
      test_trace_parallel_spans_race_free;
    Alcotest.test_case "metrics json shape" `Quick test_metrics_json_shape;
    Alcotest.test_case "metrics json round-trip" `Quick
      test_metrics_json_roundtrip;
    Alcotest.test_case "instrumentation populates" `Quick
      test_instrumentation_populates;
    Alcotest.test_case "sim occupancy series" `Quick test_sim_occupancy_series;
    Alcotest.test_case "metrics merge across domains" `Quick
      test_metrics_merge_across_domains;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_telemetry_transparent ]
