(* Observability subsystem tests: histogram quantile estimation,
   Prometheus exposition shape, structured-log filtering and JSONL
   record shape, ledger codec round-trips and append/load (including
   concurrent writers racing on one file), run references, and the
   perf-regression verdict in both directions. *)

module Json = Hlsb_telemetry.Json
module Metrics = Hlsb_telemetry.Metrics
module Log = Hlsb_obs.Log
module Ledger = Hlsb_obs.Ledger
module Prom = Hlsb_obs.Prom
module Report = Hlsb_obs.Report
module Pool = Hlsb_util.Pool

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let with_registry f =
  let m = Metrics.create () in
  Metrics.with_registry m f;
  m

(* ---- Metrics.quantile ---- *)

(* A histogram snapshot of [samples] over a chosen bucket layout (the
   registry always uses its default buckets). *)
let hist ~buckets samples =
  let n = Array.length buckets in
  let counts = Array.make (n + 1) 0 in
  List.iter
    (fun v ->
      let rec go i = if i < n && v > buckets.(i) then go (i + 1) else i in
      let i = go 0 in
      counts.(i) <- counts.(i) + 1)
    samples;
  {
    Metrics.hs_buckets = buckets;
    hs_counts = counts;
    hs_count = List.length samples;
    hs_sum = List.fold_left ( +. ) 0. samples;
    hs_min = List.fold_left Float.min infinity samples;
    hs_max = List.fold_left Float.max neg_infinity samples;
  }

let test_quantile_uniform () =
  (* 100 samples 1..100 over decade buckets: samples are uniform inside
     every bucket, so linear interpolation is exact. *)
  let buckets = Array.init 10 (fun i -> 10. *. float_of_int (i + 1)) in
  let h = hist ~buckets (List.init 100 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (float 1e-9)) "p50" 50. (Metrics.quantile h 0.50);
  Alcotest.(check (float 1e-9)) "p95" 95. (Metrics.quantile h 0.95);
  Alcotest.(check (float 1e-9)) "p99" 99. (Metrics.quantile h 0.99);
  Alcotest.(check (float 0.)) "p<=0 is min" 1. (Metrics.quantile h 0.);
  Alcotest.(check (float 0.)) "p>=1 is max" 100. (Metrics.quantile h 1.)

let test_quantile_overflow_bucket () =
  (* Samples 5, 15, 20 with a single bucket edge at 10: ranks above the
     edge land in the overflow bucket, whose upper edge clamps to
     hs_max. p=0.9 -> target rank 2.7, 1.7 of the overflow bucket's 2
     samples: 10 + 0.85 * (20 - 10) = 18.5. *)
  let h = hist ~buckets:[| 10. |] [ 5.; 15.; 20. ] in
  Alcotest.(check (float 1e-9)) "p90 in overflow bucket" 18.5
    (Metrics.quantile h 0.9);
  Alcotest.(check (float 0.)) "p100 clamps to observed max" 20.
    (Metrics.quantile h 1.0);
  Alcotest.(check (float 0.)) "p0 clamps to observed min" 5.
    (Metrics.quantile h 0.)

let test_quantile_degenerate () =
  let empty =
    {
      Metrics.hs_buckets = [| 1. |];
      hs_counts = [| 0; 0 |];
      hs_count = 0;
      hs_sum = 0.;
      hs_min = nan;
      hs_max = nan;
    }
  in
  Alcotest.(check bool) "empty is nan" true
    (Float.is_nan (Metrics.quantile empty 0.5));
  let m = with_registry (fun () -> Metrics.observe "s" 3.) in
  let h = List.assoc "s" (Metrics.snapshot m).Metrics.sn_hists in
  Alcotest.(check bool) "nan p is nan" true
    (Float.is_nan (Metrics.quantile h nan));
  (* single sample: every quantile collapses to it via the min/max clamp *)
  Alcotest.(check (float 0.)) "single sample p50" 3. (Metrics.quantile h 0.5)

(* ---- Prometheus exposition ---- *)

let test_prom_exposition () =
  let m =
    with_registry (fun () ->
      Metrics.incr ~by:3 "sched.registers_inserted";
      Metrics.set_gauge "flow.fmax-mhz" 2.5;
      List.iter (Metrics.observe "h.ms") [ 0.5; 1.5; 5. ])
  in
  let text = Prom.of_snapshot (Metrics.snapshot m) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("exposition has " ^ needle) true
        (contains ~needle text))
    [
      "# TYPE hlsb_sched_registers_inserted counter";
      "hlsb_sched_registers_inserted 3";
      "# TYPE hlsb_flow_fmax_mhz gauge";
      "hlsb_flow_fmax_mhz 2.5";
      "# TYPE hlsb_h_ms histogram";
      "hlsb_h_ms_bucket{le=\"1\"} 1";
      "hlsb_h_ms_bucket{le=\"2\"} 2";
      "hlsb_h_ms_bucket{le=\"+Inf\"} 3";
      "hlsb_h_ms_count 3";
    ];
  Alcotest.(check string) "name sanitization" "hlsb_a_b_c"
    (Prom.metric_name "a.b-c")

(* ---- Log ---- *)

(* Tests drive the log through an in-memory sink; always restore the
   stderr sink and the default threshold, also on failure. *)
let with_captured_log f =
  let lines = ref [] in
  Log.set_sink (fun l -> lines := l :: !lines);
  let prev = Log.current_level () in
  Fun.protect
    ~finally:(fun () ->
      Log.reset_sink ();
      Log.set_level prev;
      Log.set_format Log.Text)
    (fun () -> f lines)

let test_log_filtering () =
  with_captured_log (fun lines ->
    Log.set_format Log.Text;
    Log.set_level Log.Warn;
    Log.debug "dropped %d" 1;
    Log.info "dropped too";
    Log.warn "kept %s" "w";
    Log.error "kept e";
    Alcotest.(check int) "below threshold dropped" 2 (List.length !lines);
    Alcotest.(check bool) "text record shape" true
      (contains ~needle:"hlsb warn" (List.nth !lines 1)
      && contains ~needle:"kept w" (List.nth !lines 1));
    Alcotest.(check bool) "would_log above" true (Log.would_log Log.Error);
    Alcotest.(check bool) "would_log below" false (Log.would_log Log.Info);
    Log.set_level Log.Off;
    Log.error "never";
    Alcotest.(check int) "off drops errors" 2 (List.length !lines);
    Log.set_level Log.Debug;
    Log.debug "now";
    Alcotest.(check int) "debug passes at debug" 3 (List.length !lines))

let test_log_jsonl_shape () =
  with_captured_log (fun lines ->
    Log.set_level Log.Info;
    Log.set_format Log.Jsonl;
    Log.error ~attrs:[ ("stage", Json.Str "sta") ] "stage %s done" "sta";
    match !lines with
    | [ line ] -> (
      match Json.of_string line with
      | Error e -> Alcotest.fail e
      | Ok j ->
        Alcotest.(check bool) "level" true
          (Json.member "level" j = Some (Json.Str "error"));
        Alcotest.(check bool) "formatted msg" true
          (Json.member "msg" j = Some (Json.Str "stage sta done"));
        Alcotest.(check bool) "attr merged" true
          (Json.member "stage" j = Some (Json.Str "sta"));
        Alcotest.(check bool) "ts float" true
          (match Json.member "ts" j with Some (Json.Float _) -> true | _ -> false);
        Alcotest.(check bool) "tid int" true
          (match Json.member "tid" j with Some (Json.Int _) -> true | _ -> false);
        Alcotest.(check bool) "no open span" true
          (Json.member "span" j = Some Json.Null))
    | l -> Alcotest.fail (Printf.sprintf "%d records" (List.length l)))

let test_log_parse_spec () =
  Alcotest.(check bool) "level and format" true
    (Log.parse_spec "debug,json" = Ok (Some Log.Debug, Some Log.Jsonl));
  Alcotest.(check bool) "format alone" true
    (Log.parse_spec "json" = Ok (None, Some Log.Jsonl));
  Alcotest.(check bool) "level alone" true
    (Log.parse_spec "error" = Ok (Some Log.Error, None));
  Alcotest.(check bool) "empty spec" true (Log.parse_spec "" = Ok (None, None));
  match Log.parse_spec "verbose" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown level accepted"

(* ---- Ledger ---- *)

let sample_run ?(cmd = "compile") ?(label = "t") ?(ms = 10.) () =
  Ledger.make ~device:"xcvu9p" ~fingerprint:"fp"
    ~recipe:"aware/skid-min/pruned"
    ~stages:
      [
        { (Ledger.unmeasured "schedule" Ledger.Ran) with Ledger.st_ms = ms };
        Ledger.unmeasured "classify" Ledger.Skipped;
      ]
    ~results:
      [
        Json.Obj
          [ ("label", Json.Str "d [opt]"); ("fmax_mhz", Json.Float 400.) ];
      ]
    ~cache:[ ("pipeline.cache_hits", 3) ]
    ~metrics:(Json.Obj [ ("counters", Json.Obj [ ("c", Json.Int 1) ]) ])
    ~cmd ~label ()

let test_ledger_codec_roundtrip () =
  let r = sample_run () in
  (match Ledger.of_json (Ledger.to_json r) with
  | Error e -> Alcotest.fail e
  | Ok r' ->
    Alcotest.(check string) "id" r.Ledger.r_id r'.Ledger.r_id;
    Alcotest.(check string) "cmd" "compile" r'.Ledger.r_cmd;
    Alcotest.(check (option string)) "build id" (Some Build_id.digest)
      r'.Ledger.r_build_id;
    Alcotest.(check bool) "recipe" true
      (r'.Ledger.r_recipe = Some "aware/skid-min/pruned");
    Alcotest.(check int) "stages" 2 (List.length r'.Ledger.r_stages);
    Alcotest.(check (float 1e-9)) "total counts only ran stages" 10.
      (Ledger.total_ms r');
    Alcotest.(check bool) "fmax accessor" true
      (Ledger.result_fmax (List.hd r'.Ledger.r_results) = Some 400.);
    Alcotest.(check bool) "cache counters" true
      (r'.Ledger.r_cache = [ ("pipeline.cache_hits", 3) ]);
    Alcotest.(check bool) "metrics payload" true (r'.Ledger.r_metrics <> None));
  match Ledger.of_json (Json.Obj [ ("schema", Json.Str "hlsb-run/999") ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong schema accepted"

(* A trimmed copy of a committed ci/baseline-ledger.json record: written
   before records carried a build id, it has a git_rev field instead. *)
let baseline_record =
  {|{"schema":"hlsb-run/1","id":"cc-9fdcbb099a-4819","time_unix_s":1786114673.049793,"cmd":"cc","label":"fig18_stream_buffer [partition=cyclic:4;channel-reuse]","git_rev":"05b2f80f9bc0abbcc00b7191518b61df2f40ee26","device":"xcvu9p","device_fingerprint":"xcvu9p|UltraScale+|435x436|s8.16|b12|d9|0.1|0.06|0.12|0.25|0.12|0.013","recipe":"aware/skid-min/pruned","jobs":1,"cores":1,"stages":[{"stage":"transform","status":"cached","ms":0.0},{"stage":"schedule","status":"ran","ms":2.163643},{"stage":"lower","status":"ran","ms":1.464599}],"results":[{"label":"fig18_stream_buffer [aware/skid-min/pruned]","recipe":"aware/skid-min/pruned","fmax_mhz":339.34764107225993,"critical_ns":2.9468305624292292}],"cache":{"calibrate.cache_hits":2,"pipeline.cache_misses":1},"metrics":{"counters":{"flow.compiles":1,"timing.runs":1}}}|}

let test_ledger_build_id () =
  let r = Ledger.make ~cmd:"compile" ~label:"t" () in
  Alcotest.(check (option string)) "a new record carries the build id"
    (Some Build_id.digest) r.Ledger.r_build_id;
  Alcotest.(check bool) "and writes it" true
    (Json.member "build_id" (Ledger.to_json r) = Some (Json.Str Build_id.digest));
  match Result.bind (Json.of_string baseline_record) Ledger.of_json with
  | Error e -> Alcotest.fail e
  | Ok old ->
    Alcotest.(check (option string)) "an old record has no build id" None
      old.Ledger.r_build_id;
    Alcotest.(check string) "id" "cc-9fdcbb099a-4819" old.Ledger.r_id;
    Alcotest.(check int) "stages" 3 (List.length old.Ledger.r_stages);
    Alcotest.(check bool) "statuses typed" true
      (List.map (fun st -> st.Ledger.st_status) old.Ledger.r_stages
      = [ Ledger.Cached; Ledger.Ran; Ledger.Ran ]);
    Alcotest.(check bool) "no words recorded reads as 0" true
      (List.for_all
         (fun st ->
           st.Ledger.st_minor_words = 0. && st.Ledger.st_major_words = 0.)
         old.Ledger.r_stages);
    Alcotest.(check (float 1e-9)) "ran stages total" (2.163643 +. 1.464599)
      (Ledger.total_ms old);
    Alcotest.(check bool) "fmax" true
      (Ledger.result_fmax (List.hd old.Ledger.r_results)
      = Some 339.34764107225993);
    Alcotest.(check bool) "cache" true
      (old.Ledger.r_cache
      = [ ("calibrate.cache_hits", 2); ("pipeline.cache_misses", 1) ]);
    Alcotest.(check bool) "report prints no build" true
      (contains ~needle:"build:  -" (Report.report old))

(* A cold compile's [schedule] stage characterizes delay curves across
   the pool's domains; the words its record holds must not depend on how
   many domains ran them. Each compile targets its own copy of the device
   (calibrations are memoized per device name) with no cache directory,
   so both characterize every curve anew. *)
let test_stage_words_independent_of_jobs () =
  let module Calibrate = Hlsb_delay.Calibrate in
  let spec = Option.get (Hlsb_designs.Suite.find "Genome Sequencing") in
  let dev = spec.Hlsb_designs.Spec.sp_device in
  let schedule_words jobs =
    let device =
      { dev with Hlsb_device.Device.name = Printf.sprintf "%s-cold-jobs%d" dev.name jobs }
    in
    let session =
      Core.Pipeline.create ~device ~name:spec.Hlsb_designs.Spec.sp_name
        ~build:spec.Hlsb_designs.Spec.sp_build ()
    in
    let saved_jobs = Pool.default_jobs () in
    Pool.set_default_jobs jobs;
    Fun.protect
      ~finally:(fun () -> Pool.set_default_jobs saved_jobs)
      (fun () -> ignore (Core.Pipeline.run_exn session ~recipe:Hlsb_ctrl.Style.optimized));
    let st =
      List.find (fun st -> st.Ledger.st_name = "schedule") (Core.Pipeline.last_run session)
    in
    (st.Ledger.st_minor_words, st.Ledger.st_major_words)
  in
  let saved_dir = Calibrate.ambient_dir () in
  Unix.putenv "HLSB_CACHE_DIR" "";
  let (minor1, major1), (minor2, major2) =
    Fun.protect
      ~finally:(fun () -> Unix.putenv "HLSB_CACHE_DIR" (Option.value ~default:"" saved_dir))
      (fun () ->
        let one = schedule_words 1 in
        (one, schedule_words 2))
  in
  Printf.printf "cold schedule words: jobs 1 %.0f minor / %.0f major, jobs 2 %.0f / %.0f\n"
    minor1 major1 minor2 major2;
  let agree what a b =
    if a <= 0. || abs_float (b -. a) > 0.02 *. a then
      Alcotest.failf "%s words: %.0f at one job, %.0f at two" what a b
  in
  agree "minor" minor1 minor2;
  agree "major" major1 major2

(* One compile: the stage records [--explain] reads are the ones the
   ledger stores and reads back, words included; and a record written
   now still compares against the committed CI baseline, which predates
   the word counts. *)
let test_ledger_stages_are_last_run () =
  let spec = Option.get (Hlsb_designs.Suite.find "Vector Arithmetic") in
  let session = Core.Pipeline.of_spec spec in
  let r = Core.Pipeline.run_exn session ~recipe:Hlsb_ctrl.Style.optimized in
  let stages = Core.Pipeline.last_run session in
  let record =
    Ledger.make ~stages ~results:[ Core.Pipeline.result_to_json r ]
      ~cmd:"compile" ~label:spec.Hlsb_designs.Spec.sp_name ()
  in
  let back =
    match Ledger.of_json (Ledger.to_json record) with
    | Ok b -> b
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check (list string)) "stage names"
    (List.map Core.Pipeline.stage_name Core.Pipeline.stages)
    (List.map (fun st -> st.Ledger.st_name) back.Ledger.r_stages);
  List.iter2
    (fun (a : Ledger.stage) (b : Ledger.stage) ->
      let name = a.Ledger.st_name in
      Alcotest.(check string) (name ^ " status")
        (Ledger.status_name a.Ledger.st_status)
        (Ledger.status_name b.Ledger.st_status);
      Alcotest.(check (float 0.)) (name ^ " ms") a.Ledger.st_ms b.Ledger.st_ms;
      Alcotest.(check (float 0.)) (name ^ " minor words")
        a.Ledger.st_minor_words b.Ledger.st_minor_words;
      Alcotest.(check (float 0.)) (name ^ " major words")
        a.Ledger.st_major_words b.Ledger.st_major_words)
    stages back.Ledger.r_stages;
  let lower = List.find (fun st -> st.Ledger.st_name = "lower") stages in
  Alcotest.(check bool) "lower's minor words > 0" true
    (lower.Ledger.st_minor_words > 0.);
  match Ledger.load ~path:"../ci/baseline-ledger.json" with
  | Error e -> Alcotest.fail e
  | Ok [] -> Alcotest.fail "no baseline records"
  | Ok runs ->
    let baseline = List.nth runs (List.length runs - 1) in
    let v =
      Report.regress ~min_ms:5. ~baseline ~current:back
        ~max_slowdown_pct:400. ()
    in
    Alcotest.(check bool) "stages compared" true
      (contains ~needle:"schedule" v.Report.v_table);
    (* time may breach on a loaded machine; comparability and Fmax may not *)
    List.iter
      (fun m ->
        if not (String.starts_with ~prefix:"stage " m) then Alcotest.fail m)
      v.Report.v_failures

let tmp_ledger () =
  let path = Filename.temp_file "hlsb_ledger" ".jsonl" in
  Sys.remove path;
  path

let with_tmp_ledger f =
  let path = tmp_ledger () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_ledger_append_load () =
  with_tmp_ledger (fun path ->
    (match Ledger.load ~path with
    | Ok [] -> ()
    | _ -> Alcotest.fail "missing file should load as empty");
    List.iter
      (fun label ->
        match Ledger.append ~path (sample_run ~label ()) with
        | Ok _ -> ()
        | Error e -> Alcotest.fail e)
      [ "a"; "b" ];
    (* a torn line (crashed writer) is skipped, never fatal *)
    let oc = open_out_gen [ Open_append ] 0o644 path in
    output_string oc "{\"schema\":\"hlsb-run/1\",\"id\":\"torn";
    close_out oc;
    match Ledger.load ~path with
    | Ok [ ra; rb ] ->
      Alcotest.(check string) "oldest first" "a" ra.Ledger.r_label;
      Alcotest.(check string) "newest last" "b" rb.Ledger.r_label
    | Ok l -> Alcotest.fail (Printf.sprintf "got %d records" (List.length l))
    | Error e -> Alcotest.fail e)

let test_ledger_concurrent_append () =
  (* 100 appends racing from 4 pool worker domains: every record must
     come back whole — no torn or interleaved lines. *)
  with_tmp_ledger (fun path ->
    Pool.iter ~jobs:4
      (fun i ->
        match Ledger.append ~path (sample_run ~label:(string_of_int i) ()) with
        | Ok _ -> ()
        | Error e -> failwith e)
      (Array.init 100 Fun.id);
    match Ledger.load ~path with
    | Error e -> Alcotest.fail e
    | Ok runs ->
      Alcotest.(check int) "all records intact" 100 (List.length runs);
      let labels =
        List.sort_uniq compare (List.map (fun r -> r.Ledger.r_label) runs)
      in
      Alcotest.(check int) "every append distinct" 100 (List.length labels))

let test_ledger_resolve () =
  let named id label = { (sample_run ~label ()) with Ledger.r_id = id } in
  let runs =
    [ named "run-aa" "a"; named "run-ab" "b"; named "other-x" "c" ]
  in
  let label_of = function
    | Ok r -> r.Ledger.r_label
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check string) "last" "c" (label_of (Ledger.resolve runs "last"));
  Alcotest.(check string) "1-based from oldest" "a"
    (label_of (Ledger.resolve runs "1"));
  Alcotest.(check string) "negative from newest" "b"
    (label_of (Ledger.resolve runs "-2"));
  Alcotest.(check string) "last~0 is last" "c"
    (label_of (Ledger.resolve runs "last~0"));
  Alcotest.(check string) "last~1 steps back" "b"
    (label_of (Ledger.resolve runs "last~1"));
  (match Ledger.resolve runs "last~3" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "out-of-range last~N accepted");
  Alcotest.(check string) "unique id prefix" "c"
    (label_of (Ledger.resolve runs "other"));
  (match Ledger.resolve runs "run-a" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "ambiguous prefix accepted");
  (match Ledger.resolve runs "99" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "out-of-range index accepted");
  match Ledger.resolve [] "last" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty ledger resolved"

(* ---- Report.regress ---- *)

let stage n ms = { (Ledger.unmeasured n Ledger.Ran) with Ledger.st_ms = ms }

let run_with ?(fmax = 400.) stages =
  {
    (sample_run ()) with
    Ledger.r_stages = stages;
    r_results =
      [ Json.Obj [ ("label", Json.Str "d"); ("fmax_mhz", Json.Float fmax) ] ];
  }

let test_regress_verdicts () =
  let base = run_with [ stage "schedule" 100.; stage "place" 50.; stage "tiny" 0.4 ] in
  let near = run_with [ stage "schedule" 104.; stage "place" 51.; stage "tiny" 4. ] in
  let v = Report.regress ~baseline:base ~current:near ~max_slowdown_pct:25. () in
  Alcotest.(check bool) "within threshold passes" true v.Report.v_ok;
  Alcotest.(check bool) "table renders every stage" true
    (contains ~needle:"schedule" v.Report.v_table
    && contains ~needle:"total" v.Report.v_table);
  (* the tiny stage blew up 10x but sits under min_ms in the baseline *)
  Alcotest.(check bool) "sub-min_ms stage ignored" true
    (contains ~needle:"ignored" v.Report.v_table);
  let slow = run_with [ stage "schedule" 210.; stage "place" 50.; stage "tiny" 0.4 ] in
  let v = Report.regress ~baseline:base ~current:slow ~max_slowdown_pct:25. () in
  Alcotest.(check bool) "2x stage fails" false v.Report.v_ok;
  Alcotest.(check bool) "failure names the stage" true
    (List.exists (contains ~needle:"schedule") v.Report.v_failures);
  (* the acceptance scenario: a doctored baseline that claims everything
     used to run twice as fast must trip the gate... *)
  let doctored =
    run_with
      (List.map
         (fun s -> { s with Ledger.st_ms = s.Ledger.st_ms /. 2. })
         base.Ledger.r_stages)
  in
  let v = Report.regress ~baseline:doctored ~current:base ~max_slowdown_pct:25. () in
  Alcotest.(check bool) "doctored 2x baseline fails" false v.Report.v_ok;
  (* ...but a generous CI threshold tolerates the same 2x *)
  let v = Report.regress ~baseline:doctored ~current:base ~max_slowdown_pct:400. () in
  Alcotest.(check bool) "generous threshold passes" true v.Report.v_ok;
  (* Fmax is gated too: timing-quality drops are regressions even when
     the compile got no slower *)
  let low_fmax = run_with ~fmax:250. base.Ledger.r_stages in
  let v = Report.regress ~baseline:base ~current:low_fmax ~max_slowdown_pct:25. () in
  Alcotest.(check bool) "fmax drop fails" false v.Report.v_ok;
  Alcotest.(check bool) "failure names fmax" true
    (List.exists (contains ~needle:"fmax") v.Report.v_failures);
  (* disjoint runs (e.g. a fuzz record vs a compile baseline) must not
     produce a vacuous OK *)
  let disjoint = run_with [ stage "mutate" 5. ] in
  let v = Report.regress ~baseline:base ~current:disjoint ~max_slowdown_pct:25. () in
  Alcotest.(check bool) "disjoint runs fail" false v.Report.v_ok;
  Alcotest.(check bool) "failure says not comparable" true
    (List.exists (contains ~needle:"no stage ran in both") v.Report.v_failures)

let test_report_renders () =
  let r = sample_run () in
  let text = Report.report r in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("report has " ^ needle) true
        (contains ~needle text))
    [ r.Ledger.r_id; "schedule"; "400.0 MHz"; "xcvu9p"; "pipeline.cache_hits" ];
  Alcotest.(check bool) "summary line has cmd" true
    (contains ~needle:"compile" (Report.summary_line r));
  let d = Report.diff (sample_run ~ms:10. ()) (sample_run ~ms:20. ()) in
  Alcotest.(check bool) "diff has ratio" true (contains ~needle:"2.00x" d);
  match r.Ledger.r_metrics with
  | Some m ->
    Alcotest.(check bool) "snapshot rebuilt from record" true
      ((Metrics.of_json m).Metrics.sn_counters = [ ("c", 1) ])
  | None -> Alcotest.fail "metrics snapshot missing"

let suite =
  [
    Alcotest.test_case "quantile uniform buckets" `Quick test_quantile_uniform;
    Alcotest.test_case "quantile overflow bucket" `Quick
      test_quantile_overflow_bucket;
    Alcotest.test_case "quantile degenerate inputs" `Quick
      test_quantile_degenerate;
    Alcotest.test_case "prometheus exposition" `Quick test_prom_exposition;
    Alcotest.test_case "log level filtering" `Quick test_log_filtering;
    Alcotest.test_case "log jsonl record shape" `Quick test_log_jsonl_shape;
    Alcotest.test_case "log spec parsing" `Quick test_log_parse_spec;
    Alcotest.test_case "ledger codec round-trip" `Quick
      test_ledger_codec_roundtrip;
    Alcotest.test_case "ledger build id; old records load" `Quick
      test_ledger_build_id;
    Alcotest.test_case "ledger stages are Pipeline.last_run" `Quick
      test_ledger_stages_are_last_run;
    Alcotest.test_case "cold stage words independent of jobs" `Quick
      test_stage_words_independent_of_jobs;
    Alcotest.test_case "ledger append/load" `Quick test_ledger_append_load;
    Alcotest.test_case "ledger concurrent writers" `Quick
      test_ledger_concurrent_append;
    Alcotest.test_case "ledger run references" `Quick test_ledger_resolve;
    Alcotest.test_case "regress verdicts" `Quick test_regress_verdicts;
    Alcotest.test_case "report rendering" `Quick test_report_renders;
  ]
