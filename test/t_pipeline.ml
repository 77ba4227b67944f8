(* Staged pipeline tests: cross-recipe sessions must actually share
   upstream artifacts (one elaboration, schedule reuse per sched mode),
   cached-artifact reuse must never change a timing report, and
   malformed inputs must surface as structured diagnostics — never as a
   bare [Invalid_argument]/[Failure] escaping [Pipeline.run]. *)

open Hlsb_ir
module Pipeline = Core.Pipeline
module Style = Hlsb_ctrl.Style
module Device = Hlsb_device.Device
module Design = Hlsb_rtlgen.Design
module Netlist = Hlsb_netlist.Netlist
module Timing = Hlsb_physical.Timing
module Diag = Hlsb_util.Diag
module Spec = Hlsb_designs.Spec
module Ledger = Hlsb_obs.Ledger

let contains_sub ~sub s =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* Everything a compile produces that a caller could observe: the result
   record's scalars, per-kernel info, sync-controller stats, netlist
   size, and the full critical path. Two results with equal fingerprints
   went through indistinguishable compiles. *)
let fingerprint (r : Pipeline.result) =
  ( r.Pipeline.fr_label,
    Style.label r.Pipeline.fr_recipe,
    ( r.Pipeline.fr_fmax_mhz,
      r.Pipeline.fr_critical_ns,
      r.Pipeline.fr_lut_pct,
      r.Pipeline.fr_ff_pct,
      r.Pipeline.fr_bram_pct,
      r.Pipeline.fr_dsp_pct ),
    List.map
      (fun (k : Design.kernel_info) ->
        (k.Design.ki_name, k.ki_depth, k.ki_registers_added, k.ki_skid_bits))
      r.Pipeline.fr_design.Design.kernels,
    ( r.Pipeline.fr_design.Design.sync_groups_emitted,
      r.Pipeline.fr_design.Design.max_sync_fanout ),
    ( Netlist.n_cells r.Pipeline.fr_design.Design.netlist,
      Netlist.n_nets r.Pipeline.fr_design.Design.netlist ),
    ( r.Pipeline.fr_timing.Timing.worst_net_fanout,
      List.map
        (fun (st : Timing.path_step) ->
          (st.Timing.ps_cell_name, st.Timing.ps_arrival))
        r.Pipeline.fr_timing.Timing.path ) )

let runs_of session name =
  Option.value ~default:0 (List.assoc_opt name (Pipeline.stage_runs session))

(* Two recipes in one session -> one elaboration; a recipe pair sharing
   a sched mode -> one scheduling pass; recompiling a recipe -> nothing
   at all re-executes. *)
let test_session_shares_stages () =
  let s = Option.get (Hlsb_designs.Suite.find "Vector Arithmetic") in
  let session = Pipeline.of_spec s in
  ignore (Pipeline.run_exn session ~recipe:Style.original);
  (* lower's netlist columns outgrow the minor heap, so only the stage
     record's major words show their growth *)
  let lower =
    List.find (fun r -> r.Ledger.st_name = "lower") (Pipeline.last_run session)
  in
  Alcotest.(check bool) "lower allocates in the major heap" true
    (lower.Ledger.st_major_words > 0.);
  ignore (Pipeline.run_exn session ~recipe:Style.optimized);
  Alcotest.(check int) "one elaboration for two recipes" 1
    (runs_of session "elaborate");
  Alcotest.(check int) "two schedules (hls vs aware)" 2
    (runs_of session "schedule");
  Alcotest.(check int) "two lowers" 2 (runs_of session "lower");
  Alcotest.(check int) "two stas" 2 (runs_of session "sta");
  (* sched-only shares Sched_aware scheduling with optimized *)
  let sched_only =
    { Style.sched = Style.Sched_aware; pipe = Style.Stall; sync = Style.Sync_naive }
  in
  ignore (Pipeline.run_exn session ~recipe:sched_only);
  Alcotest.(check int) "aware schedule reused across recipes" 2
    (runs_of session "schedule");
  Alcotest.(check int) "still one elaboration" 1 (runs_of session "elaborate");
  (* a recipe already compiled is served entirely from cache *)
  let before = List.fold_left (fun a (_, n) -> a + n) 0 (Pipeline.stage_runs session) in
  ignore (Pipeline.run_exn session ~recipe:Style.optimized);
  let after = List.fold_left (fun a (_, n) -> a + n) 0 (Pipeline.stage_runs session) in
  Alcotest.(check int) "full cache hit runs nothing" before after;
  (* the cached run is visible in last_run as Cached stages *)
  let cached_stages =
    List.filter
      (fun (st : Ledger.stage) -> st.Ledger.st_status = Ledger.Cached)
      (Pipeline.last_run session)
  in
  Alcotest.(check bool) "last_run reports cached stages" true
    (List.length cached_stages >= 4)

(* qcheck: whatever order recipes are compiled in, and however often
   they repeat, a shared session's cached-artifact reuse never changes
   any timing report relative to a fresh single-use session. *)
let recipe_pool =
  [|
    Style.original;
    Style.optimized;
    { Style.sched = Style.Sched_aware; pipe = Style.Stall; sync = Style.Sync_naive };
    {
      Style.sched = Style.Sched_hls;
      pipe = Style.Skid { min_area = true };
      sync = Style.Sync_pruned;
    };
  |]

let small_session () =
  Pipeline.create ~device:Device.ultrascale_plus ~name:"va_small"
    ~build:(fun () -> Hlsb_designs.Vector_arith.dataflow ~width:64 ~pes:2 ())
    ()

let prop_cached_reuse_stable =
  QCheck.Test.make ~count:8
    ~name:"cached-artifact reuse never changes the timing report"
    QCheck.(list_of_size (Gen.int_range 1 6) (int_bound 3))
    (fun idxs ->
      let shared = small_session () in
      List.for_all
        (fun i ->
          let recipe = recipe_pool.(i) in
          let via_shared = Pipeline.run_exn shared ~recipe in
          let via_fresh = Pipeline.run_exn (small_session ()) ~recipe in
          fingerprint via_shared = fingerprint via_fresh)
        idxs)

(* qcheck: lower..report are reused across requests whose schedules
   lower alike (different targets, say). Whatever sequence of tuned
   requests one session serves, each result must be byte-identical to
   the same request compiled in a fresh session. Targets come partly
   from a small pool so repeats and near-repeats are common. *)
let table1 = List.filteri (fun i _ -> i < 9) Hlsb_designs.Suite.all

let target_gen =
  QCheck.Gen.(
    oneof
      [
        return None;
        map Option.some (oneofl [ 300.; 310.; 330.; 400.; 480. ]);
        map Option.some (float_range 150. 700.);
      ])

let inject_gen =
  QCheck.Gen.(
    oneofl
      [
        None;
        Some { Hlsb_sched.Schedule.inj_top = 1; inj_levels = 1 };
        Some { Hlsb_sched.Schedule.inj_top = 2; inj_levels = 1 };
        Some { Hlsb_sched.Schedule.inj_top = 4; inj_levels = 2 };
      ])

let request_print (target, inject) =
  Printf.sprintf "(%s, %s)"
    (match target with None -> "-" | Some t -> Printf.sprintf "%g MHz" t)
    (match inject with
    | None -> "-"
    | Some { Hlsb_sched.Schedule.inj_top; inj_levels } ->
      Printf.sprintf "inj%dx%d" inj_top inj_levels)

let prop_content_reuse_equals_fresh =
  QCheck.Test.make ~count:6
    ~name:"content-keyed reuse returns fresh-session result bytes"
    (QCheck.make
       ~print:(fun (d, reqs) ->
         Printf.sprintf "%s: %s"
           (List.nth table1 d).Spec.sp_name
           (String.concat " " (List.map request_print reqs)))
       QCheck.Gen.(
         pair
           (int_bound (List.length table1 - 1))
           (list_size (int_range 2 5) (pair target_gen inject_gen))))
    (fun (d, reqs) ->
      let spec = List.nth table1 d in
      let bytes ?target_mhz ?inject session =
        Pipeline.run_exn ?target_mhz ?inject session ~recipe:Style.optimized
        |> Pipeline.result_to_json |> Hlsb_telemetry.Json.to_string
      in
      let shared = Pipeline.of_spec spec in
      List.for_all
        (fun (target_mhz, inject) ->
          bytes ?target_mhz ?inject shared
          = bytes ?target_mhz ?inject (Pipeline.of_spec spec))
        reqs)

(* Two targets whose schedules lower alike share one lower..report;
   only the schedule runs again. Stream Buffer schedules identically, as
   far as lowering can see, at 300 and 310 MHz. *)
let test_schedule_content_reuse () =
  let s = Option.get (Hlsb_designs.Suite.find "Stream Buffer") in
  let session = Pipeline.of_spec s in
  let run ?target_mhz () =
    Pipeline.run_exn ?target_mhz session ~recipe:Style.optimized
  in
  let static = run () in
  let at300 = run ~target_mhz:300. () in
  Alcotest.(check int) "explicit 300 MHz reuses the untuned schedule" 1
    (runs_of session "schedule");
  Alcotest.(check bool) "and its result" true (at300 == static);
  let at310 = run ~target_mhz:310. () in
  Alcotest.(check int) "a new target schedules again" 2
    (runs_of session "schedule");
  Alcotest.(check int) "but lowers once" 1 (runs_of session "lower");
  Alcotest.(check bool) "same result record" true (at310 == static);
  List.iter
    (fun (stage, status) ->
      Alcotest.(check string)
        (Pipeline.stage_name stage ^ " status")
        status
        (Ledger.status_name
           (List.find
              (fun (r : Ledger.stage) ->
                r.Ledger.st_name = Pipeline.stage_name stage)
              (Pipeline.last_run session))
             .Ledger.st_status))
    [
      (Pipeline.Schedule, "ran");
      (Pipeline.Lower, "cached");
      (Pipeline.Sync, "cached");
      (Pipeline.Place, "cached");
      (Pipeline.Sta, "cached");
      (Pipeline.Report, "cached");
    ]

(* ---- structured diagnostics ---- *)

let orphan_process_df () =
  let df = Dataflow.create () in
  ignore (Dataflow.add_process df ~name:"orphan" ());
  df

(* A writer kernel whose FIFO interface name does not match the channel
   name: the lower stage cannot wire the channel into the reader. *)
let fifo_mismatch_df () =
  let writer =
    let dag = Dag.create () in
    let fin = Dag.add_fifo dag ~name:"w_in" ~dtype:(Dtype.Int 32) ~depth:8 in
    let fout = Dag.add_fifo dag ~name:"c_data" ~dtype:(Dtype.Int 32) ~depth:8 in
    let x = Dag.fifo_read dag ~fifo:fin in
    ignore (Dag.fifo_write dag ~fifo:fout ~value:x);
    Kernel.create ~name:"writer" dag
  in
  let reader =
    let dag = Dag.create () in
    (* reads "r_in", not "c_data": the channel has no read-side FIFO *)
    let fin = Dag.add_fifo dag ~name:"r_in" ~dtype:(Dtype.Int 32) ~depth:8 in
    let fout = Dag.add_fifo dag ~name:"r_out" ~dtype:(Dtype.Int 32) ~depth:8 in
    let x = Dag.fifo_read dag ~fifo:fin in
    ignore (Dag.fifo_write dag ~fifo:fout ~value:x);
    Kernel.create ~name:"reader" dag
  in
  let df = Dataflow.create () in
  let pw = Dataflow.add_process df ~name:"writer" ~kernel:writer () in
  let pr = Dataflow.add_process df ~name:"reader" ~kernel:reader () in
  ignore
    (Dataflow.add_channel df ~name:"c_data" ~src:pw ~dst:pr
       ~dtype:(Dtype.Int 32) ());
  df

let run_small df recipe =
  let session =
    Pipeline.create ~device:Device.ultrascale_plus ~name:"bad"
      ~build:(fun () -> df)
      ()
  in
  Pipeline.run session ~recipe

let test_diagnostic_validate () =
  match run_small (orphan_process_df ()) Style.original with
  | Ok _ -> Alcotest.fail "orphan-process design compiled"
  | Error d ->
    Alcotest.(check string) "stage" "elaborate" d.Diag.d_stage;
    (match d.Diag.d_entity with
    | Some (Diag.Process p) -> Alcotest.(check string) "entity" "orphan" p
    | _ -> Alcotest.fail "expected a Process entity");
    Alcotest.(check bool) "message mentions the problem" true
      (contains_sub ~sub:"no channels" d.Diag.d_message)

let test_diagnostic_fifo_mismatch () =
  match run_small (fifo_mismatch_df ()) Style.optimized with
  | Ok _ -> Alcotest.fail "FIFO-mismatched design compiled"
  | Error d ->
    Alcotest.(check string) "stage" "lower" d.Diag.d_stage;
    (match d.Diag.d_entity with
    | Some (Diag.Channel c) -> Alcotest.(check string) "entity" "c_data" c
    | _ -> Alcotest.fail "expected a Channel entity");
    Alcotest.(check bool) "message names the kernel" true
      (contains_sub ~sub:"reader" d.Diag.d_message);
    Alcotest.(check bool) "message names the channel" true
      (contains_sub ~sub:"c_data" d.Diag.d_message)

(* Dumps and explain render for every stage without touching disk. *)
let test_dump_and_explain () =
  let session = small_session () in
  List.iter
    (fun stage ->
      match Pipeline.dump_after session ~recipe:Style.optimized stage with
      | Error d -> Alcotest.fail (Diag.to_string d)
      | Ok text ->
        Alcotest.(check bool)
          (Pipeline.stage_name stage ^ " dump non-empty")
          true
          (String.length text > 0))
    Pipeline.stages;
  let explain = Pipeline.explain session in
  List.iter
    (fun stage ->
      Alcotest.(check bool)
        (Pipeline.stage_name stage ^ " in explain")
        true
        (contains_sub ~sub:(Pipeline.stage_name stage) explain))
    Pipeline.stages;
  (* a failing session's explain carries the diagnostic *)
  let bad =
    Pipeline.create ~device:Device.ultrascale_plus ~name:"bad"
      ~build:(fun () -> orphan_process_df ())
      ()
  in
  (match Pipeline.run bad ~recipe:Style.original with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error _ -> ());
  Alcotest.(check bool) "session retains the diagnostic" true
    (List.length (Pipeline.diagnostics bad) >= 1);
  Alcotest.(check bool) "failed stage visible in explain" true
    (contains_sub ~sub:"FAILED" (Pipeline.explain bad))

let suite =
  [
    Alcotest.test_case "session shares stages" `Quick test_session_shares_stages;
    Alcotest.test_case "diagnostic: dangling process" `Quick
      test_diagnostic_validate;
    Alcotest.test_case "diagnostic: FIFO mismatch names kernel+channel" `Quick
      test_diagnostic_fifo_mismatch;
    Alcotest.test_case "dump-after + explain render" `Quick
      test_dump_and_explain;
    Alcotest.test_case "schedule content keys lower..report" `Quick
      test_schedule_content_reuse;
    QCheck_alcotest.to_alcotest prop_cached_reuse_stable;
    QCheck_alcotest.to_alcotest prop_content_reuse_equals_fresh;
  ]
