(* Scheduler tests: chaining correctness, broadcast-aware splitting,
   register insertion, and the schedule report. *)

open Hlsb_ir
module Schedule = Hlsb_sched.Schedule
module Report = Hlsb_sched.Report
module Calibrate = Hlsb_delay.Calibrate
module Device = Hlsb_device.Device

let dev = Device.ultrascale_plus
let i32 = Dtype.Int 32
let cal () = Calibrate.shared dev
let aware () = Schedule.Broadcast_aware (cal ())

(* a chain of n dependent adds *)
let chain_kernel n =
  let dag = Dag.create () in
  let a = Dag.input dag ~name:"a" ~dtype:i32 in
  let b = Dag.input dag ~name:"b" ~dtype:i32 in
  let rec go prev i =
    if i = 0 then prev
    else go (Dag.op dag Op.Add ~dtype:i32 [ prev; b ]) (i - 1)
  in
  ignore (Dag.output dag ~name:"r" ~value:(go a n));
  Kernel.create ~name:(Printf.sprintf "chain%d" n) dag

(* the Fig. 1 pattern: one shared value into [factor] adders, followed by
   enough chained logic that underestimating the broadcast breaks a cycle *)
let broadcast_kernel factor =
  let dag = Dag.create () in
  let src = Dag.input dag ~name:"src" ~dtype:i32 in
  Transform.unrolled dag ~factor (fun j ->
    let p = Dag.input dag ~name:(Printf.sprintf "p%d" j) ~dtype:i32 in
    let s = Dag.op dag Op.Add ~dtype:i32 [ src; p ] in
    let t = Dag.op dag Op.Sub ~dtype:i32 [ s; p ] in
    let u = Dag.op dag Op.Abs ~dtype:i32 [ t ] in
    ignore (Dag.output dag ~name:(Printf.sprintf "o%d" j) ~value:u));
  Kernel.create ~name:(Printf.sprintf "bcast%d" factor) dag

let test_deps_respected mode () =
  let k = chain_kernel 20 in
  let s = Schedule.run mode k in
  let dag = k.Kernel.dag in
  Dag.iter dag (fun v ->
    List.iter
      (fun a ->
        Alcotest.(check bool) "consumer not before producer" true
          (s.Schedule.entries.(v).Schedule.e_cycle >= s.Schedule.entries.(a).Schedule.e_cycle))
      (Dag.args dag v))

let test_chain_fits_target mode () =
  let s = Schedule.run mode (chain_kernel 30) in
  Alcotest.(check bool) "chains within target" true (Schedule.chain_ok s)

let test_chaining_packs_ops () =
  (* several cheap adds chain in one cycle: depth far below op count *)
  let s = Schedule.run Schedule.Baseline (chain_kernel 12) in
  Alcotest.(check bool) "chaining happened" true (s.Schedule.depth < 12);
  Alcotest.(check bool) "but not everything in cycle 0" true (s.Schedule.depth > 1)

let test_baseline_ignores_broadcast () =
  (* the defining blindness: schedule of factor-64 same as factor-2 *)
  let s2 = Schedule.run Schedule.Baseline (broadcast_kernel 2) in
  let s64 = Schedule.run Schedule.Baseline (broadcast_kernel 64) in
  Alcotest.(check int) "same depth regardless of broadcast" s2.Schedule.depth
    s64.Schedule.depth

let test_aware_adds_latency_for_broadcast () =
  let s2 = Schedule.run (aware ()) (broadcast_kernel 2) in
  let s64 = Schedule.run (aware ()) (broadcast_kernel 64) in
  Alcotest.(check bool) "broadcast gets distribution stages" true
    (s64.Schedule.depth > s2.Schedule.depth)

let test_aware_inserts_registers () =
  let s = Schedule.run (aware ()) (broadcast_kernel 64) in
  Alcotest.(check bool) "registers inserted" true
    (Schedule.registers_inserted s > 0);
  let sb = Schedule.run Schedule.Baseline (broadcast_kernel 64) in
  Alcotest.(check int) "baseline inserts none" 0 (Schedule.registers_inserted sb)

let test_small_overhead () =
  (* §5.2: pipeline 9 -> 10; our overhead should also be ~1-3 stages *)
  let sb = Schedule.run Schedule.Baseline (broadcast_kernel 64) in
  let sa = Schedule.run (aware ()) (broadcast_kernel 64) in
  Alcotest.(check bool) "modest depth cost" true
    (sa.Schedule.depth - sb.Schedule.depth <= 4)

let test_float_latency () =
  let dag = Dag.create () in
  let a = Dag.input dag ~name:"a" ~dtype:Dtype.Float32 in
  let b = Dag.input dag ~name:"b" ~dtype:Dtype.Float32 in
  let m = Dag.op dag Op.Fmul ~dtype:Dtype.Float32 [ a; b ] in
  ignore (Dag.output dag ~name:"r" ~value:m);
  let s = Schedule.run Schedule.Baseline (Kernel.create ~name:"f" dag) in
  Alcotest.(check bool) "fmul takes its pipeline cycles" true
    (Schedule.finish_cycle s m >= 3)

let test_mem_min_distribution () =
  (* stores to multi-unit buffers always get distribution stages (aware) *)
  let dag = Dag.create () in
  let buf = Dag.add_buffer dag ~name:"big" ~dtype:(Dtype.Uint 512) ~depth:65536 ~partition:1 in
  let i = Dag.input dag ~name:"i" ~dtype:i32 in
  let v = Dag.input dag ~name:"v" ~dtype:(Dtype.Uint 512) in
  let st = Dag.store dag ~buffer:buf ~index:i ~value:v in
  let k = Kernel.create ~name:"st" dag in
  let s = Schedule.run (aware ()) k in
  Alcotest.(check bool) "store pipelined" true
    (s.Schedule.entries.(st).Schedule.e_added_pipe >= 1)

let test_same_cycle_factor () =
  let k = broadcast_kernel 8 in
  let s = Schedule.run Schedule.Baseline k in
  (* src (node 0) is read by 8 adds; under the baseline they all land in
     cycle 0 *)
  Alcotest.(check int) "factor" 8 (Schedule.same_cycle_factor s 0)

let test_target_respected () =
  let s = Schedule.run ~target_mhz:150. Schedule.Baseline (chain_kernel 10) in
  Alcotest.(check bool) "slower clock packs more" true
    (s.Schedule.depth <= (Schedule.run ~target_mhz:600. Schedule.Baseline (chain_kernel 10)).Schedule.depth)

let test_bad_target () =
  Alcotest.check_raises "target" (Invalid_argument "Schedule.run: target <= 0")
    (fun () -> ignore (Schedule.run ~target_mhz:0. Schedule.Baseline (chain_kernel 2)))

(* ---- Report ---- *)

let test_report_text () =
  let s = Schedule.run Schedule.Baseline (chain_kernel 5) in
  let text = Report.to_string s in
  Alcotest.(check bool) "mentions kernel" true (String.length text > 40)

let test_stage_widths_spindle () =
  (* a dot-product + scalar-broadcast kernel narrows to one value in the
     middle: the Fig. 17 spindle *)
  let k = Hlsb_designs.Vector_arith.single_kernel ~width:16 () in
  let s = Schedule.run (aware ()) k in
  let widths = Report.stage_widths s in
  Alcotest.(check bool) "has boundaries" true (Array.length widths > 3);
  let maxw = Array.fold_left max 0 widths in
  let minw = Array.fold_left min max_int widths in
  Alcotest.(check bool) "spindle shape" true (maxw > 4 * max 1 minw)

let test_chain_delays_bounded () =
  let s = Schedule.run Schedule.Baseline (chain_kernel 10) in
  Array.iter
    (fun d ->
      Alcotest.(check bool) "each cycle within target" true
        (d <= s.Schedule.target_ns +. 1e-6))
    (Report.chain_delays s)

let test_violations_baseline_vs_aware () =
  (* calibrated re-evaluation exposes violations in the baseline broadcast
     schedule, and none in the aware one *)
  let c = cal () in
  let kb = broadcast_kernel 256 in
  let sb = Schedule.run Schedule.Baseline kb in
  let sa = Schedule.run (aware ()) (broadcast_kernel 256) in
  Alcotest.(check bool) "baseline violates under calibrated delays" true
    (Report.violations c sb <> []);
  Alcotest.(check (list (pair int (float 0.001)))) "aware is clean" []
    (Report.violations c sa)

(* [lowers_same] looks only at what lowering reads: the fields that
   vary between targets scheduling alike are ignored, and a change to
   any field lowering reads is caught. *)
let test_lowers_same () =
  let s = Schedule.run (aware ()) (broadcast_kernel 64) in
  let map_entry v f =
    let entries = Array.copy s.Schedule.entries in
    entries.(v) <- f entries.(v);
    { s with Schedule.entries }
  in
  let v = Array.length s.Schedule.entries - 1 in
  let check name expect t =
    Alcotest.(check bool) name expect (Schedule.lowers_same s t)
  in
  check "itself" true s;
  check "a copy" true
    { s with Schedule.entries = Array.copy s.Schedule.entries };
  check "target_ns ignored" true { s with Schedule.target_ns = 1.234 };
  check "e_start/e_delay/e_factor ignored" true
    (map_entry v (fun e ->
       { e with Schedule.e_start = 0.7; e_delay = 9.9; e_factor = 1000 }));
  check "depth" false { s with Schedule.depth = s.Schedule.depth + 1 };
  check "e_cycle" false
    (map_entry v (fun e ->
       { e with Schedule.e_cycle = e.Schedule.e_cycle + 1 }));
  check "e_latency" false
    (map_entry v (fun e ->
       { e with Schedule.e_latency = e.Schedule.e_latency + 1 }));
  check "e_added_pipe" false
    (map_entry v (fun e ->
       { e with Schedule.e_added_pipe = e.Schedule.e_added_pipe + 1 }));
  check "e_bcast_levels" false
    (map_entry v (fun e ->
       { e with Schedule.e_bcast_levels = e.Schedule.e_bcast_levels + 1 }));
  check "another kernel" false
    (Schedule.run (aware ()) (broadcast_kernel 64))

(* ---- kernel classes: replicated kernels share one schedule ---- *)

(* A kernel touching every node kind; each optional argument changes one
   thing about it. *)
let shape ?(prefix = "") ?(c = 7L) ?(partition = 1) ?(depth = 64)
    ?(bdtype = i32) ?(fdepth = 2) ?(spare_buffer = false) ?(spare_fifo = false)
    ?(op = Op.Add) ?(dtype = i32) ?(swap = false) ?(src_input = false)
    ?(extra = false) () =
  let dag = Dag.create () in
  let name n = prefix ^ n in
  if spare_buffer then
    ignore (Dag.add_buffer dag ~name:(name "spare") ~dtype:i32 ~depth:8 ~partition:1);
  let buf = Dag.add_buffer dag ~name:(name "buf") ~dtype:bdtype ~depth ~partition in
  let fin = Dag.add_fifo dag ~name:(name "fin") ~dtype:i32 ~depth:fdepth in
  let fout = Dag.add_fifo dag ~name:(name "fout") ~dtype:i32 ~depth:2 in
  let a = Dag.input dag ~name:(name "a") ~dtype:i32 in
  let k = Dag.const dag ~dtype:i32 c in
  let idx =
    if src_input then Dag.input dag ~name:(name "idx") ~dtype:i32
    else Dag.fifo_read dag ~fifo:fin
  in
  let s = Dag.op dag op ~dtype (if swap then [ k; a ] else [ a; k ]) in
  let l = Dag.load dag ~buffer:buf ~index:idx in
  ignore (Dag.store dag ~buffer:buf ~index:s ~value:l);
  ignore (Dag.fifo_write dag ~fifo:fout ~value:s);
  if spare_fifo then ignore (Dag.add_fifo dag ~name:(name "spare") ~dtype:i32 ~depth:4);
  let r = Dag.output dag ~name:(name "r") ~value:s in
  if extra then ignore (Dag.output dag ~name:(name "r2") ~value:r);
  dag

let test_same_structure () =
  let base = shape () in
  let check name expect other =
    Alcotest.(check bool) name expect (Dag.same_structure base other);
    Alcotest.(check bool) (name ^ " (symmetric)") expect
      (Dag.same_structure other base)
  in
  check "itself" true base;
  check "a rebuild" true (shape ());
  check "renamed inputs, fifos and buffers" true (shape ~prefix:"pe3_" ());
  check "another const value" true (shape ~c:42L ());
  check "an unaccessed fifo" true (shape ~spare_fifo:true ());
  check "another partition factor" false (shape ~partition:4 ());
  check "another fifo depth" false (shape ~fdepth:4 ());
  check "another buffer id" false (shape ~spare_buffer:true ());
  check "another op" false (shape ~op:Op.Sub ());
  check "another dtype" false (shape ~dtype:(Dtype.Int 16) ());
  check "another buffer depth" false (shape ~depth:128 ());
  check "another buffer dtype" false (shape ~bdtype:(Dtype.Uint 32) ());
  check "another argument" false (shape ~swap:true ());
  check "another kind" false (shape ~src_input:true ());
  check "another node count" false (shape ~extra:true ())

let test_kernel_classes_cache () =
  let df = Dataflow.create () in
  let add ?kernel name = ignore (Dataflow.add_process df ~name ?kernel ()) in
  let kernel name dag = Kernel.create ~name dag in
  add ~kernel:(kernel "pe0" (shape ())) "p0";
  let c = Dataflow.kernel_classes df in
  Alcotest.(check (array int)) "one process" [| 0 |] c;
  Alcotest.(check bool) "cached" true (Dataflow.kernel_classes df == c);
  add ~kernel:(kernel "pe1" (shape ~prefix:"pe1_" ~c:3L ())) "p1";
  add "ctrl";
  add ~kernel:(kernel "other" (shape ~op:Op.Mul ())) "p3";
  (* lowering reads a buffer's partition factor and a FIFO's depth, so a
     kernel differing only in one of them is its own representative *)
  add ~kernel:(kernel "pe4" (shape ~partition:2 ())) "p4";
  add ~kernel:(kernel "pe5" (shape ~prefix:"pe5_" ~fdepth:16 ())) "p5";
  add ~kernel:(kernel "pe6" (shape ~prefix:"pe6_" ())) "p6";
  Alcotest.(check (array int)) "add_process invalidates" [| 0; 0; 2; 3; 4; 5; 0 |]
    (Dataflow.kernel_classes df)

(* Every Suite design under both recipes at three target/injection points:
   each process's schedule equals a fresh run on its own kernel, whether
   it was scheduled or shared. *)
let test_shared_equal_fresh () =
  let points =
    [
      (300., None);
      (417.3, Some { Schedule.inj_top = 2; inj_levels = 1 });
      (250., Some { Schedule.inj_top = 4; inj_levels = 2 });
    ]
  in
  let shared = ref 0 and total = ref 0 in
  List.iter
    (fun (spec : Hlsb_designs.Spec.t) ->
      let device = spec.Hlsb_designs.Spec.sp_device in
      let df = spec.Hlsb_designs.Spec.sp_build () in
      List.iter
        (fun (recipe : Hlsb_ctrl.Style.recipe) ->
          let mode =
            match recipe.Hlsb_ctrl.Style.sched with
            | Hlsb_ctrl.Style.Sched_hls -> Schedule.Baseline
            | Hlsb_ctrl.Style.Sched_aware ->
              Schedule.Broadcast_aware (Calibrate.shared device)
          in
          List.iter
            (fun (target_mhz, inject) ->
              let scheds =
                Hlsb_rtlgen.Design.schedule_processes ~target_mhz ?inject
                  ~device ~recipe df
              in
              Array.iteri
                (fun p s ->
                  match (s, (Dataflow.process df p).Dataflow.p_kernel) with
                  | None, None -> ()
                  | Some (s : Schedule.t), Some k ->
                    let what =
                      Printf.sprintf "%s [%s] %g MHz, %s"
                        spec.Hlsb_designs.Spec.sp_name
                        (Hlsb_ctrl.Style.label recipe) target_mhz
                        k.Kernel.name
                    in
                    let fresh = Schedule.run ~target_mhz ?inject mode k in
                    incr total;
                    if
                      Array.exists
                        (function
                          | Some (q : Schedule.t) ->
                            q != s && q.Schedule.entries == s.Schedule.entries
                          | None -> false)
                        (Array.sub scheds 0 p)
                    then incr shared;
                    Alcotest.(check bool) (what ^ ": own kernel") true
                      (s.Schedule.kernel == k);
                    Alcotest.(check bool) (what ^ ": entries") true
                      (s.Schedule.entries = fresh.Schedule.entries);
                    Alcotest.(check int) (what ^ ": depth") fresh.Schedule.depth
                      s.Schedule.depth;
                    Alcotest.(check (float 0.)) (what ^ ": target_ns")
                      fresh.Schedule.target_ns s.Schedule.target_ns;
                    Alcotest.(check string) (what ^ ": mode")
                      fresh.Schedule.mode_label s.Schedule.mode_label
                  | _ -> Alcotest.failf "process %d: schedule without kernel" p)
                scheds)
            points)
        [ Hlsb_ctrl.Style.original; Hlsb_ctrl.Style.optimized ])
    Hlsb_designs.Suite.all;
  Alcotest.(check int) "kernels scheduled" 414 !total;
  Alcotest.(check int) "schedules shared" 330 !shared

let suite =
  [
    Alcotest.test_case "deps respected (baseline)" `Quick
      (test_deps_respected Schedule.Baseline);
    Alcotest.test_case "deps respected (aware)" `Quick (fun () ->
      test_deps_respected (aware ()) ());
    Alcotest.test_case "chain fits (baseline)" `Quick
      (test_chain_fits_target Schedule.Baseline);
    Alcotest.test_case "chain fits (aware)" `Quick (fun () ->
      test_chain_fits_target (aware ()) ());
    Alcotest.test_case "chaining packs ops" `Quick test_chaining_packs_ops;
    Alcotest.test_case "baseline ignores broadcast" `Quick
      test_baseline_ignores_broadcast;
    Alcotest.test_case "aware adds latency" `Quick
      test_aware_adds_latency_for_broadcast;
    Alcotest.test_case "aware inserts registers" `Quick test_aware_inserts_registers;
    Alcotest.test_case "overhead is small" `Quick test_small_overhead;
    Alcotest.test_case "float latency" `Quick test_float_latency;
    Alcotest.test_case "mem distribution floor" `Quick test_mem_min_distribution;
    Alcotest.test_case "same-cycle factor" `Quick test_same_cycle_factor;
    Alcotest.test_case "target respected" `Quick test_target_respected;
    Alcotest.test_case "bad target" `Quick test_bad_target;
    Alcotest.test_case "report text" `Quick test_report_text;
    Alcotest.test_case "stage widths spindle" `Quick test_stage_widths_spindle;
    Alcotest.test_case "chain delays bounded" `Quick test_chain_delays_bounded;
    Alcotest.test_case "violations baseline vs aware" `Quick
      test_violations_baseline_vs_aware;
    Alcotest.test_case "lowers_same reads only lowered fields" `Quick
      test_lowers_same;
    Alcotest.test_case "same_structure: what splits and what joins" `Quick
      test_same_structure;
    Alcotest.test_case "kernel_classes: add_process invalidates" `Quick
      test_kernel_classes_cache;
    Alcotest.test_case "shape-shared schedules equal fresh ones" `Quick
      test_shared_equal_fresh;
  ]
