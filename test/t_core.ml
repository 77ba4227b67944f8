(* End-to-end flow tests: the headline claims — optimization improves Fmax
   on every benchmark, the classification report sees the right
   structures, and the experiment drivers produce well-formed rows. *)

open Hlsb_ir
module Pipeline = Core.Pipeline
module Classify = Core.Classify
module Experiments = Core.Experiments
module Style = Hlsb_ctrl.Style
module Device = Hlsb_device.Device
module Netlist = Hlsb_netlist.Netlist

let test_compile_small_kernel () =
  let dag = Dag.create () in
  let fin = Dag.add_fifo dag ~name:"i" ~dtype:(Dtype.Int 32) ~depth:8 in
  let fout = Dag.add_fifo dag ~name:"o" ~dtype:(Dtype.Int 32) ~depth:8 in
  let x = Dag.fifo_read dag ~fifo:fin in
  let y = Dag.op dag Op.Add ~dtype:(Dtype.Int 32) [ x; x ] in
  ignore (Dag.fifo_write dag ~fifo:fout ~value:y);
  let k = Kernel.create ~name:"tiny" dag in
  let r =
    Pipeline.run_exn
      (Pipeline.of_kernel ~device:Device.ultrascale_plus k)
      ~recipe:Style.original
  in
  let fmax = r.Pipeline.fr_fmax_mhz in
  Alcotest.(check bool) "reasonable fmax" true (fmax > 100. && fmax < 1500.);
  Alcotest.(check bool) "critical consistent" true
    (abs_float ((1000. /. r.Pipeline.fr_critical_ns) -. fmax) < 1e-6)

(* The headline: on every Table-1 benchmark, the optimized flow is at
   least as fast as the original, and strictly faster overall. *)
let test_optimization_improves_every_benchmark () =
  let gains =
    List.map
      (fun (s : Hlsb_designs.Spec.t) ->
        let session = Pipeline.of_spec s in
        let orig = Pipeline.run_exn session ~recipe:Style.original in
        let opt = Pipeline.run_exn session ~recipe:Style.optimized in
        let gain = Experiments.improvement_pct ~orig ~opt in
        Alcotest.(check bool)
          (s.Hlsb_designs.Spec.sp_name ^ " not worse")
          true (gain > -5.);
        gain)
      Hlsb_designs.Suite.all
  in
  let avg = List.fold_left ( +. ) 0. gains /. float_of_int (List.length gains) in
  (* the paper reports 53% on average; we accept anything substantial *)
  Alcotest.(check bool) "average gain > 25%" true (avg > 25.)

let test_classify_genome () =
  let df = Hlsb_designs.Genome.dataflow ~lanes:2 () in
  let r = Classify.analyze df in
  Alcotest.(check bool) "sees data broadcasts" true
    (List.length r.Classify.data_broadcasts > 0);
  let top = List.hd r.Classify.data_broadcasts in
  Alcotest.(check bool) "top broadcast is wide" true (top.Classify.b_reads >= 64);
  Alcotest.(check int) "two pipeline domains" 2
    (List.length r.Classify.pipeline_domains)

let test_classify_hbm_sync () =
  let df = Hlsb_designs.Hbm_stencil.dataflow ~ports:8 () in
  let r = Classify.analyze df in
  (match r.Classify.sync_domains with
  | [ (members, _) ] -> Alcotest.(check int) "glued domain" 8 members
  | _ -> Alcotest.fail "expected one sync domain");
  Alcotest.(check bool) "report renders" true
    (String.length (Classify.to_string r) > 100)

let test_classify_netlist () =
  let r =
    Pipeline.run_exn
      (Pipeline.of_spec (Option.get (Hlsb_designs.Suite.find "Stream Buffer")))
      ~recipe:Style.original
  in
  let nl = r.Pipeline.fr_design.Hlsb_rtlgen.Design.netlist in
  let ctrl_pipe =
    Option.map (Netlist.fanout nl)
      (Netlist.max_fanout_net nl ~cls:Netlist.Ctrl_pipeline ())
  in
  (* the stall broadcast is present and huge under the original recipe *)
  Alcotest.(check bool) "stall net dominates" true
    (match ctrl_pipe with Some fo -> fo > 1000 | None -> false)

(* ---- experiment drivers (smoke: shapes and invariants, small sizes) ---- *)

let test_fig9_driver () =
  let series = Experiments.run_fig9 () in
  Alcotest.(check int) "three panels" 3 (List.length series);
  List.iter
    (fun (s : Experiments.fig9_series) ->
      Alcotest.(check bool) (s.Experiments.f9_label ^ " nonempty") true
        (List.length s.Experiments.f9_rows > 3))
    series

let test_fig17_driver () =
  let r = Experiments.run_fig17 ~width:32 () in
  Alcotest.(check bool) "min-area strictly cheaper" true
    (r.Experiments.f17_min_area_bits < r.Experiments.f17_end_only_bits);
  (* the paper's example achieves ~8x; accept >= 3x *)
  Alcotest.(check bool) "substantial ratio" true
    (r.Experiments.f17_end_only_bits >= 3 * r.Experiments.f17_min_area_bits)

let test_fig16_driver_small () =
  let rows = Experiments.run_fig16 ~iterations:[ 1; 4 ] () in
  match rows with
  | [ r1; r4 ] ->
    Alcotest.(check bool) "deeper pipeline" true
      (r4.Experiments.f16_stages > r1.Experiments.f16_stages);
    (* stall control decays with depth; skid stays comparatively flat *)
    let stall_drop =
      r1.Experiments.f16_stall_mhz /. r4.Experiments.f16_stall_mhz
    in
    let skid_drop = r1.Experiments.f16_skid_mhz /. r4.Experiments.f16_skid_mhz in
    Alcotest.(check bool) "stall decays faster" true (stall_drop > skid_drop);
    Alcotest.(check bool) "skid wins at depth" true
      (r4.Experiments.f16_skid_mhz > r4.Experiments.f16_stall_mhz)
  | _ -> Alcotest.fail "two rows"

let test_fig19_driver_small () =
  let rows = Experiments.run_fig19 ~sizes:[ 8192; 65536 ] () in
  match rows with
  | [ small; big ] ->
    (* originals collapse with size; fully optimized stays usable *)
    Alcotest.(check bool) "orig collapses" true
      (big.Experiments.f19_orig_mhz < small.Experiments.f19_orig_mhz +. 30.);
    Alcotest.(check bool) "full opt wins at size" true
      (big.Experiments.f19_full_opt_mhz > big.Experiments.f19_orig_mhz);
    Alcotest.(check bool) "both opts needed" true
      (big.Experiments.f19_full_opt_mhz > big.Experiments.f19_data_opt_mhz)
  | _ -> Alcotest.fail "two rows"

let test_table2_driver () =
  let rows = Experiments.run_table2 ~width:128 () in
  match rows with
  | [ stall; skid; minarea ] ->
    Alcotest.(check bool) "skid faster than stall" true
      (skid.Experiments.vr_result.Pipeline.fr_fmax_mhz
      > stall.Experiments.vr_result.Pipeline.fr_fmax_mhz);
    (* min-area buffers hold no more bits than the plain end-of-pipe skid *)
    let skid_bits (r : Pipeline.result) =
      List.fold_left
        (fun acc k -> acc + k.Hlsb_rtlgen.Design.ki_skid_bits)
        0 r.Pipeline.fr_design.Hlsb_rtlgen.Design.kernels
    in
    Alcotest.(check bool) "min-area fewer buffer bits" true
      (skid_bits minarea.Experiments.vr_result
      <= skid_bits skid.Experiments.vr_result);
    Alcotest.(check bool) "min-area keeps the speed" true
      (minarea.Experiments.vr_result.Pipeline.fr_fmax_mhz
      > 0.9 *. skid.Experiments.vr_result.Pipeline.fr_fmax_mhz)
  | _ -> Alcotest.fail "three rows"

let test_fig15_driver_small () =
  let rows = Experiments.run_fig15 ~factors:[ 8; 64 ] () in
  match rows with
  | [ r8; r64 ] ->
    (* HLS's estimate is invariant to the broadcast factor; ours grows *)
    Alcotest.(check bool) "hls estimate flat-ish" true
      (abs_float (r64.Experiments.f15_hls_est_ns -. r8.Experiments.f15_hls_est_ns)
      < 0.5);
    Alcotest.(check bool) "our estimate grows" true
      (r64.Experiments.f15_our_est_ns > r8.Experiments.f15_our_est_ns);
    Alcotest.(check bool) "actual above hls estimate at 64" true
      (r64.Experiments.f15_actual_ns > r64.Experiments.f15_hls_est_ns);
    Alcotest.(check bool) "our schedule faster at 64" true
      (r64.Experiments.f15_opt_mhz > r64.Experiments.f15_orig_mhz)
  | _ -> Alcotest.fail "two rows"

(* Bit-level projection of a compile result: the headline numbers plus the
   full STA arrival array, so any divergence in the numeric pipeline — not
   just in the summary — fails the comparison. *)
let result_fingerprint (r : Pipeline.result) =
  ( r.Pipeline.fr_fmax_mhz,
    r.Pipeline.fr_critical_ns,
    r.Pipeline.fr_lut_pct,
    r.Pipeline.fr_ff_pct,
    r.Pipeline.fr_bram_pct,
    r.Pipeline.fr_dsp_pct,
    r.Pipeline.fr_timing.Hlsb_physical.Timing.arrivals )

let prop_table1_jobs_deterministic =
  (* The PR-4 acceptance bar for the pool: fanning the Table-1 benchmarks
     across real worker domains must be observably identical to running
     them sequentially, down to every arrival time. [~jobs] is explicit so
     the multi-domain schedule runs even on a single-core machine. *)
  QCheck.Test.make ~count:3 ~name:"table1 rows identical at jobs=1 and jobs=4"
    QCheck.(int_bound 1000)
    (fun seed ->
      let names =
        List.map
          (fun (s : Hlsb_designs.Spec.t) -> s.Hlsb_designs.Spec.sp_name)
          Hlsb_designs.Suite.all
      in
      let len = List.length names in
      let pick i = List.nth names ((seed + i) mod len) in
      let subset = List.sort_uniq compare [ pick 0; pick 3 ] in
      let run jobs =
        List.map
          (fun (r : Experiments.table1_row) ->
            ( r.Experiments.t1_name,
              result_fingerprint r.Experiments.t1_orig,
              result_fingerprint r.Experiments.t1_opt ))
          (Experiments.run_table1 ~subset ~jobs ())
      in
      (* [compare], not [=]: arrival arrays carry nan for cells that are
         never reachable timing endpoints, and IEEE nan <> nan would fail
         the comparison even on bit-identical arrays *)
      compare (run 1) (run 4) = 0)

(* Every shape claim EXPERIMENTS.md prints must hold on a fresh run, so
   a model change that breaks one of the paper's claims fails here even
   after the golden digests and the generated blocks are re-recorded. *)
let test_shape_claims_hold () =
  List.iter
    (fun (s : Experiments.section) ->
      List.iter
        (fun (sh : Experiments.shape) ->
          Alcotest.(check bool)
            (s.Experiments.name ^ ": " ^ sh.Experiments.claim)
            true sh.Experiments.holds)
        (snd (s.Experiments.render ())))
    Experiments.sections

let suite =
  [
    Alcotest.test_case "compile small kernel" `Quick test_compile_small_kernel;
    Alcotest.test_case "classification genome" `Quick test_classify_genome;
    Alcotest.test_case "classification hbm" `Quick test_classify_hbm_sync;
    Alcotest.test_case "classification netlist" `Quick test_classify_netlist;
    Alcotest.test_case "fig9 driver" `Quick test_fig9_driver;
    Alcotest.test_case "fig17 driver" `Quick test_fig17_driver;
    Alcotest.test_case "fig16 driver" `Slow test_fig16_driver_small;
    Alcotest.test_case "fig19 driver" `Slow test_fig19_driver_small;
    Alcotest.test_case "table2 driver" `Slow test_table2_driver;
    Alcotest.test_case "fig15 driver" `Slow test_fig15_driver_small;
    Alcotest.test_case "optimization improves all" `Slow
      test_optimization_improves_every_benchmark;
    Alcotest.test_case "shape claims hold" `Slow test_shape_claims_hold;
  ]
  @ [ QCheck_alcotest.to_alcotest prop_table1_jobs_deterministic ]
