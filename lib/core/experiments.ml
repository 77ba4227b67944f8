open Hlsb_ir
module Device = Hlsb_device.Device
module Calibrate = Hlsb_delay.Calibrate
module Schedule = Hlsb_sched.Schedule
module Sched_report = Hlsb_sched.Report
module Style = Hlsb_ctrl.Style
module Skid = Hlsb_ctrl.Skid
module Design = Hlsb_rtlgen.Design
module Spec = Hlsb_designs.Spec
module Table = Hlsb_util.Table
module Pool = Hlsb_util.Pool

(* ---------- Table 1 ---------- *)

type table1_row = {
  t1_name : string;
  t1_broadcast : string;
  t1_device : string;
  t1_orig : Pipeline.result;
  t1_opt : Pipeline.result;
  t1_paper : Spec.paper_numbers;
}

let run_table1 ?subset ?jobs () =
  let specs =
    match subset with
    | None -> Hlsb_designs.Suite.all
    | Some names ->
      List.filter
        (fun s -> List.mem s.Spec.sp_name names)
        Hlsb_designs.Suite.all
  in
  (* Each benchmark compiles twice (original/optimized recipes) through
     one pipeline session, so elaboration is shared; rows are
     independent, so fan them out across the pool. *)
  Pool.map_list ?jobs
    (fun spec ->
      let session = Pipeline.of_spec spec in
      let orig = Pipeline.run_exn session ~recipe:Style.original in
      let opt = Pipeline.run_exn session ~recipe:Style.optimized in
      {
        t1_name = spec.Spec.sp_name;
        t1_broadcast = spec.Spec.sp_broadcast;
        t1_device = spec.Spec.sp_device.Device.board;
        t1_orig = orig;
        t1_opt = opt;
        t1_paper = spec.Spec.sp_paper;
      })
    specs

let improvement_pct ~(orig : Pipeline.result) ~(opt : Pipeline.result) =
  let base = orig.Pipeline.fr_fmax_mhz in
  if not (Float.is_finite base) || base <= 0. then 0.
  else
    let pct = 100. *. ((opt.Pipeline.fr_fmax_mhz /. base) -. 1.) in
    if Float.is_finite pct then pct else 0.

let pct v = Printf.sprintf "%.0f" v
let mhz v = Printf.sprintf "%.0f" v

let render_table1 rows =
  let t =
    Table.create
      ~headers:
        [
          ("Application", Table.Left);
          ("Broadcast type", Table.Left);
          ("Target FPGA", Table.Left);
          ("LUT O/P", Table.Right);
          ("FF O/P", Table.Right);
          ("BRAM O/P", Table.Right);
          ("DSP O/P", Table.Right);
          ("Freq Orig", Table.Right);
          ("Freq Opt", Table.Right);
          ("Diff", Table.Right);
          ("Paper O->P", Table.Right);
        ]
  in
  List.iter
    (fun r ->
      let po, pp = r.t1_paper.Spec.p_freq in
      let o_p (f : Pipeline.result -> float) =
        pct (f r.t1_orig) ^ "/" ^ pct (f r.t1_opt)
      in
      Table.add_row t
        [
          r.t1_name;
          r.t1_broadcast;
          r.t1_device;
          o_p (fun x -> x.Pipeline.fr_lut_pct);
          o_p (fun x -> x.Pipeline.fr_ff_pct);
          o_p (fun x -> x.Pipeline.fr_bram_pct);
          o_p (fun x -> x.Pipeline.fr_dsp_pct);
          mhz r.t1_orig.Pipeline.fr_fmax_mhz;
          mhz r.t1_opt.Pipeline.fr_fmax_mhz;
          Printf.sprintf "%.0f%%"
            (improvement_pct ~orig:r.t1_orig ~opt:r.t1_opt);
          Printf.sprintf "%d->%d (%.0f%%)" po pp
            (Float.round
               (100. *. float_of_int (pp - po) /. float_of_int po));
        ])
    rows;
  Table.render t

(* ---------- Tables 2 and 3 ---------- *)

type variant_row = {
  vr_label : string;
  vr_result : Pipeline.result;
  vr_paper_mhz : int option;
}

let run_table2 ?(width = 512) () =
  let build () = Hlsb_designs.Vector_arith.dataflow ~width () in
  let dev = Device.ultrascale_plus in
  (* one session: all three variants are Sched_aware, so they share both
     the elaboration and the schedule artifact *)
  let session =
    Pipeline.create ~device:dev ~name:"vector_arith" ~build ()
  in
  let compile recipe = Pipeline.run_exn session ~recipe in
  [
    {
      vr_label = "Stall";
      vr_result =
        compile { Style.sched = Style.Sched_aware; pipe = Style.Stall; sync = Style.Sync_naive };
      vr_paper_mhz = Some 195;
    };
    {
      vr_label = "Skid Buffer";
      vr_result =
        compile
          {
            Style.sched = Style.Sched_aware;
            pipe = Style.Skid { min_area = false };
            sync = Style.Sync_pruned;
          };
      vr_paper_mhz = Some 299;
    };
    {
      vr_label = "Min-Area Skid Buf.";
      vr_result =
        compile
          {
            Style.sched = Style.Sched_aware;
            pipe = Style.Skid { min_area = true };
            sync = Style.Sync_pruned;
          };
      vr_paper_mhz = Some 301;
    };
  ]

let run_table3 () =
  let dev = Device.virtex7_690t in
  let session =
    Pipeline.create ~device:dev ~name:"pattern_match"
      ~build:(fun () -> Hlsb_designs.Pattern_match.dataflow ())
      ()
  in
  let compile recipe = Pipeline.run_exn session ~recipe in
  [
    {
      vr_label = "Original";
      vr_result = compile Style.original;
      vr_paper_mhz = Some 187;
    };
    {
      vr_label = "Opt. Data";
      vr_result =
        compile
          { Style.sched = Style.Sched_aware; pipe = Style.Stall; sync = Style.Sync_naive };
      vr_paper_mhz = Some 208;
    };
    {
      vr_label = "Opt. Data & Ctrl";
      vr_result = compile Style.optimized;
      vr_paper_mhz = Some 278;
    };
  ]

let render_variants ~title rows =
  let t =
    Table.create
      ~headers:
        [
          ("Implementation", Table.Left);
          ("Frequency", Table.Right);
          ("LUT", Table.Right);
          ("FF", Table.Right);
          ("BRAM", Table.Right);
          ("DSP", Table.Right);
          ("Paper MHz", Table.Right);
        ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.vr_label;
          Printf.sprintf "%.0f MHz" r.vr_result.Pipeline.fr_fmax_mhz;
          Printf.sprintf "%.1f%%" r.vr_result.Pipeline.fr_lut_pct;
          Printf.sprintf "%.1f%%" r.vr_result.Pipeline.fr_ff_pct;
          Printf.sprintf "%.2f%%" r.vr_result.Pipeline.fr_bram_pct;
          Printf.sprintf "%.1f%%" r.vr_result.Pipeline.fr_dsp_pct;
          (match r.vr_paper_mhz with Some m -> string_of_int m | None -> "-");
        ])
    rows;
  title ^ "\n" ^ Table.render t

(* ---------- Fig. 9 ---------- *)

type fig9_series = {
  f9_label : string;
  f9_rows : Calibrate.curve_row list;
}

let run_fig9 () =
  let cal = Calibrate.shared Device.ultrascale_plus in
  (* The three curve families are distinct calibration keys, so they
     characterize concurrently on the shared instance. *)
  Pool.map_list
    (fun (label, build) -> { f9_label = label; f9_rows = build () })
    [
      ("add (int32)", fun () -> Calibrate.op_curve cal Op.Add (Dtype.Int 32));
      ("BRAM write (int32 buffer)", fun () -> Calibrate.mem_curve cal ~width:32);
      ("mul (float32)", fun () -> Calibrate.op_curve cal Op.Fmul Dtype.Float32);
    ]

let render_fig9 series =
  String.concat "\n"
    (List.map
       (fun s ->
         let t =
           Table.create
             ~headers:
               [
                 ("factor", Table.Right);
                 ("HLS est (ns)", Table.Right);
                 ("measured (ns)", Table.Right);
                 ("calibrated (ns)", Table.Right);
               ]
         in
         List.iter
           (fun (r : Calibrate.curve_row) ->
             Table.add_row t
               [
                 string_of_int r.Calibrate.cr_factor;
                 Printf.sprintf "%.2f" r.Calibrate.cr_predicted;
                 Printf.sprintf "%.2f" r.Calibrate.cr_measured;
                 Printf.sprintf "%.2f" r.Calibrate.cr_calibrated;
               ])
           s.f9_rows;
         s.f9_label ^ "\n" ^ Table.render t)
       series)

(* ---------- Fig. 15 ---------- *)

type fig15_row = {
  f15_unroll : int;
  f15_hls_est_ns : float;
  f15_our_est_ns : float;
  f15_actual_ns : float;
  f15_orig_mhz : float;
  f15_opt_mhz : float;
}

let array_max a = Array.fold_left max 0. a

let run_fig15 ?(factors = [ 8; 16; 32; 64; 128 ]) () =
  let dev = Device.ultrascale_plus in
  let cal = Calibrate.shared dev in
  (* Shared calibrate is warmed by the first unroll point; the per-factor
     schedule + compile pairs are independent. *)
  Pool.map_list
    (fun unroll ->
      let kernel () =
        Hlsb_designs.Genome.kernel ~back_search_count:unroll ~lane:0 ()
      in
      let baseline = Schedule.run Schedule.Baseline (kernel ()) in
      let hls_est = array_max (Sched_report.chain_delays baseline) in
      let our_est =
        array_max (Sched_report.chain_delays_calibrated cal baseline)
      in
      (* actual delay of the baseline schedule's critical path, post route;
         pipeline control held fixed (skid) to isolate the data broadcast *)
      let pipe = Style.Skid { min_area = true } in
      let session = Pipeline.of_kernel ~device:dev (kernel ()) in
      let orig =
        Pipeline.run_exn session
          ~recipe:{ Style.sched = Style.Sched_hls; pipe; sync = Style.Sync_naive }
      in
      let opt =
        Pipeline.run_exn session
          ~recipe:{ Style.sched = Style.Sched_aware; pipe; sync = Style.Sync_naive }
      in
      {
        f15_unroll = unroll;
        f15_hls_est_ns = hls_est;
        f15_our_est_ns = our_est;
        f15_actual_ns = orig.Pipeline.fr_critical_ns;
        f15_orig_mhz = orig.Pipeline.fr_fmax_mhz;
        f15_opt_mhz = opt.Pipeline.fr_fmax_mhz;
      })
    factors

let render_fig15 rows =
  let t =
    Table.create
      ~headers:
        [
          ("unroll", Table.Right);
          ("HLS est (ns)", Table.Right);
          ("our est (ns)", Table.Right);
          ("actual (ns)", Table.Right);
          ("Fmax HLS sched", Table.Right);
          ("Fmax our sched", Table.Right);
        ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          string_of_int r.f15_unroll;
          Printf.sprintf "%.2f" r.f15_hls_est_ns;
          Printf.sprintf "%.2f" r.f15_our_est_ns;
          Printf.sprintf "%.2f" r.f15_actual_ns;
          Printf.sprintf "%.0f MHz" r.f15_orig_mhz;
          Printf.sprintf "%.0f MHz" r.f15_opt_mhz;
        ])
    rows;
  Table.render t

(* ---------- Fig. 16 ---------- *)

type fig16_row = {
  f16_iterations : int;
  f16_stages : int;
  f16_stall_mhz : float;
  f16_skid_mhz : float;
}

let run_fig16 ?(iterations = [ 1; 2; 4; 8 ]) () =
  let dev = Device.ultrascale_plus in
  Pool.map_list
    (fun iters ->
      (* stall and skid agree on Sched_aware, so the session reuses both
         the elaborated network and the schedule between them *)
      let session =
        Pipeline.create ~device:dev
          ~name:(Printf.sprintf "stencil_x%d" iters)
          ~build:(fun () -> Hlsb_designs.Stencil.dataflow ~iterations:iters ())
          ()
      in
      let stall =
        Pipeline.run_exn session
          ~recipe:{ Style.sched = Style.Sched_aware; pipe = Style.Stall; sync = Style.Sync_naive }
      in
      let skid =
        Pipeline.run_exn session
          ~recipe:
            {
              Style.sched = Style.Sched_aware;
              pipe = Style.Skid { min_area = true };
              sync = Style.Sync_naive;
            }
      in
      let stages =
        List.fold_left
          (fun acc (k : Design.kernel_info) -> acc + k.Design.ki_depth)
          0 stall.Pipeline.fr_design.Design.kernels
      in
      {
        f16_iterations = iters;
        f16_stages = stages;
        f16_stall_mhz = stall.Pipeline.fr_fmax_mhz;
        f16_skid_mhz = skid.Pipeline.fr_fmax_mhz;
      })
    iterations

let render_fig16 rows =
  let t =
    Table.create
      ~headers:
        [
          ("iterations", Table.Right);
          ("stages", Table.Right);
          ("stall Fmax", Table.Right);
          ("skid Fmax", Table.Right);
        ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          string_of_int r.f16_iterations;
          string_of_int r.f16_stages;
          Printf.sprintf "%.0f MHz" r.f16_stall_mhz;
          Printf.sprintf "%.0f MHz" r.f16_skid_mhz;
        ])
    rows;
  Table.render t

(* ---------- Fig. 17 ---------- *)

type fig17_result = {
  f17_widths : int array;
  f17_out_width : int;
  f17_end_only_bits : int;
  f17_min_area_bits : int;
  f17_cuts : int list;
}

let run_fig17 ?(width = 32) () =
  let dev = Device.ultrascale_plus in
  let kernel = Hlsb_designs.Vector_arith.single_kernel ~width () in
  let sched =
    Schedule.run (Schedule.Broadcast_aware (Calibrate.shared dev)) kernel
  in
  let widths = Sched_report.stage_widths sched in
  let out_width = max 1 (Kernel.data_width_out kernel) in
  let end_only = Skid.end_only ~widths ~out_width in
  let best = Skid.min_area ~widths ~out_width in
  {
    f17_widths = widths;
    f17_out_width = out_width;
    f17_end_only_bits = end_only.Skid.cost_bits;
    f17_min_area_bits = best.Skid.cost_bits;
    f17_cuts = best.Skid.cuts;
  }

let render_fig17 r =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "live bits per stage boundary:\n  ";
  Array.iteri
    (fun i w ->
      Buffer.add_string buf (Printf.sprintf "%d:%d " (i + 1) w);
      if (i + 1) mod 12 = 0 then Buffer.add_string buf "\n  ")
    r.f17_widths;
  Buffer.add_string buf
    (Printf.sprintf "\noutput width: %d bits\n" r.f17_out_width);
  Buffer.add_string buf
    (Printf.sprintf "end-only skid buffer: %d bits\n" r.f17_end_only_bits);
  Buffer.add_string buf
    (Printf.sprintf "min-area skid buffers: %d bits (cuts at %s) -> %.1fx smaller\n"
       r.f17_min_area_bits
       (String.concat ", " (List.map string_of_int r.f17_cuts))
       (float_of_int r.f17_end_only_bits /. float_of_int (max 1 r.f17_min_area_bits)));
  Buffer.contents buf

(* ---------- Fig. 19 ---------- *)

type fig19_row = {
  f19_words : int;
  f19_bram_pct : float;
  f19_orig_mhz : float;
  f19_data_opt_mhz : float;
  f19_full_opt_mhz : float;
}

let run_fig19 ?(sizes = [ 8192; 16384; 32768; 65536; 131072 ]) () =
  let dev = Device.ultrascale_plus in
  Pool.map_list
    (fun words ->
      let session =
        Pipeline.create ~device:dev
          ~name:(Printf.sprintf "stream_buffer_%d" words)
          ~build:(fun () ->
            Hlsb_designs.Stream_buffer.dataflow ~depth_words:words ())
          ()
      in
      let compile recipe name =
        Pipeline.run_exn session ~recipe
          ~name:(Printf.sprintf "stream_buffer_%d_%s" words name)
      in
      let orig = compile Style.original "orig" in
      let data_opt =
        compile
          { Style.sched = Style.Sched_aware; pipe = Style.Stall; sync = Style.Sync_naive }
          "dataopt"
      in
      let full = compile Style.optimized "fullopt" in
      {
        f19_words = words;
        f19_bram_pct = full.Pipeline.fr_bram_pct;
        f19_orig_mhz = orig.Pipeline.fr_fmax_mhz;
        f19_data_opt_mhz = data_opt.Pipeline.fr_fmax_mhz;
        f19_full_opt_mhz = full.Pipeline.fr_fmax_mhz;
      })
    sizes

let render_fig19 rows =
  let t =
    Table.create
      ~headers:
        [
          ("buffer (512b words)", Table.Right);
          ("BRAM %", Table.Right);
          ("original", Table.Right);
          ("data opt only", Table.Right);
          ("data+ctrl opt", Table.Right);
        ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          string_of_int r.f19_words;
          Printf.sprintf "%.0f%%" r.f19_bram_pct;
          Printf.sprintf "%.0f MHz" r.f19_orig_mhz;
          Printf.sprintf "%.0f MHz" r.f19_data_opt_mhz;
          Printf.sprintf "%.0f MHz" r.f19_full_opt_mhz;
        ])
    rows;
  Table.render t

(* ---------- Ablations ---------- *)

type ablation_row = {
  ab_label : string;
  ab_value : float;
  ab_unit : string;
}

let run_ablations () =
  let dev = Device.ultrascale_plus in
  let rows = ref [] in
  let push label value unit_ = rows := { ab_label = label; ab_value = value; ab_unit = unit_ } :: !rows in
  (* 1. smoothing window: registers inserted + Fmax on genome *)
  List.iter
    (fun window ->
      (* shared, cache-backed instances: one per (device, window) *)
      let cal = Calibrate.shared ~window dev in
      let kernel = Hlsb_designs.Genome.kernel ~lane:0 () in
      let sched = Schedule.run (Schedule.Broadcast_aware cal) kernel in
      push
        (Printf.sprintf "smoothing window %d: registers inserted" window)
        (float_of_int (Schedule.registers_inserted sched))
        "regs")
    [ 0; 1; 2 ];
  (* 2. skid placement: end-only vs min-area buffer bits on Fig. 17 *)
  let f17 = run_fig17 () in
  push "skid end-only buffer" (float_of_int f17.f17_end_only_bits) "bits";
  push "skid min-area buffer" (float_of_int f17.f17_min_area_bits) "bits";
  (* 3. sync pruning granularity on the HBM stencil *)
  let hbm_session =
    Pipeline.create ~device:Device.alveo_u50 ~name:"hbm_stencil"
      ~build:(fun () -> Hlsb_designs.Hbm_stencil.dataflow ())
      ()
  in
  let compile recipe name = Pipeline.run_exn hbm_session ~recipe ~name in
  let naive =
    compile
      { Style.sched = Style.Sched_aware; pipe = Style.Skid { min_area = true }; sync = Style.Sync_naive }
      "hbm_naive"
  in
  let pruned = compile Style.optimized "hbm_pruned" in
  push "hbm stencil, naive sync" naive.Pipeline.fr_fmax_mhz "MHz";
  push "hbm stencil, pruned sync" pruned.Pipeline.fr_fmax_mhz "MHz";
  List.rev !rows

let render_ablations rows =
  let t =
    Table.create
      ~headers:[ ("ablation", Table.Left); ("value", Table.Right); ("unit", Table.Left) ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [ r.ab_label; Printf.sprintf "%.1f" r.ab_value; r.ab_unit ])
    rows;
  Table.render t

(* ---------- Shape predicates ---------- *)

type shape = { claim : string; holds : bool }

(* [p] holds for every adjacent pair of [xs], in order. *)
let rec pairwise p = function
  | a :: (b :: _ as rest) -> p a b && pairwise p rest
  | _ -> true

let fmax (r : Pipeline.result) = r.Pipeline.fr_fmax_mhz

let table1_shapes rows =
  let mean =
    List.fold_left
      (fun acc r -> acc +. improvement_pct ~orig:r.t1_orig ~opt:r.t1_opt)
      0. rows
    /. float_of_int (max 1 (List.length rows))
  in
  [
    {
      claim =
        Printf.sprintf "optimized > original on every row (mean gain %.0f%%)"
          mean;
      holds = List.for_all (fun r -> fmax r.t1_opt > fmax r.t1_orig) rows;
    };
  ]

let variant_mhz rows = List.map (fun r -> fmax r.vr_result) rows

let table2_shapes rows =
  match variant_mhz rows with
  | [ stall; skid; min_area ] ->
    [
      { claim = "skid > stall"; holds = skid > stall };
      {
        claim = "min-area within 5% of skid";
        holds = Float.abs (min_area -. skid) <= 0.05 *. skid;
      };
    ]
  | _ -> [ { claim = "three variants"; holds = false } ]

let table3_shapes rows =
  [
    {
      claim = "orig < data < data+ctrl";
      holds = pairwise ( < ) (variant_mhz rows);
    };
  ]

let fig15_shapes rows =
  let col f = List.map f rows in
  [
    {
      claim = "HLS estimate constant";
      holds = pairwise Float.equal (col (fun r -> r.f15_hls_est_ns));
    };
    {
      claim = "our estimate rises with unroll";
      holds = pairwise ( < ) (col (fun r -> r.f15_our_est_ns));
    };
    {
      claim = "opt >= orig at each unroll";
      holds = List.for_all (fun r -> r.f15_opt_mhz >= r.f15_orig_mhz) rows;
    };
  ]

let fig16_shapes rows =
  [
    {
      claim = "stall falls with iterations";
      holds = pairwise ( > ) (List.map (fun r -> r.f16_stall_mhz) rows);
    };
    {
      claim = "skid >= stall from 2 iterations on";
      holds =
        List.for_all
          (fun r -> r.f16_iterations < 2 || r.f16_skid_mhz >= r.f16_stall_mhz)
          rows;
    };
  ]

let fig19_shapes rows =
  let margin r = r.f19_data_opt_mhz -. r.f19_orig_mhz in
  [
    {
      claim = "original falls with size";
      holds = pairwise ( > ) (List.map (fun r -> r.f19_orig_mhz) rows);
    };
    {
      claim = "full >= data >= orig on each row";
      holds =
        List.for_all
          (fun r ->
            r.f19_full_opt_mhz >= r.f19_data_opt_mhz
            && r.f19_data_opt_mhz >= r.f19_orig_mhz)
          rows;
    };
    {
      claim = "data-opt margin shrinks from smallest to largest buffer";
      holds =
        (match (rows, List.rev rows) with
        | first :: _, last :: _ -> margin last < margin first
        | _ -> false);
    };
  ]

(* ---------- The section list ---------- *)

type section = {
  name : string;
  title : string;
  render : unit -> string * shape list;
}

let section name title run render shapes =
  {
    name;
    title;
    render =
      (fun () ->
        let rows = run () in
        (render rows, shapes rows));
  }

let no_shapes _ = []

let sections =
  [
    section "table1" "Regenerate Table 1" (fun () -> run_table1 ())
      render_table1 table1_shapes;
    section "table2" "Regenerate Table 2" (fun () -> run_table2 ())
      (render_variants ~title:"Table 2 (paper: 195/299/301 MHz)")
      table2_shapes;
    section "table3" "Regenerate Table 3" run_table3
      (render_variants ~title:"Table 3 (paper: 187/208/278 MHz)")
      table3_shapes;
    section "fig9" "Regenerate Figure 9" (fun () -> run_fig9 ()) render_fig9
      no_shapes;
    section "fig15" "Regenerate Figure 15" (fun () -> run_fig15 ())
      render_fig15 fig15_shapes;
    section "fig16" "Regenerate Figure 16" (fun () -> run_fig16 ())
      render_fig16 fig16_shapes;
    section "fig17" "Regenerate Figure 17" (fun () -> run_fig17 ())
      render_fig17 no_shapes;
    section "fig19" "Regenerate Figure 19" (fun () -> run_fig19 ())
      render_fig19 fig19_shapes;
    section "ablation" "Run the design-choice ablations" run_ablations
      render_ablations no_shapes;
  ]

let block s =
  let text, shapes = s.render () in
  let buf = Buffer.create (String.length text + 256) in
  (* every render ends with a newline *)
  Printf.bprintf buf "<!-- experiments:%s -->\n```text\n%s" s.name text;
  List.iter
    (fun sh ->
      Printf.bprintf buf "shape: %s %s\n" sh.claim
        (if sh.holds then "holds" else "FAILS"))
    shapes;
  Buffer.add_string buf "```\n";
  Buffer.contents buf
