open Hlsb_ir

let kernel ?(back_search_count = 64) ~lane () =
  let dag = Dag.create () in
  let i32 = Dtype.Int 32 in
  let i16 = Dtype.Int 16 in
  let in_fifo = Dag.add_fifo dag ~name:(Printf.sprintf "gin%d" lane) ~dtype:(Dtype.Uint 128) ~depth:16 in
  let out_fifo = Dag.add_fifo dag ~name:(Printf.sprintf "gout%d" lane) ~dtype:i32 ~depth:16 in
  let anchor = Dag.fifo_read dag ~fifo:in_fifo in
  (* anchor word carries curr.x / curr.y / tag / qspan *)
  let curr_x = Dag.op dag (Op.Slice (31, 0)) ~dtype:i32 [ anchor ] in
  let curr_y = Dag.op dag (Op.Slice (63, 32)) ~dtype:i32 [ anchor ] in
  let curr_tag = Dag.op dag (Op.Slice (95, 64)) ~dtype:i32 [ anchor ] in
  let avg_qspan = Dag.op dag (Op.Slice (111, 96)) ~dtype:i16 [ anchor ] in
  let max_dist_x = Dag.input dag ~name:(Printf.sprintf "max_dist_x%d" lane) ~dtype:i32 in
  let max_dist_y = Dag.input dag ~name:(Printf.sprintf "max_dist_y%d" lane) ~dtype:i32 in
  let bw = Dag.input dag ~name:(Printf.sprintf "bw%d" lane) ~dtype:i32 in
  let neg_inf = Dag.const dag ~dtype:i32 (-2147483648L) in
  (* The previous-anchor window lives in BRAM; the running window is also
     kept in registers for the unrolled comparators. *)
  let window_buf =
    Dag.add_buffer dag
      ~name:(Printf.sprintf "window%d" lane)
      ~dtype:(Dtype.Uint 128) ~depth:8192 ~partition:1
  in
  let widx = Dag.input dag ~name:(Printf.sprintf "widx%d" lane) ~dtype:i32 in
  ignore (Dag.store dag ~buffer:window_buf ~index:widx ~value:anchor);
  let scores = ref [] in
  for j = 0 to back_search_count - 1 do
    let prev_x = Dag.input dag ~name:(Printf.sprintf "prev%d_x%d" lane j) ~dtype:i32 in
    let prev_y = Dag.input dag ~name:(Printf.sprintf "prev%d_y%d" lane j) ~dtype:i32 in
    let prev_w = Dag.input dag ~name:(Printf.sprintf "prev%d_w%d" lane j) ~dtype:i16 in
    let prev_tag = Dag.input dag ~name:(Printf.sprintf "prev%d_t%d" lane j) ~dtype:i32 in
    (* Fig. 13 lines 6-14: every lane reads the shared curr.* values. *)
    let dist_x = Dag.op dag Op.Sub ~dtype:i32 [ prev_x; curr_x ] in
    let dist_y = Dag.op dag Op.Sub ~dtype:i32 [ prev_y; curr_y ] in
    let dd0 = Dag.op dag Op.Sub ~dtype:i32 [ dist_x; dist_y ] in
    let dd = Dag.op dag Op.Abs ~dtype:i32 [ dd0 ] in
    let min_d = Dag.op dag Op.Min ~dtype:i32 [ dist_y; dist_x ] in
    let log_dd = Dag.op dag Op.Log2 ~dtype:i32 [ dd ] in
    let dd16 = Dag.op dag (Op.Slice (15, 0)) ~dtype:i16 [ dd ] in
    let m = Dag.op dag Op.Mul ~dtype:i16 [ dd16; avg_qspan ] in
    let m32 = Dag.op dag (Op.Slice (15, 0)) ~dtype:i32 [ m ] in
    let temp = Dag.op dag Op.Min ~dtype:i32 [ min_d; prev_w ] in
    let t1 = Dag.op dag Op.Sub ~dtype:i32 [ temp; m32 ] in
    let score = Dag.op dag Op.Sub ~dtype:i32 [ t1; log_dd ] in
    (* Fig. 13 lines 15-18: the guard conditions, all reading shared
       thresholds. *)
    let zero = Dag.const dag ~dtype:i32 0L in
    let c1 = Dag.op dag (Op.Icmp Op.Eq) ~dtype:Dtype.Bool [ dist_x; zero ] in
    let c2 = Dag.op dag (Op.Icmp Op.Gt) ~dtype:Dtype.Bool [ dist_x; max_dist_x ] in
    let c3 = Dag.op dag (Op.Icmp Op.Gt) ~dtype:Dtype.Bool [ dist_y; max_dist_y ] in
    let c4 = Dag.op dag (Op.Icmp Op.Le) ~dtype:Dtype.Bool [ dist_y; zero ] in
    let c5 = Dag.op dag (Op.Icmp Op.Gt) ~dtype:Dtype.Bool [ dd; bw ] in
    let c6 = Dag.op dag (Op.Icmp Op.Ne) ~dtype:Dtype.Bool [ curr_tag; prev_tag ] in
    let or1 = Dag.op dag Op.Or_ ~dtype:Dtype.Bool [ c1; c2 ] in
    let or2 = Dag.op dag Op.Or_ ~dtype:Dtype.Bool [ c3; c4 ] in
    let or3 = Dag.op dag Op.Or_ ~dtype:Dtype.Bool [ c5; c6 ] in
    let or4 = Dag.op dag Op.Or_ ~dtype:Dtype.Bool [ or1; or2 ] in
    let guard = Dag.op dag Op.Or_ ~dtype:Dtype.Bool [ or4; or3 ] in
    let final = Dag.op dag Op.Select ~dtype:i32 [ guard; neg_inf; score ] in
    scores := final :: !scores
  done;
  let best = Builders.reduce_tree dag ~op:Op.Max ~dtype:i32 !scores in
  ignore (Dag.fifo_write dag ~fifo:out_fifo ~value:best);
  Kernel.create ~name:(Printf.sprintf "genome_lane%d" lane) ~trip_count:4096 dag

let dataflow ?(lanes = 4) () =
  let df = Dataflow.create () in
  for lane = 0 to lanes - 1 do
    let k = kernel ~lane () in
    let p = Dataflow.add_process df ~name:k.Kernel.name ~kernel:k () in
    ignore
      (Dataflow.add_channel df
         ~name:(Printf.sprintf "gin%d" lane)
         ~src:(-1) ~dst:p ~dtype:(Dtype.Uint 128) ~depth:16 ());
    ignore
      (Dataflow.add_channel df
         ~name:(Printf.sprintf "gout%d" lane)
         ~src:p ~dst:(-1) ~dtype:(Dtype.Int 32) ~depth:16 ())
  done;
  df

let spec =
  Spec.make ~name:"Genome Sequencing" ~broadcast:"Data"
    ~device:Hlsb_device.Device.ultrascale_plus
    ~build:(fun () -> dataflow ())
    ~paper:
      {
        Spec.p_lut = (22, 22);
        p_ff = (11, 12);
        p_bram = (6, 6);
        p_dsp = (8, 8);
        p_freq = (264, 341);
      }
