open Hlsb_ir

(* HBM-based Jacobi stencil (§5.3): 28 independent HBM pseudo-channels each
   deliver 512-bit words that are scattered into 8 64-bit FIFOs. The SODA
   compiler expresses all 28 flows in one loop, so the HLS front end
   synchronizes all of them every iteration (Fig. 6a) even though the flows
   never touch — the sync broadcast that §4.2 prunes by splitting the loop. *)

let port_kernel ~port =
  let dag = Dag.create () in
  let f32 = Dtype.Float32 in
  let word_t = Dtype.Uint 512 in
  let in_fifo =
    Dag.add_fifo dag ~name:("hbm" ^ string_of_int port) ~dtype:word_t ~depth:16
  in
  let word = Dag.fifo_read dag ~fifo:in_fifo in
  (* per-port reorder buffer *)
  let buf =
    Dag.add_buffer dag
      ~name:("reorder" ^ string_of_int port)
      ~dtype:word_t ~depth:1024 ~partition:1
  in
  let idx = Dag.input dag ~name:("ridx" ^ string_of_int port) ~dtype:(Dtype.Int 32) in
  ignore (Dag.store dag ~buffer:buf ~index:idx ~value:word);
  let delayed = Dag.load dag ~buffer:buf ~index:idx in
  let lanes = Builders.scatter_word dag ~word:delayed ~parts:8 in
  (* each 64-bit lane feeds two float stencil taps of the port's compute
     stage before streaming out (the SODA datapath the ports exist for) *)
  let third = Dag.const dag ~dtype:f32 1051372203L in
  List.iteri
    (fun lane v ->
      let lo = Dag.op dag (Op.Slice (31, 0)) ~dtype:f32 [ v ] in
      let hi = Dag.op dag (Op.Slice (63, 32)) ~dtype:f32 [ v ] in
      let s1 = Dag.op dag Op.Fadd ~dtype:f32 [ lo; hi ] in
      let p1 = Dag.op dag Op.Fmul ~dtype:f32 [ s1; third ] in
      let p2 = Dag.op dag Op.Fmul ~dtype:f32 [ lo; third ] in
      let s2 = Dag.op dag Op.Fadd ~dtype:f32 [ p1; p2 ] in
      let s3 = Dag.op dag Op.Fadd ~dtype:f32 [ s2; hi ] in
      let f =
        Dag.add_fifo dag
          ~name:("flow" ^ string_of_int port ^ "_" ^ string_of_int lane)
          ~dtype:f32 ~depth:16
      in
      ignore (Dag.fifo_write dag ~fifo:f ~value:s3))
    lanes;
  Kernel.create ~name:("hbm_port" ^ string_of_int port) ~trip_count:65536 dag

let dataflow ?(ports = 28) () =
  let df = Dataflow.create () in
  let procs =
    List.init ports (fun port ->
      let k = port_kernel ~port in
      let p = Dataflow.add_process df ~name:k.Kernel.name ~kernel:k ~latency:(6 + (port mod 3)) () in
      ignore
        (Dataflow.add_channel df
           ~name:("hbm" ^ string_of_int port)
           ~src:(-1) ~dst:p ~dtype:(Dtype.Uint 512) ~depth:16 ());
      for lane = 0 to 7 do
        ignore
          (Dataflow.add_channel df
             ~name:("flow" ^ string_of_int port ^ "_" ^ string_of_int lane)
             ~src:p ~dst:(-1) ~dtype:Dtype.Float32 ~depth:16 ())
      done;
      p)
  in
  (* one source loop = one sync domain over every port (Fig. 6a) *)
  Dataflow.add_sync_group df procs;
  df

let spec =
  Spec.make ~name:"HBM-Based Stencil" ~broadcast:"Pipe. Ctrl. & Sync."
    ~device:Hlsb_device.Device.alveo_u50
    ~build:(fun () -> dataflow ())
    ~paper:
      {
        Spec.p_lut = (21, 23);
        p_ff = (23, 23);
        p_bram = (34, 31);
        p_dsp = (37, 37);
        p_freq = (191, 324);
      }
