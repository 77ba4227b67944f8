open Hlsb_ir

(* Pattern matching from the composable-accelerator generator [4]: parallel
   PEs each score the shared input window against a stored pattern (data
   broadcast of the window characters inside each PE), and the controller
   synchronizes all PEs before combining scores (Fig. 6b). *)

let pe_kernel ~pe ~taps =
  let dag = Dag.create () in
  let i8 = Dtype.Int 8 in
  let i32 = Dtype.Int 32 in
  let in_fifo =
    Dag.add_fifo dag ~name:(Printf.sprintf "pm_in%d" pe) ~dtype:(Dtype.Uint 64) ~depth:16
  in
  let out_fifo =
    Dag.add_fifo dag ~name:(Printf.sprintf "pm_s%d" pe) ~dtype:i32 ~depth:16
  in
  let word = Dag.fifo_read dag ~fifo:in_fifo in
  let chars =
    Builders.scatter_word dag ~word ~parts:8
    |> List.map (fun c -> Dag.op dag (Op.Slice (7, 0)) ~dtype:i8 [ c ])
  in
  (* pattern in BRAM *)
  let pat_buf =
    Dag.add_buffer dag
      ~name:(Printf.sprintf "pattern%d" pe)
      ~dtype:(Dtype.Uint 64) ~depth:4096 ~partition:1
  in
  let pidx = Dag.input dag ~name:(Printf.sprintf "pidx%d" pe) ~dtype:i32 in
  let pat_word = Dag.load dag ~buffer:pat_buf ~index:pidx in
  let pat_chars =
    Builders.scatter_word dag ~word:pat_word ~parts:8
    |> List.map (fun c -> Dag.op dag (Op.Slice (7, 0)) ~dtype:i8 [ c ])
  in
  (* each input character is compared at many tap offsets: the window
     broadcast *)
  let window =
    List.concat (List.init (taps / 8) (fun _ -> chars))
  in
  let pattern =
    List.concat (List.init (taps / 8) (fun _ -> pat_chars))
  in
  let score = Builders.compare_score dag ~prefix:(Printf.sprintf "pm%d" pe) ~dtype:i8 ~window ~pattern in
  let score32 = Dag.op dag (Op.Slice (7, 0)) ~dtype:i32 [ score ] in
  ignore (Dag.fifo_write dag ~fifo:out_fifo ~value:score32);
  Kernel.create ~name:(Printf.sprintf "pm_pe%d" pe) ~trip_count:65536 dag

let combine_kernel ~pes =
  let dag = Dag.create () in
  let i32 = Dtype.Int 32 in
  let scores =
    List.init pes (fun pe ->
      Dag.fifo_read dag
        ~fifo:(Dag.add_fifo dag ~name:(Printf.sprintf "pm_s%d" pe) ~dtype:i32 ~depth:16))
  in
  let best = Builders.reduce_tree dag ~op:Op.Max ~dtype:i32 scores in
  let out = Dag.add_fifo dag ~name:"pm_out" ~dtype:i32 ~depth:16 in
  ignore (Dag.fifo_write dag ~fifo:out ~value:best);
  Kernel.create ~name:"pm_combine" ~trip_count:65536 dag

let dataflow ?(pes = 16) ?(taps = 64) () =
  let df = Dataflow.create () in
  let i32 = Dtype.Int 32 in
  let combine =
    Dataflow.add_process df ~name:"pm_combine" ~kernel:(combine_kernel ~pes)
      ~latency:8 ()
  in
  let pe_procs =
    List.init pes (fun pe ->
      let k = pe_kernel ~pe ~taps in
      (* PE latencies are static and unequal: pruning waits only on the
         longest one (§4.2 case 2) *)
      let p =
        Dataflow.add_process df ~name:k.Kernel.name ~kernel:k
          ~latency:(10 + (2 * (pe mod 5)))
          ()
      in
      ignore
        (Dataflow.add_channel df
           ~name:(Printf.sprintf "pm_in%d" pe)
           ~src:(-1) ~dst:p ~dtype:(Dtype.Uint 64) ~depth:16 ());
      ignore
        (Dataflow.add_channel df
           ~name:(Printf.sprintf "pm_s%d" pe)
           ~src:p ~dst:combine ~dtype:i32 ~depth:16 ());
      p)
  in
  ignore
    (Dataflow.add_channel df ~name:"pm_out" ~src:combine ~dst:(-1) ~dtype:i32
       ~depth:16 ());
  Dataflow.add_sync_group df (pe_procs @ [ combine ]);
  df

let spec =
  Spec.make ~name:"Pattern Matching" ~broadcast:"Data & Sync."
    ~device:Hlsb_device.Device.virtex7_690t
    ~build:(fun () -> dataflow ())
    ~paper:
      {
        Spec.p_lut = (17, 17);
        p_ff = (5, 7);
        p_bram = (9, 9);
        p_dsp = (0, 0);
        p_freq = (187, 278);
      }
