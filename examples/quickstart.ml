(* Quickstart: build the paper's Figure 1 in thirty lines, watch the HLS
   flow mis-schedule it, and fix it with the broadcast-aware flow.

     dune exec examples/quickstart.exe

   The design is a pipelined loop whose body is unrolled 512 times; the
   loop-invariant value [source] is read by every unrolled instance, which
   silently becomes a 512-way broadcast in the datapath (paper section
   3.1). (Broadcast cost is a *spread* phenomenon: at small unroll factors
   the sinks sit close together and nothing goes wrong — scale the factor
   down and watch the two flows converge.) *)

open Hlsb_ir
module Device = Hlsb_device.Device
module Style = Hlsb_ctrl.Style

let i32 = Dtype.Int 32

let build_kernel () =
  let dag = Dag.create () in
  let in_fifo = Dag.add_fifo dag ~name:"in" ~dtype:i32 ~depth:8 in
  let out_fifo = Dag.add_fifo dag ~name:"out" ~dtype:(Dtype.Uint 256) ~depth:8 in
  (* `source` is defined outside the loop body: Fig. 1 line 1 *)
  let source = Dag.fifo_read dag ~fifo:in_fifo in
  let results = ref [] in
  (* #pragma HLS unroll, factor 512: Fig. 1 line 4 *)
  for j = 0 to 511 do
    let foo = Dag.input dag ~name:(Printf.sprintf "foo%d" j) ~dtype:i32 in
    let bar = Dag.input dag ~name:(Printf.sprintf "bar%d" j) ~dtype:i32 in
    (* a[j] = source + foo[j]; b[j] = a[j] - bar[j], then a little more
       per-lane arithmetic so each body instance has real area *)
    (* a[j] = source + foo[j]; b[j] = a[j] - bar[j]: exactly Fig. 2's
       add+sub chain behind the broadcast *)
    let a = Dag.op dag Op.Add ~dtype:i32 [ source; foo ] in
    let b = Dag.op dag Op.Sub ~dtype:i32 [ a; bar ] in
    results := b :: !results
  done;
  (* Fig. 1 stores b[i]; we stream the lane results out in eight packed
     group words (real designs write the array back, they do not reduce) *)
  let lanes = Array.of_list (List.rev !results) in
  let groups =
    List.init 8 (fun g ->
      let members = Array.to_list (Array.sub lanes (g * 64) 64) in
      Hlsb_designs.Builders.reduce_tree dag ~op:Op.Xor ~dtype:i32 members)
  in
  let packed = Dag.op dag Op.Concat ~dtype:(Dtype.Uint 256) groups in
  ignore (Dag.fifo_write dag ~fifo:out_fifo ~value:packed);
  Kernel.create ~name:"fig1" dag

let () =
  let kernel = build_kernel () in
  let device = Device.ultrascale_plus in

  (* 1. the broadcast is already visible at the source level *)
  print_endline "--- source-level broadcast classification ---";
  let df = Dataflow.create () in
  let p = Dataflow.add_process df ~name:"fig1" ~kernel () in
  ignore
    (Dataflow.add_channel df ~name:"in" ~src:(-1) ~dst:p ~dtype:i32 ());
  ignore (Dataflow.add_channel df ~name:"out" ~src:p ~dst:(-1) ~dtype:i32 ());
  print_string (Core.Classify.to_string (Core.Classify.analyze df));

  (* 2. compile with the vendor-style flow and with the paper's flow *)
  print_endline "\n--- compilation: original vs broadcast-aware ---";
  let session =
    Core.Pipeline.create ~device ~name:"fig1" ~build:(fun () -> df) ()
  in
  let orig = Core.Pipeline.run_exn session ~recipe:Style.original in
  let opt = Core.Pipeline.run_exn session ~recipe:Style.optimized in
  print_endline (Core.Pipeline.summary orig);
  print_endline (Core.Pipeline.summary opt);
  Printf.printf "frequency gain: %.0f%%\n"
    (Core.Experiments.improvement_pct ~orig ~opt);

  (* 3. where did the time go? the original's critical path runs through
     the broadcast *)
  print_endline "\n--- original design's critical path ---";
  List.iter
    (fun (s : Hlsb_physical.Timing.path_step) ->
      Printf.printf "  %-26s arrival %.2f ns\n" s.Hlsb_physical.Timing.ps_cell_name
        s.Hlsb_physical.Timing.ps_arrival)
    orig.Core.Pipeline.fr_timing.Hlsb_physical.Timing.path
