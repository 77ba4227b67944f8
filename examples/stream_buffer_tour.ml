(* The Figure 18/19 walkthrough: a design as innocent as a stream buffer
   suffers from BOTH broadcast categories at once — the write data register
   fans out to every BRAM unit (data), and the stall/enable signal fans out
   to every unit and register (pipeline control). This example sweeps the
   buffer size through three optimization levels and then demonstrates, by
   cycle-accurate simulation, that skid-buffer control changes none of the
   pipeline's behaviour — only its clock.

     dune exec examples/stream_buffer_tour.exe *)

module Device = Hlsb_device.Device
module Style = Hlsb_ctrl.Style
module Pipeline = Hlsb_sim.Pipeline
module Table = Hlsb_util.Table

let sweep () =
  print_endline "--- Fmax vs buffer size (Fig. 19) ---";
  let t =
    Table.create
      ~headers:
        [
          ("words x 512b", Table.Right);
          ("original", Table.Right);
          ("data opt", Table.Right);
          ("data+ctrl opt", Table.Right);
          ("critical structure (original)", Table.Left);
        ]
  in
  List.iter
    (fun words ->
      let build () = Hlsb_designs.Stream_buffer.dataflow ~depth_words:words () in
      let session =
        Core.Pipeline.create ~device:Device.ultrascale_plus
          ~name:(Printf.sprintf "sb%d" words) ~build ()
      in
      let compile recipe tag =
        Core.Pipeline.run_exn ~name:(Printf.sprintf "sb%d_%s" words tag) session
          ~recipe
      in
      let orig = compile Style.original "o" in
      let data_only =
        compile
          { Style.sched = Style.Sched_aware; pipe = Style.Stall; sync = Style.Sync_naive }
          "d"
      in
      let full = compile Style.optimized "f" in
      let structure =
        match orig.Core.Pipeline.fr_timing.Hlsb_physical.Timing.worst_net_class with
        | Some Hlsb_netlist.Netlist.Ctrl_pipeline -> "stall broadcast"
        | Some Hlsb_netlist.Netlist.Data_broadcast -> "data broadcast"
        | Some Hlsb_netlist.Netlist.Ctrl_sync -> "sync broadcast"
        | Some Hlsb_netlist.Netlist.Data | None -> "plain datapath"
      in
      Table.add_row t
        [
          string_of_int words;
          Printf.sprintf "%.0f MHz" orig.Core.Pipeline.fr_fmax_mhz;
          Printf.sprintf "%.0f MHz" data_only.Core.Pipeline.fr_fmax_mhz;
          Printf.sprintf "%.0f MHz" full.Core.Pipeline.fr_fmax_mhz;
          structure;
        ])
    [ 8192; 32768; 131072 ];
  print_string (Table.render t);
  print_endline
    "Fixing only the data broadcast is not enough: the enable broadcast\n\
     dominates until the control strategy changes too (paper section 5.5)."

let simulate () =
  print_endline "\n--- functional equivalence of the two control strategies ---";
  let inputs = List.init 40 (fun i -> i) in
  (* downstream that keeps pausing *)
  let ready c = c mod 7 <> 3 && c mod 11 <> 0 in
  let stages = 12 in
  let stall = Pipeline.run_stall ~stages ~inputs ~ready ~f:(fun x -> x * x) in
  let skid =
    Pipeline.run_skid ~stages
      ~skid_depth:(2 * (stages + 1))
      ~ctrl_delay:2 ~gate:Pipeline.Gate_credit ~inputs ~ready
      ~f:(fun x -> x * x)
  in
  Printf.printf "stall control: %d outputs in %d cycles\n"
    (List.length stall.Pipeline.outputs)
    stall.Pipeline.cycles;
  Printf.printf "skid control:  %d outputs in %d cycles (max occupancy %d, overflow %b)\n"
    (List.length skid.Pipeline.outputs)
    skid.Pipeline.cycles skid.Pipeline.max_occupancy skid.Pipeline.overflow;
  Printf.printf "output streams identical: %b\n"
    (stall.Pipeline.outputs = skid.Pipeline.outputs);
  (* and the sizing rule matters: *)
  let tight =
    Pipeline.run_skid ~stages ~skid_depth:(stages / 2) ~ctrl_delay:0
      ~gate:Pipeline.Gate_empty ~inputs
      ~ready:(fun c -> c < 5 || c > 70)
      ~f:(fun x -> x * x)
  in
  Printf.printf
    "undersized buffer (N/2 entries) under a long stall: overflow = %b\n"
    tight.Pipeline.overflow

let () =
  sweep ();
  simulate ()
