(* The section 5.3 case study: the HBM stencil's 28 memory ports are
   expressed in one source loop, so the HLS front end synchronizes 28
   completely independent flows every iteration (Fig. 6a). Pruning the
   synchronization — splitting the loop — removes the reduce-broadcast
   structure and more than doubles the headroom, without changing a single
   output token.

     dune exec examples/dataflow_pruning.exe *)

open Hlsb_ir
module Device = Hlsb_device.Device
module Style = Hlsb_ctrl.Style
module Sync = Hlsb_ctrl.Sync
module Network = Hlsb_sim.Network

let () =
  let df = Hlsb_designs.Hbm_stencil.dataflow ~ports:28 () in

  print_endline "--- the glued network (one source loop) ---";
  print_string (Core.Classify.to_string (Core.Classify.analyze df));

  (* 1. what the pruning pass does *)
  let pruned = Sync.split_independent df in
  Printf.printf "\nsync groups before pruning: %d (largest: %d members)\n"
    (List.length (Dataflow.sync_groups df))
    (List.fold_left (fun a g -> max a (List.length g)) 0 (Dataflow.sync_groups df));
  Printf.printf "sync groups after pruning:  %d (largest: %d members)\n"
    (List.length (Dataflow.sync_groups pruned))
    (List.fold_left (fun a g -> max a (List.length g)) 0 (Dataflow.sync_groups pruned));

  (* 2. the Fmax consequence *)
  print_endline "\n--- frequency: naive sync vs pruned sync ---";
  let session =
    Core.Pipeline.create ~device:Device.alveo_u50 ~name:"hbm"
      ~build:(fun () -> df) ()
  in
  let compile recipe tag =
    Core.Pipeline.run_exn ~name:("hbm_" ^ tag) session ~recipe
  in
  let naive =
    compile
      { Style.sched = Style.Sched_aware; pipe = Style.Skid { min_area = true }; sync = Style.Sync_naive }
      "naive"
  in
  let opt = compile Style.optimized "pruned" in
  print_endline (Core.Pipeline.summary naive);
  print_endline (Core.Pipeline.summary opt);
  Printf.printf "gain from pruning alone: %.0f%%  (paper: 191 -> 324 MHz, +70%%)\n"
    (Core.Experiments.improvement_pct ~orig:naive ~opt);

  (* 3. the functional non-consequence: every flow's output stream is
     untouched, and decoupled flows ride through each other's stalls *)
  print_endline "\n--- token-level simulation ---";
  let slow_port = 5 in
  let ready ~chan ~cycle =
    (* one port's consumer is slow; the rest are always ready *)
    if chan mod 9 = slow_port then cycle mod 3 = 0 else true
  in
  let glued_run = Network.run df ~tokens:50 ~ready in
  let pruned_run = Network.run pruned ~tokens:50 ~ready in
  Printf.printf "glued:  all flows finish in %d cycles (barrier couples them)\n"
    glued_run.Network.cycles;
  Printf.printf "pruned: all flows finish in %d cycles\n" pruned_run.Network.cycles;
  let same_streams =
    List.for_all2
      (fun (c1, s1) (c2, s2) -> c1 = c2 && s1 = s2)
      glued_run.Network.delivered pruned_run.Network.delivered
  in
  Printf.printf "every output stream identical after pruning: %b\n" same_streams
