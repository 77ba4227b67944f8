(* Cross-process tests re-exec this binary with a worker spec in the
   environment; the worker runs and exits before alcotest ever parses
   argv. *)
let () =
  match Sys.getenv_opt "HLSB_T_SERVE_WORKER" with
  | Some spec -> exit (T_serve.worker spec)
  | None -> ()

let () =
  Alcotest.run "broadcast_hls"
    [
      ("util", T_util.suite);
      ("telemetry", T_telemetry.suite);
      ("obs", T_obs.suite);
      ("ir", T_ir.suite);
      ("device", T_device.suite);
      ("netlist", T_netlist.suite);
      ("physical", T_physical.suite);
      ("delay", T_delay.suite);
      ("sched", T_sched.suite);
      ("ctrl", T_ctrl.suite);
      ("sim", T_sim.suite);
      ("fuzz", T_fuzz.suite);
      ("rtlgen", T_rtlgen.suite);
      ("designs", T_designs.suite);
      ("core", T_core.suite);
      ("pipeline", T_pipeline.suite);
      ("frontend", T_frontend.suite);
      ("transform", T_transform.suite);
      ("explore", T_explore.suite);
      ("serve", T_serve.suite);
      ("export", T_export.suite);
      ("golden", T_golden.suite);
      ("alloc", T_alloc.suite);
    ]
