(* hlsbc — command-line front end for the broadcast-aware HLS flow.

   Subcommands:
     list                     benchmark designs and devices
     passes                   stages of the compile pipeline
     classify  DESIGN         source-level broadcast report (section 3)
     compile   DESIGN         compile under a recipe, print Fmax/resources
                              (--dump-after STAGE, --explain)
     explore                  search-driven Fmax auto-tuner over recipes x
                              transform plans x register injection
     profile   DESIGN         compile with telemetry: spans + metrics
     path      DESIGN         critical path under a recipe
     schedule  DESIGN         schedule report of every kernel, per process
     calibrate                warm / inspect / clear the calibration cache
     obs                      run ledger: list | report | diff | regress | prom
     experiments [NAME...]    EXPERIMENTS.md's generated blocks
     table1|table2|table3     regenerate the paper's tables
     fig9|fig15|fig16|fig17|fig19   regenerate the paper's figures
     ablation                 design-choice ablations *)

module Experiments = Core.Experiments
module Pipeline = Core.Pipeline
module Explore = Hlsb_explore.Explore
module Diag = Hlsb_util.Diag
module Pool = Hlsb_util.Pool
module Calibrate = Hlsb_delay.Calibrate
module Style = Hlsb_ctrl.Style
module Spec = Hlsb_designs.Spec
module Timing = Hlsb_physical.Timing
module Netlist = Hlsb_netlist.Netlist
module Trace = Hlsb_telemetry.Trace
module Metrics = Hlsb_telemetry.Metrics
module Json = Hlsb_telemetry.Json
module Log = Hlsb_obs.Log
module Serve_client = Hlsb_serve.Client
module Serve_protocol = Hlsb_serve.Protocol
module Ledger = Hlsb_obs.Ledger
module Obs_report = Hlsb_obs.Report
module Prom = Hlsb_obs.Prom
open Cmdliner

(* Designs can be named exactly or in Suite.resolve's relaxed form. *)
let find_design name =
  match Hlsb_designs.Suite.resolve name with
  | Some s -> s
  | None ->
    let names =
      Hlsb_designs.Suite.all
      |> List.map (fun s -> "  " ^ s.Spec.sp_name)
      |> String.concat "\n"
    in
    Printf.eprintf "unknown design %S; available:\n%s\n" name names;
    exit 1

(* The one recipe-name parser, shared with explore/cc/fuzz via
   [Style.of_string]; unknown names carry a structured diagnostic. *)
let recipe_of s =
  match Style.of_string s with
  | Ok r -> r
  | Error d ->
    Printf.eprintf "%s\n" (Diag.to_string d);
    exit 1

let design_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DESIGN")

let recipe_arg =
  Arg.(
    value
    & opt string "optimized"
    & info [ "r"; "recipe" ] ~docv:"RECIPE"
        ~doc:(String.concat " | " Style.names))

(* Shared --jobs term: a positive value overrides HLSB_JOBS for the whole
   process (characterization fan-out and parallel experiment drivers). *)
let jobs_term =
  let arg =
    Arg.(
      value
      & opt int 0
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for parallel characterization (default: \
             \\$(b,HLSB_JOBS), then the core count).")
  in
  Term.(const (fun n -> if n > 0 then Pool.set_default_jobs n) $ arg)

(* Shared --log-level term: overrides HLSB_LOG for this invocation. The
   full spec grammar is accepted, so "--log-level debug,json" switches
   both the threshold and the record format. *)
let log_term =
  let arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "log-level" ] ~docv:"LEVEL"
          ~doc:
            "Structured-log threshold: debug | info | warn | error | off, \
             optionally with a format (text | json), comma-separated \
             (default: \\$(b,HLSB_LOG), then warn,text).")
  in
  let apply = function
    | None -> ()
    | Some s -> (
      match Log.parse_spec s with
      | Ok (lvl, fmt) ->
        Option.iter Log.set_level lvl;
        Option.iter Log.set_format fmt
      | Error msg ->
        Printf.eprintf "--log-level: %s\n" msg;
        exit 2)
  in
  Term.(const apply $ arg)

let common_term = Term.(const (fun () () -> ()) $ jobs_term $ log_term)

let cmd_list =
  let run () =
    print_endline "benchmark designs (Table 1):";
    List.iter
      (fun (s : Spec.t) ->
        Printf.printf "  %-20s %-22s %s\n" s.Spec.sp_name s.Spec.sp_broadcast
          s.Spec.sp_device.Hlsb_device.Device.board)
      Hlsb_designs.Suite.all;
    print_endline "\ndevices:";
    List.iter
      (fun d -> Format.printf "  %a@." Hlsb_device.Device.pp d)
      Hlsb_device.Device.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List benchmark designs and devices")
    Term.(const run $ const ())

let write_text ~path text =
  match Hlsb_util.Atomic_file.write ~path text with
  | Ok () -> ()
  | Error msg ->
    Printf.eprintf "cannot write output file: %s: %s\n" path msg;
    exit 1

(* Structured diagnostics (stage + offending entity) render through the
   event log (so --log-level json gives a machine-readable failure
   record) with a non-zero exit, instead of an Invalid_argument
   backtrace. *)
let fail_diag d =
  Log.error "%s" (Diag.to_string d);
  exit 1

(* Classification runs on the session's validated network: an invalid one
   is reported as a diagnostic, not classified. *)
let cmd_classify =
  let run name =
    match Pipeline.classify_report (Pipeline.of_spec (find_design name)) with
    | report -> print_string (Core.Classify.to_string report)
    | exception Diag.Diagnostic d -> fail_diag d
  in
  Cmd.v
    (Cmd.info "classify" ~doc:"Source-level broadcast classification")
    Term.(const run $ design_arg)

let run_or_fail ?plan session ~recipe =
  match Pipeline.run ?plan session ~recipe with
  | Ok r -> r
  | Error d -> fail_diag d

let compile name recipe =
  run_or_fail (Pipeline.of_spec (find_design name)) ~recipe:(recipe_of recipe)

(* The C-subset source front end shared by cc and explore: one file
   read, one parse (a parse error exits 1), one session per program. *)
let read_source file =
  match Hlsb_util.Atomic_file.read file with
  | Some src -> src
  | None ->
    Printf.eprintf "cannot read source file: %s\n" file;
    exit 1

let source_name file = Filename.remove_extension (Filename.basename file)
let source_device = Hlsb_device.Device.ultrascale_plus

let source_session file src =
  match Hlsb_frontend.Frontend.parse src with
  | Error e ->
    Format.eprintf "%s: %a@." file Hlsb_frontend.Frontend.pp_error e;
    exit 1
  | Ok program ->
    Pipeline.of_program ~device:source_device ~name:(source_name file) program

(* ---- hlsbd client mode ---------------------------------------------- *)

(* Daemon mode engages on --daemon or whenever HLSBD_SOCKET names a
   socket. Output discipline: the artifact bytes (and nothing else) go
   to stdout, hit/miss routing to stderr — so two invocations of the
   same compile can be compared byte for byte, daemon or not. *)
let daemon_env_set () =
  match Sys.getenv_opt Hlsb_serve.Daemon.socket_env_var with
  | Some s -> s <> ""
  | None -> false

(* Send the verb to the daemon; when no daemon answers, fall back to the
   in-process thunk, which must print byte-identical artifact bytes. *)
let daemon_or_fallback verb fallback =
  match Serve_client.call verb with
  | Ok resp -> (
    match resp.Serve_protocol.p_error with
    | Some d -> fail_diag d
    | None ->
      Printf.eprintf "[hlsbd] %s %s key=%s\n%!"
        (if resp.Serve_protocol.p_hit then "hit" else "miss")
        (Serve_protocol.verb_name verb)
        resp.Serve_protocol.p_key;
      print_string resp.Serve_protocol.p_artifact)
  | Error msg ->
    Log.info "hlsbd unavailable (%s); compiling in-process" msg;
    Printf.eprintf "[hlsbd] in-process fallback\n%!";
    fallback ()

(* The in-process spelling of the daemon's compile artifact: the same
   result record, rendered by the same encoder, newline-terminated. *)
let print_result_artifact r =
  print_string (Json.to_string ~minify:false (Pipeline.result_to_json r) ^ "\n")

let daemon_arg =
  Arg.(
    value & flag
    & info [ "daemon" ]
        ~doc:
          "Route the compile through a running $(b,hlsbd) daemon \
           (\\$(b,HLSBD_SOCKET), default $(b,.hlsb/hlsbd.sock)): the \
           artifact-record JSON is printed to stdout, served from the \
           daemon's content-addressed store when it has the bytes. Falls \
           back to an in-process compile (same bytes) when no daemon \
           answers. Implied by setting \\$(b,HLSBD_SOCKET).")

let explain_arg =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:
          "After compiling, print the per-stage table of the run (ran / \
           cached / skipped, wall-clock) and any diagnostics.")

(* ---- run-ledger records: compile / cc / profile / fuzz / explore ---- *)

let cache_counters (snap : Metrics.snapshot) =
  List.filter
    (fun (name, _) ->
      String.starts_with ~prefix:"pipeline.cache" name
      || String.starts_with ~prefix:"calibrate." name)
    snap.Metrics.sn_counters

(* Ledger failures must never take a compile down: log and move on. *)
let append_ledger record =
  match Ledger.append record with
  | Ok path ->
    Log.debug ~attrs:[ ("run", Json.Str record.Ledger.r_id) ]
      "appended run record to %s" path
  | Error msg -> Log.warn "run ledger: %s" msg

(* What a run record says besides its metrics. *)
type run_info = {
  ri_label : string;
  ri_device : Hlsb_device.Device.t option;
  ri_recipe : Style.recipe option;
  ri_stages : Ledger.stage list;
  ri_results : Pipeline.result list;
}

let compile_info ~label ~device ~recipe session r =
  {
    ri_label = label;
    ri_device = Some device;
    ri_recipe = Some recipe;
    ri_stages = Pipeline.last_run session;
    ri_results = [ r ];
  }

(* The one place a run record is assembled: run [f] under a fresh
   metrics registry, describe its value as an hlsb-run/1 record and
   append that to the ledger when it is enabled. The registry is
   installed only when the ledger is enabled, so with HLSB_LEDGER=off
   [f] runs bare, unless [~always] asks for the snapshot and record
   regardless (profile and fuzz print them). *)
let with_run_record ?(always = false) ~cmd ~describe f =
  if not (always || Ledger.enabled ()) then (f (), None)
  else begin
    let registry = Metrics.create () in
    let v = Metrics.with_registry registry f in
    let snap = Metrics.snapshot registry in
    let info = describe v in
    let record =
      Ledger.make
        ?device:
          (Option.map (fun d -> d.Hlsb_device.Device.name) info.ri_device)
        ?fingerprint:(Option.map Hlsb_device.Device.fingerprint info.ri_device)
        ?recipe:(Option.map Style.label info.ri_recipe)
        ~stages:info.ri_stages
        ~results:(List.map Pipeline.result_to_json info.ri_results)
        ~cache:(cache_counters snap) ~metrics:(Metrics.to_json snap) ~cmd
        ~label:info.ri_label ()
    in
    if Ledger.enabled () then append_ledger record;
    (v, Some (snap, record))
  end

let stage_of_string s =
  match Pipeline.stage_of_name (String.lowercase_ascii (String.trim s)) with
  | Some st -> st
  | None ->
    Printf.eprintf "unknown stage %S (stages: %s)\n" s
      (String.concat " | " (List.map Pipeline.stage_name Pipeline.stages));
    exit 1

let sanitize_filename name =
  String.map
    (fun c ->
      match c with
      | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '_')
    name

(* The tail compile and cc share: the result as text (or, with [json],
   as the artifact bytes a daemon serves), then the --dump-after file,
   then the --explain table. *)
let report_compile ?plan ?(json = false) ~dump_name ~dump_after ~explain
    session ~recipe r =
  if json then print_result_artifact r else print_endline (Pipeline.summary r);
  (match dump_after with
  | None -> ()
  | Some stage_s -> (
    let stage = stage_of_string stage_s in
    match Pipeline.dump_after ?plan session ~recipe stage with
    | Error d -> fail_diag d
    | Ok text ->
      let path =
        Printf.sprintf "%s.%s.dump.%s" (sanitize_filename dump_name)
          (Pipeline.stage_name stage)
          (Pipeline.dump_extension stage)
      in
      write_text ~path text;
      Printf.printf "wrote %s\n" path));
  if explain then begin
    print_newline ();
    print_string (Pipeline.explain session)
  end

let cmd_passes =
  let run () =
    print_endline "compile pipeline stages (in order):";
    List.iter
      (fun st ->
        Printf.printf "  %-10s .%-4s  %s\n" (Pipeline.stage_name st)
          (Pipeline.dump_extension st) (Pipeline.describe st))
      Pipeline.stages;
    print_endline
      "\ndump any stage's artifact with: hlsbc compile DESIGN --dump-after STAGE"
  in
  Cmd.v
    (Cmd.info "passes"
       ~doc:"List the compile pipeline's stages and their dump formats")
    Term.(const run $ const ())

(* The in-process compile of a suite design, as compile and profile run
   it: one session, one run record (see [with_run_record]). *)
let compile_recorded ?always ~cmd (s : Spec.t) ~recipe =
  let session = Pipeline.of_spec s in
  let r, recorded =
    with_run_record ?always ~cmd
      ~describe:
        (compile_info ~label:s.Spec.sp_name ~device:s.Spec.sp_device ~recipe
           session)
      (fun () -> run_or_fail session ~recipe)
  in
  (session, r, recorded)

let cmd_compile =
  let run () name recipe json dump_after explain daemon =
    let s = find_design name in
    let recipe = recipe_of recipe in
    if daemon || daemon_env_set () then
      daemon_or_fallback
        (Serve_protocol.Compile
           {
             Serve_protocol.cp_design = s.Spec.sp_name;
             cp_recipe = recipe;
             cp_target_mhz = None;
             cp_inject = None;
           })
        (fun () ->
          print_result_artifact (run_or_fail (Pipeline.of_spec s) ~recipe))
    else
      let session, r, _ = compile_recorded ~cmd:"compile" s ~recipe in
      report_compile ~json ~dump_name:s.Spec.sp_name ~dump_after ~explain
        session ~recipe r
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print the result record as JSON instead of text.")
  in
  let dump_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump-after" ] ~docv:"STAGE"
          ~doc:
            "Write the named stage's artifact (dataflow/schedule/netlist/\
             timing dump) to $(b,DESIGN.STAGE.dump.EXT) in the current \
             directory. See $(b,hlsbc passes) for the stage list.")
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile a benchmark and report Fmax/resources")
    Term.(
      const run $ common_term $ design_arg $ recipe_arg $ json_arg $ dump_arg
      $ explain_arg $ daemon_arg)

let cmd_profile =
  let run () name recipe trace_out metrics_out quiet =
    let s = find_design name in
    let recipe = recipe_of recipe in
    let trace = Trace.create () in
    (* compile's own run under a trace collector. Profile is inherently
       instrumented, so the record is assembled regardless; HLSB_LEDGER
       only controls whether it is persisted. The --metrics file is that
       same record — one format everywhere. *)
    let _, r, recorded =
      Trace.with_collector trace (fun () ->
        compile_recorded ~always:true ~cmd:"profile" s ~recipe)
    in
    let snap, record = Option.get recorded in
    if not quiet then begin
      print_endline (Pipeline.summary r);
      print_newline ();
      print_endline "spans:";
      print_string (Trace.render trace);
      print_newline ();
      print_string (Metrics.render snap)
    end;
    (match trace_out with
    | None -> ()
    | Some path ->
      write_text ~path
        (Json.to_string
           (Trace.to_chrome_json ~process_name:("hlsbc " ^ s.Spec.sp_name) trace));
      if not quiet then
        Printf.printf "wrote trace to %s (load in chrome://tracing or Perfetto)\n"
          path);
    match metrics_out with
    | None -> ()
    | Some path ->
      write_text ~path
        (Json.to_string ~minify:false (Ledger.to_json record) ^ "\n");
      if not quiet then Printf.printf "wrote run record to %s\n" path
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"OUT.json"
          ~doc:"Write a Chrome trace_event JSON profile to $(docv).")
  in
  let metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"OUT.json"
          ~doc:
            "Write the hlsb-run/1 record (stage timings, compile result, \
             full metrics snapshot) to $(docv) — the same record the run \
             ledger receives.")
  in
  let quiet_arg =
    Arg.(
      value & flag
      & info [ "q"; "quiet" ] ~doc:"Suppress the summary table and span tree.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Compile a benchmark as $(b,compile) does, with telemetry enabled: \
          nested spans for every pipeline stage plus the metrics snapshot")
    Term.(
      const run $ common_term $ design_arg $ recipe_arg $ trace_arg $ metrics_arg
      $ quiet_arg)

let cmd_path =
  let run name recipe =
    let r = compile name recipe in
    print_endline (Pipeline.summary r);
    let nl = r.Pipeline.fr_design.Hlsb_rtlgen.Design.netlist in
    List.iter
      (fun (st : Timing.path_step) ->
        Printf.printf "  %-34s arrival %7.3f ns  %s\n" st.Timing.ps_cell_name
          st.Timing.ps_arrival
          (match st.Timing.ps_via_net with
          | None -> ""
          | Some n ->
            Printf.sprintf "via %s (fanout %d)" (Netlist.net_name nl n)
              (Netlist.fanout nl n)))
      r.Pipeline.fr_timing.Timing.path
  in
  Cmd.v
    (Cmd.info "path" ~doc:"Show the critical path of a compiled benchmark")
    Term.(const run $ design_arg $ recipe_arg)

(* The session's schedule dump: the network is validated first, and
   every kernel is listed under its process header. *)
let cmd_schedule =
  let run name recipe =
    match
      Pipeline.dump_after
        (Pipeline.of_spec (find_design name))
        ~recipe:(recipe_of recipe) Pipeline.Schedule
    with
    | Ok text -> print_string text
    | Error d -> fail_diag d
  in
  Cmd.v
    (Cmd.info "schedule"
       ~doc:"Print the schedule report of every kernel, per process")
    Term.(const run $ design_arg $ recipe_arg)

let cmd_cc =
  let run () file recipe transform dump_after explain daemon =
    let src = read_source file in
    let plan =
      match Hlsb_transform.Plan.of_string transform with
      | Ok p -> p
      | Error msg ->
        Printf.eprintf
          "%s (plan grammar: unroll=N | unroll=LOOP:N | partition=cyclic:N | \
           partition=cyclic:ARRAY:N | fission[=LOOP] | fusion[=LOOP] | \
           stream[=ARRAY] | pragmas | channel-reuse, ';'-separated)\n"
          msg;
        exit 1
    in
    let recipe = recipe_of recipe in
    let name = source_name file in
    if daemon || daemon_env_set () then
      daemon_or_fallback
        (Serve_protocol.Cc
           {
             Serve_protocol.cc_name = name;
             cc_source = src;
             cc_recipe = recipe;
             cc_plan = plan;
           })
        (fun () ->
          print_result_artifact
            (run_or_fail ~plan (source_session file src) ~recipe))
    else
      let session = source_session file src in
      (match Pipeline.classify_report ~plan session with
      | report -> print_string (Core.Classify.to_string report)
      | exception Diag.Diagnostic d -> fail_diag d);
      let label =
        match Hlsb_transform.Plan.to_string plan with
        | "" -> name
        | p -> name ^ " [" ^ p ^ "]"
      in
      let r, _ =
        with_run_record ~cmd:"cc"
          ~describe:(compile_info ~label ~device:source_device ~recipe session)
          (fun () -> run_or_fail ~plan session ~recipe)
      in
      report_compile ~plan ~dump_name:name ~dump_after ~explain session ~recipe
        r
  in
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.c")
  in
  let transform_arg =
    Arg.(
      value & opt string ""
      & info [ "transform" ] ~docv:"PLAN"
          ~doc:
            "Source-to-source transform plan applied before elaboration: \
             ';'-separated items, e.g. \
             $(b,unroll=4;partition=cyclic:4;fission). $(b,channel-reuse) \
             additionally merges duplicate-value channels in the elaborated \
             network. Empty (default) compiles the source as written.")
  in
  let dump_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump-after" ] ~docv:"STAGE"
          ~doc:
            "Write the named stage's artifact to \
             $(b,NAME.STAGE.dump.EXT) in the current directory \
             ($(b,transform) dumps the transformed C source). See \
             $(b,hlsbc passes) for the stage list.")
  in
  Cmd.v
    (Cmd.info "cc" ~doc:"Compile a C-subset source file through the flow")
    Term.(
      const run $ common_term $ file_arg $ recipe_arg $ transform_arg $ dump_arg
      $ explain_arg $ daemon_arg)

let cmd_emit =
  let run name recipe fmt out =
    let r = compile name recipe in
    let nl = r.Pipeline.fr_design.Hlsb_rtlgen.Design.netlist in
    let text =
      match fmt with
      | "dot" -> Hlsb_netlist.Export.to_dot nl
      | "verilog" | "v" -> Hlsb_netlist.Export.to_verilog nl
      | f ->
        Printf.eprintf "unknown format %S (dot | verilog)\n" f;
        exit 1
    in
    match out with
    | None -> print_string text
    | Some path ->
      write_text ~path text;
      Printf.printf "wrote %s\n" path
  in
  let fmt_arg =
    Arg.(value & opt string "dot" & info [ "f"; "format" ] ~docv:"FMT"
           ~doc:"dot | verilog")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"PATH")
  in
  Cmd.v
    (Cmd.info "emit" ~doc:"Export a compiled benchmark's netlist (DOT/Verilog)")
    Term.(const run $ design_arg $ recipe_arg $ fmt_arg $ out_arg)

let cmd_calibrate =
  let warm_ops =
    (* everything the benchmark suite's schedules actually look up *)
    let open Hlsb_ir in
    [
      (Op.Add, Dtype.Int 32);
      (Op.Sub, Dtype.Int 32);
      (Op.Mul, Dtype.Int 32);
      (Op.Fadd, Dtype.Float32);
      (Op.Fmul, Dtype.Float32);
    ]
  in
  let devices_of = function
    | None -> Hlsb_device.Device.all
    | Some name -> (
      match Hlsb_device.Device.find name with
      | Some d -> [ d ]
      | None ->
        Printf.eprintf "unknown device %S; available:\n" name;
        List.iter
          (fun (d : Hlsb_device.Device.t) ->
            Printf.eprintf "  %s\n" d.Hlsb_device.Device.name)
          Hlsb_device.Device.all;
        exit 1)
  in
  let inspect dir =
    let entries, bytes = Hlsb_util.Store.disk_usage ~root:dir in
    Printf.printf "calibration cache: %s\n  %d curve entr%s, %d payload bytes\n"
      dir entries (if entries = 1 then "y" else "ies") bytes
  in
  let run () dir_flag warm clear device =
    let dir =
      match dir_flag with
      | Some d -> Some d
      | None -> Calibrate.ambient_dir ()
    in
    match dir with
    | None ->
      Printf.eprintf
        "calibration cache disabled (HLSB_CACHE_DIR is empty and no HOME); \
         pass --dir\n";
      exit 1
    | Some dir ->
      if clear then begin
        let n = Hlsb_util.Store.clear (Hlsb_util.Store.open_ ~root:dir ()) in
        Printf.printf "removed %d cache entr%s from %s\n" n
          (if n = 1 then "y" else "ies") dir
      end;
      if warm then
        List.iter
          (fun (d : Hlsb_device.Device.t) ->
            let cal = Calibrate.create ~cache_dir:dir d in
            Printf.printf "warming %s (%d ops + mem curves)...%!"
              d.Hlsb_device.Device.name (List.length warm_ops);
            Calibrate.warm cal ~ops:warm_ops;
            Printf.printf " done\n%!")
          (devices_of device);
      if not (warm || clear) then inspect dir
      else if warm then inspect dir
  in
  let dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Cache directory (default: \\$(b,HLSB_CACHE_DIR), then \
                \\$(b,XDG_CACHE_HOME)/hlsb).")
  in
  let warm_arg =
    Arg.(
      value & flag
      & info [ "warm" ]
          ~doc:"Characterize the standard op and memory curves into the cache.")
  in
  let clear_arg =
    Arg.(value & flag & info [ "clear" ] ~doc:"Remove every cache entry.")
  in
  let device_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "d"; "device" ] ~docv:"DEVICE"
          ~doc:"Warm only this device (default: all devices).")
  in
  Cmd.v
    (Cmd.info "calibrate"
       ~doc:
         "Inspect, warm, or clear the persistent calibration cache \
          (post-route delay curves keyed by build id, device fingerprint \
          and grid)")
    Term.(
      const run $ common_term $ dir_arg $ warm_arg $ clear_arg $ device_arg)

let cmd_fuzz =
  let module Campaign = Hlsb_fuzz.Campaign in
  let module Oracle = Hlsb_fuzz.Oracle in
  let module Gen = Hlsb_fuzz.Gen in
  let oracle_names sep = String.concat sep (List.map Oracle.to_string Oracle.all) in
  let parse_oracles = function
    | None -> Oracle.all
    | Some spec ->
      String.split_on_char ',' spec
      |> List.filter_map (fun s ->
           let s = String.trim s in
           if s = "" then None else Some s)
      |> List.map (fun s ->
           match Oracle.of_string s with
           | Some o -> o
           | None ->
             Printf.eprintf "unknown oracle %S (%s)\n" s
               (oracle_names " | ");
             exit 1)
  in
  let replay path =
    match Campaign.replay_file path with
    | Error msg ->
      Printf.eprintf "cannot replay %s: %s\n" path msg;
      exit 1
    | Ok (fl, verdict) -> (
      Printf.printf "replaying %s\n  oracle: %s\n  case:   %s\n" path
        (Oracle.to_string fl.Campaign.fl_oracle)
        (Gen.to_string fl.Campaign.fl_case);
      match verdict with
      | Oracle.Fail msg ->
        Printf.printf "still FAILS: %s\n" msg;
        exit 1
      | Oracle.Pass ->
        Printf.printf "PASSES: the recorded bug no longer reproduces\n";
        (* recorded message helps relate the fix to the original failure *)
        Printf.printf "  (was: %s)\n" fl.Campaign.fl_message)
  in
  let campaign seed runs oracles out =
    let report, recorded =
      with_run_record ~always:true ~cmd:"fuzz"
        ~describe:(fun report ->
          {
            ri_label =
              Printf.sprintf "seed=%d runs=%d failures=%d" seed runs
                (List.length report.Campaign.rp_failures);
            ri_device = None;
            ri_recipe = None;
            ri_stages = [];
            ri_results = [];
          })
        (fun () -> Campaign.run ~oracles ~log:print_endline ~seed ~runs ())
    in
    print_string (Campaign.summary report);
    let snap, _ = Option.get recorded in
    List.iter
      (fun (name, v) ->
        if String.starts_with ~prefix:"fuzz." name then
          Printf.printf "  %-24s %d\n" name v)
      snap.Metrics.sn_counters;
    if report.Campaign.rp_failures <> [] then begin
      let paths = Campaign.write_repros ~dir:out report in
      List.iter (Printf.printf "wrote reproducer %s\n") paths;
      Printf.printf "replay with: hlsbc fuzz --replay %s\n" (List.hd paths);
      exit 1
    end
  in
  let run () seed runs oracle_spec out replay_path =
    match replay_path with
    | Some path -> replay path
    | None -> campaign seed runs (parse_oracles oracle_spec) out
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N" ~doc:"Campaign seed (deterministic).")
  in
  let runs_arg =
    Arg.(
      value & opt int 200
      & info [ "runs" ] ~docv:"N" ~doc:"Number of generated cases.")
  in
  let oracle_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "oracle" ] ~docv:"NAMES"
          ~doc:
            ("Comma-separated oracle subset: " ^ oracle_names " | "
           ^ " (default: all)."))
  in
  let out_arg =
    Arg.(
      value & opt string "fuzz"
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Directory for minimized reproducer files.")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE.json"
          ~doc:"Re-run the oracle of a recorded reproducer instead of fuzzing.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         ("Differential fuzzing: random designs checked by cross-layer \
           oracles (" ^ oracle_names ", "
        ^ "), with greedy shrinking of failures"))
    Term.(
      const run $ common_term $ seed_arg $ runs_arg $ oracle_arg $ out_arg
      $ replay_arg)

(* ---------------- the explore subcommand ---------------- *)

let cmd_explore =
  let run () designs source plans_s budget t0 tol max_probes out =
    let plans =
      match plans_s with
      | None -> []
      | Some s ->
        String.split_on_char ',' s
        |> List.map (fun p ->
             match Hlsb_transform.Plan.of_string (String.trim p) with
             | Ok pl -> pl
             | Error msg ->
               Printf.eprintf "bad plan %S: %s\n" p msg;
               exit 1)
    in
    if plans <> [] && source = None then begin
      Printf.eprintf
        "--plans transforms source, so it needs --source FILE.c (IR-level \
         suite designs explore recipes and register injection only)\n";
      exit 1
    end;
    let describe reports =
      {
        ri_label =
          Printf.sprintf "budget=%d designs=%d probes=%d" budget
            (List.length reports)
            (List.fold_left (fun acc rp -> acc + rp.Explore.ep_probes) 0 reports);
        ri_device = None;
        ri_recipe = None;
        ri_stages = List.map (fun rp -> rp.Explore.ep_stage) reports;
        ri_results =
          List.map
            (fun rp -> rp.Explore.ep_winner.Explore.cr_result)
            reports;
      }
    in
    let reports, _ =
      with_run_record ~cmd:"explore" ~describe (fun () ->
        match source with
        | Some file -> (
          let session = source_session file (read_source file) in
          match
            Explore.run_design ~budget ~t0 ~tol ~max_probes ~plans session
              ~name:(source_name file)
          with
          | rp -> [ rp ]
          | exception Diag.Diagnostic d -> fail_diag d)
        | None -> (
          let specs =
            match designs with
            | None -> Hlsb_designs.Suite.all
            | Some s ->
              String.split_on_char ',' s
              |> List.filter_map (fun n ->
                   let n = String.trim n in
                   if n = "" then None else Some (find_design n))
          in
          match
            Pool.map_list
              (fun (s : Spec.t) ->
                Explore.run_design ~budget ~t0 ~tol ~max_probes
                  (Pipeline.of_spec s) ~name:s.Spec.sp_name)
              specs
          with
          | rps -> rps
          | exception Diag.Diagnostic d -> fail_diag d))
    in
    print_string (Explore.table reports);
    List.iter
      (fun rp ->
        print_newline ();
        print_string (Explore.summary rp))
      reports;
    match out with
    | None -> ()
    | Some dir ->
      List.iter
        (fun rp ->
          let paths = Explore.write_logs ~dir rp in
          Printf.printf "wrote %d file(s) for %s under %s\n"
            (List.length paths) rp.Explore.ep_design dir)
        reports
  in
  let designs_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "designs" ] ~docv:"NAMES"
          ~doc:
            "Comma-separated Table-1 designs to explore (relaxed names \
             accepted, see $(b,hlsbc list)); default: all of them.")
  in
  let source_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "source" ] ~docv:"FILE.c"
          ~doc:
            "Explore a C-subset source file instead of suite designs; \
             enables the $(b,--plans) transform axis.")
  in
  let plans_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "plans" ] ~docv:"PLANS"
          ~doc:
            "Comma-separated transform plans to add to the configuration \
             space (each in the $(b,hlsbc cc --transform) grammar; the \
             identity plan is always included). Requires $(b,--source).")
  in
  let budget_arg =
    Arg.(
      value & opt int 8
      & info [ "budget" ] ~docv:"N"
          ~doc:"Most configurations to try per design.")
  in
  let t0_arg =
    Arg.(
      value & opt float 300.
      & info [ "t0" ] ~docv:"MHZ"
          ~doc:
            "Starting target frequency (default 300, the pipeline's static \
             schedule target, so the first probe reproduces the static \
             compile).")
  in
  let tol_arg =
    Arg.(
      value & opt float 0.02
      & info [ "tol" ] ~docv:"FRAC"
          ~doc:"Relative convergence tolerance of the target search.")
  in
  let max_probes_arg =
    Arg.(
      value & opt int 5
      & info [ "max-probes" ] ~docv:"N"
          ~doc:"Most compiles the target search may spend per configuration.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:
            "Write per-configuration $(b,frequency_log/) probe logs and a \
             per-design summary JSON under $(docv).")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Search-driven Fmax auto-tuning: binary-search the target \
          frequency per configuration over recipes x transform plans x \
          register injection, inside one cached compile session per design")
    Term.(
      const run $ common_term $ designs_arg $ source_arg $ plans_arg
      $ budget_arg $ t0_arg $ tol_arg $ max_probes_arg $ out_arg)

(* ---------------- the obs subcommand family ---------------- *)

let cmd_obs =
  let ledger_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "ledger" ] ~docv:"PATH"
          ~doc:
            "Ledger file to read (default: \\$(b,HLSB_LEDGER), then \
             .hlsb/ledger.jsonl).")
  in
  let ledger_path flag =
    match flag with
    | Some p -> p
    | None -> Option.value ~default:Ledger.default_path (Ledger.ambient_path ())
  in
  let usage msg =
    Printf.eprintf "%s\n" msg;
    exit 2
  in
  let load_runs path =
    match Ledger.load ~path with
    | Error msg -> usage msg
    | Ok [] -> usage (Printf.sprintf "ledger %s has no runs" path)
    | Ok runs -> runs
  in
  let resolve_run runs ref_ =
    match Ledger.resolve runs ref_ with Ok r -> r | Error msg -> usage msg
  in
  (* A REF can also name a file — a JSONL ledger or a one-record JSON
     file (ci/baseline-ledger.json); its newest record wins. *)
  let run_of_ref ~runs ref_ =
    if Sys.file_exists ref_ then
      match Ledger.load ~path:ref_ with
      | Ok (_ :: _ as rs) -> List.nth rs (List.length rs - 1)
      | Ok [] -> usage (Printf.sprintf "%s holds no hlsb-run/1 records" ref_)
      | Error msg -> usage msg
    else resolve_run runs ref_
  in
  let run_arg =
    Arg.(
      value & pos 0 string "last"
      & info [] ~docv:"RUN"
          ~doc:
            "last | a 1-based index from the oldest (negative counts from \
             the newest) | a run-id prefix")
  in
  let cmd_report =
    let run ledger ref_ top =
      let runs = load_runs (ledger_path ledger) in
      print_string (Obs_report.report ~top (run_of_ref ~runs ref_))
    in
    let top_arg =
      Arg.(
        value & opt int 12
        & info [ "top" ] ~docv:"N"
            ~doc:"How many metric counters/histograms to show.")
    in
    Cmd.v
      (Cmd.info "report"
         ~doc:
           "Render one run record: stage timings, per-design Fmax, cache \
            traffic, and metric quantiles (p50/p95/p99)")
      Term.(const run $ ledger_arg $ run_arg $ top_arg)
  in
  let cmd_list_runs =
    let run ledger =
      let path = ledger_path ledger in
      match Ledger.load ~path with
      | Error msg -> usage msg
      | Ok [] -> Printf.printf "ledger %s has no runs\n" path
      | Ok runs ->
        List.iteri
          (fun i r ->
            Printf.printf "%4d  %s\n" (i + 1) (Obs_report.summary_line r))
          runs
    in
    Cmd.v
      (Cmd.info "list" ~doc:"List the ledger's runs, oldest first")
      Term.(const run $ ledger_arg)
  in
  let cmd_diff =
    let run ledger ref_a ref_b =
      let runs = load_runs (ledger_path ledger) in
      print_string
        (Obs_report.diff (run_of_ref ~runs ref_a) (run_of_ref ~runs ref_b))
    in
    let a_arg =
      Arg.(required & pos 0 (some string) None & info [] ~docv:"RUN_A")
    in
    let b_arg =
      Arg.(required & pos 1 (some string) None & info [] ~docv:"RUN_B")
    in
    Cmd.v
      (Cmd.info "diff"
         ~doc:"Compare two runs stage by stage (timings, totals, Fmax)")
      Term.(const run $ ledger_arg $ a_arg $ b_arg)
  in
  let cmd_regress =
    let run ledger baseline_ref ref_ pct min_ms =
      let path = ledger_path ledger in
      let runs =
        match Ledger.load ~path with Ok rs -> rs | Error msg -> usage msg
      in
      let baseline = run_of_ref ~runs baseline_ref in
      let current = run_of_ref ~runs ref_ in
      let v =
        Obs_report.regress ~min_ms ~baseline ~current ~max_slowdown_pct:pct ()
      in
      print_string v.Obs_report.v_table;
      if v.Obs_report.v_ok then
        print_endline "OK: no regression beyond the threshold"
      else begin
        print_newline ();
        List.iter
          (fun m -> Printf.printf "REGRESSION: %s\n" m)
          v.Obs_report.v_failures;
        exit 1
      end
    in
    let baseline_arg =
      Arg.(
        required
        & opt (some string) None
        & info [ "baseline" ] ~docv:"REF"
            ~doc:
              "Baseline run: a ledger reference or a file holding \
               hlsb-run/1 record(s).")
    in
    let run_flag_arg =
      Arg.(
        value & opt string "last"
        & info [ "run" ] ~docv:"REF"
            ~doc:"Run under test (default: the newest ledger record).")
    in
    let pct_arg =
      Arg.(
        value & opt float 25.
        & info [ "max-slowdown" ] ~docv:"PCT"
            ~doc:
              "Fail when any comparable stage (or the total) is more than \
               $(docv) percent slower than the baseline, or a shared \
               design's Fmax drops by more than the same margin.")
    in
    let min_ms_arg =
      Arg.(
        value & opt float 1.0
        & info [ "min-ms" ] ~docv:"MS"
            ~doc:
              "Ignore stages whose baseline time is below $(docv) \
               (sub-millisecond stages are timer noise).")
    in
    Cmd.v
      (Cmd.info "regress"
         ~doc:
           "Perf-regression sentinel: exit 1 when the current run is more \
            than --max-slowdown percent slower than the baseline (the CI \
            gate)")
      Term.(
        const run $ ledger_arg $ baseline_arg $ run_flag_arg $ pct_arg
        $ min_ms_arg)
  in
  let cmd_prom =
    let run ledger ref_ =
      let runs = load_runs (ledger_path ledger) in
      let r = run_of_ref ~runs ref_ in
      match r.Ledger.r_metrics with
      | None ->
        usage
          (Printf.sprintf "run %s carries no metrics snapshot" r.Ledger.r_id)
      | Some m -> print_string (Prom.of_snapshot (Metrics.of_json m))
    in
    Cmd.v
      (Cmd.info "prom"
         ~doc:
           "Prometheus text-format exposition of a run's metrics snapshot")
      Term.(const run $ ledger_arg $ run_arg)
  in
  Cmd.group
    (Cmd.info "obs"
       ~doc:
         "The run ledger: list, report, diff, Prometheus export, and the \
          perf-regression gate")
    [ cmd_list_runs; cmd_report; cmd_diff; cmd_regress; cmd_prom ]

(* Every paper table and figure is one entry of [Experiments.sections]:
   one subcommand each, and [experiments] prints the marked blocks
   EXPERIMENTS.md carries. *)
let cmd_sections =
  List.map
    (fun (s : Experiments.section) ->
      let print () = print_string (fst (s.Experiments.render ())) in
      Cmd.v
        (Cmd.info s.Experiments.name ~doc:s.Experiments.title)
        Term.(const print $ const ()))
    Experiments.sections

let cmd_experiments =
  let run () names =
    let find n =
      match
        List.find_opt (fun (s : Experiments.section) -> s.Experiments.name = n)
          Experiments.sections
      with
      | Some s -> s
      | None ->
        Printf.eprintf "unknown section %S; available: %s\n" n
          (String.concat " "
             (List.map (fun (s : Experiments.section) -> s.Experiments.name)
                Experiments.sections));
        exit 1
    in
    let chosen =
      if names = [] then Experiments.sections else List.map find names
    in
    List.iter (fun s -> print_string (Experiments.block s)) chosen
  in
  let names_arg = Arg.(value & pos_all string [] & info [] ~docv:"NAME") in
  Cmd.v
    (Cmd.info "experiments"
       ~doc:
         "Print the named table/figure sections (default: all) as the \
          marked, fenced blocks EXPERIMENTS.md carries, each followed by \
          its shape claims")
    Term.(const run $ jobs_term $ names_arg)

let () =
  let info =
    Cmd.info "hlsbc" ~version:"1.0.0"
      ~doc:"Broadcast-aware HLS timing optimization (DAC 2020 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          ([
             cmd_list;
             cmd_passes;
             cmd_classify;
             cmd_compile;
             cmd_profile;
             cmd_calibrate;
             cmd_path;
             cmd_schedule;
             cmd_cc;
             cmd_emit;
             cmd_fuzz;
             cmd_explore;
             cmd_obs;
             cmd_experiments;
           ]
          @ cmd_sections)))
