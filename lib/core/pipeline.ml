module Device = Hlsb_device.Device
module Netlist = Hlsb_netlist.Netlist
module Export = Hlsb_netlist.Export
module Placement = Hlsb_physical.Placement
module Timing = Hlsb_physical.Timing
module Design = Hlsb_rtlgen.Design
module Schedule = Hlsb_sched.Schedule
module Sched_report = Hlsb_sched.Report
module Style = Hlsb_ctrl.Style
module Spec = Hlsb_designs.Spec
module Dataflow = Hlsb_ir.Dataflow
module Dag = Hlsb_ir.Dag
module Kernel = Hlsb_ir.Kernel
module Diag = Hlsb_util.Diag
module Table = Hlsb_util.Table
module Trace = Hlsb_telemetry.Trace
module Metrics = Hlsb_telemetry.Metrics
module Json = Hlsb_telemetry.Json
module Log = Hlsb_obs.Log
module Ledger = Hlsb_obs.Ledger
module Ast = Hlsb_frontend.Ast
module Frontend = Hlsb_frontend.Frontend
module Pass = Hlsb_transform.Pass
module Plan = Hlsb_transform.Plan
module Reuse = Hlsb_transform.Reuse

(* ---------------- stages ---------------- *)

type stage =
  | Transform
  | Elaborate
  | Classify
  | Schedule
  | Lower
  | Sync
  | Place
  | Sta
  | Report

let stages =
  [ Transform; Elaborate; Classify; Schedule; Lower; Sync; Place; Sta; Report ]

let stage_name = function
  | Transform -> "transform"
  | Elaborate -> "elaborate"
  | Classify -> "classify"
  | Schedule -> "schedule"
  | Lower -> "lower"
  | Sync -> "sync"
  | Place -> "place"
  | Sta -> "sta"
  | Report -> "report"

let stage_of_name n =
  List.find_opt (fun s -> stage_name s = n) stages

let describe = function
  | Transform ->
    "apply the source-to-source transform plan (unroll/partition/fission/...)"
  | Elaborate -> "build the dataflow process network and validate it"
  | Classify -> "source-level broadcast classification (on demand)"
  | Schedule ->
    "chaining-aware scheduling of every kernel (cached per sched mode)"
  | Lower -> "lower scheduled kernels to the macro netlist, wire channels"
  | Sync -> "emit synchronization controllers (naive or pruned)"
  | Place -> "pack the netlist onto the device slice grid"
  | Sta -> "static timing analysis: critical path and Fmax"
  | Report -> "utilization and the compile result record"

(* ---------------- result record ---------------- *)

type result = {
  fr_label : string;
  fr_recipe : Style.recipe;
  fr_fmax_mhz : float;
  fr_critical_ns : float;
  fr_lut_pct : float;
  fr_ff_pct : float;
  fr_bram_pct : float;
  fr_dsp_pct : float;
  fr_design : Design.t;
  fr_timing : Timing.report;
}

let finish ~name (design : Design.t) (report : Timing.report) =
  let lut, ff, bram, dsp =
    Trace.with_span "utilization" (fun () ->
      Netlist.utilization design.Design.netlist design.Design.device)
  in
  if Metrics.enabled () then begin
    Metrics.incr "pipeline.compiles";
    Metrics.set_gauge "pipeline.fmax_mhz" report.Timing.fmax_mhz;
    Metrics.set_gauge "pipeline.critical_ns" report.Timing.critical_ns;
    Metrics.set_gauge "pipeline.lut_pct" (100. *. lut);
    Metrics.set_gauge "pipeline.ff_pct" (100. *. ff)
  end;
  {
    fr_label = name ^ " [" ^ Style.label design.Design.recipe ^ "]";
    fr_recipe = design.Design.recipe;
    fr_fmax_mhz = report.Timing.fmax_mhz;
    fr_critical_ns = report.Timing.critical_ns;
    fr_lut_pct = 100. *. lut;
    fr_ff_pct = 100. *. ff;
    fr_bram_pct = 100. *. bram;
    fr_dsp_pct = 100. *. dsp;
    fr_design = design;
    fr_timing = report;
  }

let result_to_json r =
  Json.Obj
    [
      ("label", Json.Str r.fr_label);
      ("recipe", Json.Str (Style.label r.fr_recipe));
      ("fmax_mhz", Json.Float r.fr_fmax_mhz);
      ("critical_ns", Json.Float r.fr_critical_ns);
      ("lut_pct", Json.Float r.fr_lut_pct);
      ("ff_pct", Json.Float r.fr_ff_pct);
      ("bram_pct", Json.Float r.fr_bram_pct);
      ("dsp_pct", Json.Float r.fr_dsp_pct);
      ("cells", Json.Int (Netlist.n_cells r.fr_design.Design.netlist));
      ("nets", Json.Int (Netlist.n_nets r.fr_design.Design.netlist));
      ( "kernels",
        Json.List
          (List.map
             (fun (k : Design.kernel_info) ->
               Json.Obj
                 [
                   ("name", Json.Str k.Design.ki_name);
                   ("depth", Json.Int k.Design.ki_depth);
                   ("registers_added", Json.Int k.Design.ki_registers_added);
                   ("skid_bits", Json.Int k.Design.ki_skid_bits);
                 ])
             r.fr_design.Design.kernels) );
      ("sync_groups", Json.Int r.fr_design.Design.sync_groups_emitted);
      ("max_sync_fanout", Json.Int r.fr_design.Design.max_sync_fanout);
    ]

let artifact r = Json.to_string ~minify:false (result_to_json r) ^ "\n"

let summary r =
  Printf.sprintf
    "%-40s %6.1f MHz  (%.2f ns)  LUT %5.1f%%  FF %5.1f%%  BRAM %5.1f%%  DSP %5.1f%%"
    r.fr_label r.fr_fmax_mhz r.fr_critical_ns r.fr_lut_pct r.fr_ff_pct
    r.fr_bram_pct r.fr_dsp_pct

(* ---------------- sessions ---------------- *)

(* A lower..report entry, filed under what those stages consume:
   [rp_bucket] (recipe, result label, netlist name, plan key) and the
   per-process schedules, matched by {!Schedule.lowers_same} — so two
   requests whose schedules lower alike (say, two explorer targets)
   share one compile. *)
type reported = {
  rp_bucket : Style.recipe * string * string * string;
  rp_scheds : Schedule.t option array;
  rp_result : result;
  rp_max_extent : float;
      (* all the place dump reads: neither positions nor arcs outlive a
         compile *)
}

(* One upstream stage's cache: key -> artifact, newest first. *)
type ('k, 'v) memo = ('k * 'v) list ref

type session = {
  ss_device : Device.t;
  ss_name : string;
  ss_kernel_naming : bool;
  ss_build : unit -> Dataflow.t;
  ss_program : Ast.program option;
      (** source program (cc sessions); [None] for IR-level sessions *)
  ss_transformed : (string, Ast.program) memo;
      (** plan key -> transformed program *)
  ss_dfs : (string, Dataflow.t) memo;  (** plan key -> network *)
  ss_classify : (string, Classify.report) memo;  (** by plan key *)
  ss_scheds :
    (string * float * Schedule.inject option * Style.sched_mode,
     Schedule.t option array)
    memo;
      (** (plan key, effective target, injection, sched mode) -> schedules *)
  mutable ss_reported : reported list;
  ss_counts : (string, int) Hashtbl.t;
  mutable ss_last : Ledger.stage list;  (** reversed while a run records *)
  mutable ss_diags : Diag.t list;  (** reversed *)
}

let create ~device ~name ~build () =
  {
    ss_device = device;
    ss_name = name;
    ss_kernel_naming = false;
    ss_build = build;
    ss_program = None;
    ss_transformed = ref [];
    ss_dfs = ref [];
    ss_classify = ref [];
    ss_scheds = ref [];
    ss_reported = [];
    ss_counts = Hashtbl.create 8;
    ss_last = [];
    ss_diags = [];
  }

let of_program ~device ~name program =
  {
    (create ~device ~name
       ~build:(fun () -> invalid_arg "program session has no IR build")
       ())
    with
    ss_program = Some program;
  }

let of_spec (spec : Spec.t) =
  create ~device:spec.Spec.sp_device ~name:spec.Spec.sp_name
    ~build:spec.Spec.sp_build ()

let of_kernel ~device kernel =
  {
    (create ~device ~name:kernel.Kernel.name
       ~build:(fun () -> Design.kernel_dataflow kernel)
       ())
    with
    ss_kernel_naming = true;
  }

(* ---------------- stage execution machinery ---------------- *)

let log_attrs t name =
  [ ("stage", Json.Str name); ("design", Json.Str t.ss_name) ]

(* Run one stage body: telemetry span and run counters around it, its
   cost recorded, stray [Invalid_argument]/[Failure] from deep inside the
   pass promoted to a structured diagnostic carrying the stage name. *)
let exec t ~recipe stage f =
  let name = stage_name stage in
  let body () =
    let v, st = Ledger.measure name f in
    Hashtbl.replace t.ss_counts name
      (1 + Option.value ~default:0 (Hashtbl.find_opt t.ss_counts name));
    Metrics.incr "pipeline.stage_runs";
    t.ss_last <- st :: t.ss_last;
    match v with
    | Ok v ->
      if Log.would_log Log.Debug then
        Log.debug ~attrs:(log_attrs t name) "stage %s: %.1f ms" name
          st.Ledger.st_ms;
      v
    | Error e ->
      let d =
        match e with
        | Diag.Diagnostic d -> d
        | Invalid_argument msg | Failure msg -> Diag.error ~stage:name msg
        | e -> raise e
      in
      t.ss_diags <- d :: t.ss_diags;
      Log.error ~attrs:(log_attrs t name) "stage %s failed: %s" name
        (Diag.to_string d);
      raise (Diag.Diagnostic d)
  in
  if not (Trace.enabled ()) then body ()
  else
    Trace.with_span ("stage." ^ name)
      ~attrs:
        [
          ("design", Json.Str t.ss_name);
          ("recipe", Json.Str (Style.label recipe));
        ]
      body

let cached t stage =
  let name = stage_name stage in
  Metrics.incr "pipeline.cache_hits";
  if Log.would_log Log.Debug then
    Log.debug ~attrs:(log_attrs t name) "stage %s: cache hit" name;
  t.ss_last <- Ledger.unmeasured name Ledger.Cached :: t.ss_last

(* The session's one cache rule for an upstream stage: a hit records
   [stage] [Cached]; a miss first runs [needs] (the cached stages the
   body consumes, which record themselves and are not timed as this
   stage), then runs [body] on their output under {!exec} and files the
   value under [key]. *)
let memo t ~recipe stage (table : (_, _) memo) key ~needs body =
  match List.assoc_opt key !table with
  | Some v ->
    cached t stage;
    v
  | None ->
    let input = needs () in
    exec t ~recipe stage (fun () ->
      let v = body input in
      table := (key, v) :: !table;
      v)

(* ---------------- cached upstream artifacts ---------------- *)

let plan_key plan = Plan.to_string plan

let plan_has_source plan =
  List.exists
    (function Plan.Source _ | Plan.Pragmas -> true | Plan.Channel_reuse -> false)
    plan

(* The [transform] stage: source-level plan items applied to the
   session's program, cached per canonical plan key. IR-level sessions
   have no program: the stage is skipped for plans with no source items
   (identity, pure channel-reuse) and fails for the rest. *)
let transformed t ~recipe ~plan =
  match t.ss_program with
  | None ->
    if plan_has_source plan then
      raise
        (Diag.Diagnostic
           (Diag.error ~stage:"transform"
              (Printf.sprintf
                 "plan %S transforms source, but this session was built from \
                  IR; source plans need a program session (hlsbc cc)"
                 (Plan.to_string plan))))
    else None
  | Some program ->
    Some
      (memo t ~recipe Transform t.ss_transformed (plan_key plan) ~needs:ignore
         (fun () ->
           (* surface unknown-pragma warnings once per plan, whether or not
              the plan replays the pragmas as requests *)
           let _, warns = Pass.requests_of_pragmas program in
           List.iter (fun w -> t.ss_diags <- w :: t.ss_diags) warns;
           match Plan.apply_source plan program with
           | Ok p -> p
           | Error d -> raise (Diag.Diagnostic d)))

let elaborate ?(plan = Plan.identity) t ~recipe =
  let prog = transformed t ~recipe ~plan in
  memo t ~recipe Elaborate t.ss_dfs (plan_key plan) ~needs:ignore (fun () ->
    let df =
      match prog with
      | None -> t.ss_build ()
      | Some p -> (
        match Frontend.design_of_program p with
        | Ok df -> df
        | Error e ->
          raise
            (Diag.Diagnostic
               (Diag.error ~stage:"elaborate"
                  (Format.asprintf "%a" Frontend.pp_error e))))
    in
    let df = if Plan.has_channel_reuse plan then fst (Reuse.run df) else df in
    (match Dataflow.problems df with
    | [] -> ()
    | { Dataflow.pb_entity; pb_message } :: _ ->
      let entity =
        match pb_entity with
        | `Channel n -> Diag.Channel n
        | `Process n -> Diag.Process n
      in
      raise
        (Diag.Diagnostic (Diag.error ~entity ~stage:"elaborate" pb_message)));
    df)

(* Schedules are keyed on the effective target — the run's override,
   else [Schedule.default_target_mhz] — so the explorer's first probe at
   300 MHz shares the untuned compile's schedule. *)
let scheduled ?(plan = Plan.identity) ?target_mhz ?inject t ~recipe df =
  let target = Option.value target_mhz ~default:Schedule.default_target_mhz in
  memo t ~recipe Schedule t.ss_scheds
    (plan_key plan, target, inject, recipe.Style.sched)
    ~needs:ignore
    (fun () ->
      Design.schedule_processes ~target_mhz:target ?inject ~device:t.ss_device
        ~recipe df)

(* A hit must not touch [elaborate]: only a miss needs the network. *)
let classify_report ?(plan = Plan.identity) t =
  let recipe = Style.original in
  memo t ~recipe Classify t.ss_classify (plan_key plan)
    ~needs:(fun () -> elaborate ~plan t ~recipe)
    Classify.analyze

(* ---------------- the full pipeline ---------------- *)

let effective_names ?name t ~recipe =
  (* label: what the result record is titled after; netlist: the design
     name the netlist (and so the timing seed) is derived from. They
     differ only for single-kernel sessions, whose netlist is named
     [<kernel>_<recipe label>]. *)
  let label = Option.value ~default:t.ss_name name in
  let netlist =
    if t.ss_kernel_naming then t.ss_name ^ "_" ^ Style.label recipe else label
  in
  (label, netlist)

(* broadcast.* gauges: the source-level broadcast profile of the network
   this run compiles — the quantity transform plans are meant to move.
   Recorded per compile (inside whatever metrics registry is installed)
   so a ledger record always reflects the compiled variant. *)
let record_broadcast_gauges df =
  if Metrics.enabled () then begin
    let nodes = ref 0 and total = ref 0 and worst = ref 0 and banks = ref 0 in
    Array.iter
      (fun (p : Dataflow.process) ->
        match p.Dataflow.p_kernel with
        | None -> ()
        | Some k ->
          let dag = k.Kernel.dag in
          Dag.iter dag (fun v ->
            let reads = Dag.broadcast_factor dag v in
            if reads >= 2 then begin
              incr nodes;
              total := !total + reads
            end;
            if reads > !worst then worst := reads);
          Array.iter
            (fun (b : Dag.buffer) -> banks := !banks + b.Dag.b_partition)
            (Dag.buffers dag))
      (Dataflow.processes df);
    Metrics.set_gauge_int "broadcast.nodes" !nodes;
    Metrics.set_gauge_int "broadcast.total_reads" !total;
    Metrics.set_gauge_int "broadcast.worst_fanout" !worst;
    Metrics.set_gauge_int "broadcast.mem_banks" !banks;
    Metrics.set_gauge_int "broadcast.channels" (Dataflow.n_channels df)
  end

let same_scheds a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y ->
         match (x, y) with
         | None, None -> true
         | Some x, Some y -> Schedule.lowers_same x y
         | _ -> false)
       a b

(* A repeat request finds its schedules in [ss_scheds], so it matches
   its own entry here too. *)
let reported_exn ?name ?(plan = Plan.identity) ?target_mhz ?inject t ~recipe =
  t.ss_last <- [];
  let label, netlist_name = effective_names ?name t ~recipe in
  let bucket = (recipe, label, netlist_name, plan_key plan) in
  let body () =
    let df = elaborate ~plan t ~recipe in
    let scheds = scheduled ~plan ?target_mhz ?inject t ~recipe df in
    match
      List.find_opt
        (fun e -> e.rp_bucket = bucket && same_scheds e.rp_scheds scheds)
        t.ss_reported
    with
    | Some e ->
      List.iter (cached t) [ Lower; Sync; Place; Sta; Report ];
      e
    | None ->
      Metrics.incr "pipeline.cache_misses";
      record_broadcast_gauges df;
      let dp =
        exec t ~recipe Lower (fun () ->
          Design.lower_processes ~device:t.ss_device ~recipe ~name:netlist_name
            df scheds)
      in
      let design =
        exec t ~recipe Sync (fun () ->
          Design.emit_sync ~device:t.ss_device ~recipe df dp)
      in
      let placement =
        exec t ~recipe Place (fun () ->
          let pl = Placement.place t.ss_device design.Design.netlist in
          Metrics.incr ~by:(Placement.relaxes pl) "place.relaxes";
          Metrics.incr ~by:(Placement.pack_steps pl) "place.pack_steps";
          pl)
      in
      let timing =
        exec t ~recipe Sta (fun () ->
          let r = Timing.analyze t.ss_device design.Design.netlist placement in
          Metrics.incr ~by:r.Timing.nets_timed "sta.nets_timed";
          r)
      in
      let result =
        exec t ~recipe Report (fun () -> finish ~name:label design timing)
      in
      let e =
        {
          rp_bucket = bucket;
          rp_scheds = scheds;
          rp_result = result;
          rp_max_extent = Placement.max_extent placement;
        }
      in
      t.ss_reported <- e :: t.ss_reported;
      e
  in
  if not (Trace.enabled ()) then body ()
  else
    Trace.with_span "pipeline"
      ~attrs:
        [
          ("design", Json.Str netlist_name);
          ("recipe", Json.Str (Style.label recipe));
        ]
      body

let run_exn ?name ?plan ?target_mhz ?inject t ~recipe =
  (reported_exn ?name ?plan ?target_mhz ?inject t ~recipe).rp_result

let run ?name ?plan ?target_mhz ?inject t ~recipe =
  match run_exn ?name ?plan ?target_mhz ?inject t ~recipe with
  | r -> Ok r
  | exception Diag.Diagnostic d -> Error d

(* ---------------- observability ---------------- *)

let stage_runs t =
  List.filter_map
    (fun s ->
      let n = stage_name s in
      Option.map (fun c -> (n, c)) (Hashtbl.find_opt t.ss_counts n))
    stages

let last_run t =
  let recorded = List.rev t.ss_last in
  List.map
    (fun s ->
      let name = stage_name s in
      match
        List.find_opt (fun (r : Ledger.stage) -> r.Ledger.st_name = name)
          recorded
      with
      | Some r -> r
      | None -> Ledger.unmeasured name Ledger.Skipped)
    stages

let diagnostics t = List.rev t.ss_diags

let explain t =
  let tbl =
    Table.create
      ~headers:
        [
          ("stage", Table.Left);
          ("status", Table.Left);
          ("time", Table.Right);
          ("minor", Table.Right);
          ("major", Table.Right);
          ("what", Table.Left);
        ]
  in
  let words w =
    if w >= 1e6 then Printf.sprintf "%.1f Mw" (w /. 1e6)
    else if w >= 1e3 then Printf.sprintf "%.1f kw" (w /. 1e3)
    else Printf.sprintf "%.0f w" w
  in
  List.iter2
    (fun s (r : Ledger.stage) ->
      let ran =
        r.Ledger.st_status = Ledger.Ran || r.Ledger.st_status = Ledger.Failed
      in
      Table.add_row tbl
        [
          r.Ledger.st_name;
          Ledger.status_name r.Ledger.st_status;
          (if ran then Printf.sprintf "%.1f ms" r.Ledger.st_ms else "-");
          (if ran then words r.Ledger.st_minor_words else "-");
          (if ran then words r.Ledger.st_major_words else "-");
          describe s;
        ])
    stages (last_run t);
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Table.render tbl);
  (match diagnostics t with
  | [] -> ()
  | ds ->
    Buffer.add_string buf "\ndiagnostics:\n";
    List.iter
      (fun d -> Buffer.add_string buf ("  " ^ Diag.to_string d ^ "\n"))
      ds);
  Buffer.contents buf

(* ---------------- artifact dumps ---------------- *)

let dump_extension = function
  | Transform -> "c"
  | Elaborate | Place | Sta | Report -> "json"
  | Classify | Schedule -> "txt"
  | Lower | Sync -> "dot"

let dataflow_to_json df =
  Json.Obj
    [
      ( "processes",
        Json.List
          (Array.to_list (Dataflow.processes df)
          |> List.map (fun (p : Dataflow.process) ->
               Json.Obj
                 [
                   ("name", Json.Str p.Dataflow.p_name);
                   ( "latency",
                     match p.Dataflow.p_latency with
                     | None -> Json.Null
                     | Some l -> Json.Int l );
                   ( "kernel",
                     match p.Dataflow.p_kernel with
                     | None -> Json.Null
                     | Some k -> Json.Str k.Kernel.name );
                 ])) );
      ( "channels",
        Json.List
          (Array.to_list (Dataflow.channels df)
          |> List.map (fun (c : Dataflow.channel) ->
               Json.Obj
                 [
                   ("name", Json.Str c.Dataflow.c_name);
                   ("src", Json.Int c.Dataflow.c_src);
                   ("dst", Json.Int c.Dataflow.c_dst);
                   ("depth", Json.Int c.Dataflow.c_depth);
                 ])) );
      ( "sync_groups",
        Json.List
          (List.map
             (fun g -> Json.List (List.map (fun p -> Json.Int p) g))
             (Dataflow.sync_groups df)) );
    ]

let timing_to_json (r : Timing.report) =
  Json.Obj
    [
      ("critical_ns", Json.Float r.Timing.critical_ns);
      ("fmax_mhz", Json.Float r.Timing.fmax_mhz);
      ("worst_net_fanout", Json.Int r.Timing.worst_net_fanout);
      ( "path",
        Json.List
          (List.map
             (fun (st : Timing.path_step) ->
               Json.Obj
                 [
                   ("cell", Json.Str st.Timing.ps_cell_name);
                   ("arrival_ns", Json.Float st.Timing.ps_arrival);
                   ( "via_net",
                     match st.Timing.ps_via_net with
                     | None -> Json.Null
                     | Some n -> Json.Int n );
                 ])
             r.Timing.path) );
    ]

let dump_after ?(plan = Plan.identity) t ~recipe stage =
  let result () = (reported_exn ~plan t ~recipe).rp_result in
  let render () =
    match stage with
    | Transform -> (
      match transformed t ~recipe ~plan with
      | Some p -> Ast.to_source p
      | None ->
        "/* IR-level session: no source program to transform (source plans \
         apply to hlsbc cc sessions) */\n")
    | Elaborate ->
      let df = elaborate ~plan t ~recipe in
      Json.to_string ~minify:false (dataflow_to_json df) ^ "\n"
    | Classify -> Classify.to_string (classify_report ~plan t)
    | Schedule ->
      let df = elaborate ~plan t ~recipe in
      let scheds = scheduled ~plan t ~recipe df in
      let buf = Buffer.create 1024 in
      Array.iteri
        (fun p sched ->
          match sched with
          | None -> ()
          | Some sched ->
            Buffer.add_string buf
              (Printf.sprintf "== process %d: %s ==\n"
                 p (Dataflow.process df p).Dataflow.p_name);
            Buffer.add_string buf (Sched_report.to_string sched))
        scheds;
      Buffer.contents buf
    | Lower ->
      (* a fresh datapath: the cached design's netlist already carries the
         sync controllers, and this dump is specifically the pre-sync view *)
      let df = elaborate ~plan t ~recipe in
      let scheds = scheduled ~plan t ~recipe df in
      let _, netlist_name = effective_names t ~recipe in
      let dp =
        exec t ~recipe Lower (fun () ->
          Design.lower_processes ~device:t.ss_device ~recipe ~name:netlist_name
            df scheds)
      in
      Export.to_dot dp.Design.dp_netlist
    | Sync -> Export.to_dot (result ()).fr_design.Design.netlist
    | Place ->
      let e = reported_exn ~plan t ~recipe in
      let netlist = e.rp_result.fr_design.Design.netlist in
      Json.to_string ~minify:false
        (Json.Obj
           [
             ("cells", Json.Int (Netlist.n_cells netlist));
             ("nets", Json.Int (Netlist.n_nets netlist));
             ("max_extent", Json.Float e.rp_max_extent);
           ])
      ^ "\n"
    | Sta ->
      Json.to_string ~minify:false (timing_to_json (result ()).fr_timing)
      ^ "\n"
    | Report -> artifact (result ())
  in
  match render () with
  | text -> Ok text
  | exception Diag.Diagnostic d -> Error d
