(* The benchmark harness: runs one named workload for a fixed wall-clock
   window from one seeded process, checks every output, and prints the
   figures as one JSON object on the last line of standard output.

     bench.exe --workload table1|scale|explore|serve --seed N --seconds S
               --trace 0|1 --state DIR --hlsbd PATH [--trace-out FILE]

   [--trace 0] reports the end-to-end metrics; [--trace 1] runs the ops
   through per-layer calls inside telemetry spans, records the spans in
   every other round, and reports the per-layer metrics instead.
   [--cold-setup] (used by the harness itself) does one cold set-up of
   the workload and exits. perfbench/run.py builds the tree, prepares the
   isolated state directory and calls this; see perfbench/NOTES.md. Exit
   code 2 means a harness error (nothing is printed on standard output
   then). *)

module P = Core.Pipeline
module Style = Hlsb_ctrl.Style
module Spec = Hlsb_designs.Spec
module Suite = Hlsb_designs.Suite
module Design = Hlsb_rtlgen.Design
module Placement = Hlsb_physical.Placement
module Timing = Hlsb_physical.Timing
module Netlist = Hlsb_netlist.Netlist
module Json = Hlsb_telemetry.Json
module Trace = Hlsb_telemetry.Trace
module Clock = Hlsb_telemetry.Clock
module Metrics = Hlsb_telemetry.Metrics
module Schedule = Hlsb_sched.Schedule
module Dataflow = Hlsb_ir.Dataflow
module Explore = Hlsb_explore.Explore
module Protocol = Hlsb_serve.Protocol
module Client = Hlsb_serve.Client
module Store = Hlsb_serve.Store
module Daemon = Hlsb_serve.Daemon
module Frontend = Hlsb_frontend.Frontend
module Plan = Hlsb_transform.Plan
module Ledger = Hlsb_obs.Ledger
module Device = Hlsb_device.Device
module Pool = Hlsb_util.Pool
module Stats = Perfbench_stats.Stats

exception Harness of string
exception Op_failed of string

let harness fmt = Printf.ksprintf (fun s -> raise (Harness s)) fmt
let check cond fmt =
  Printf.ksprintf (fun s -> if not cond then raise (Op_failed s)) fmt

let now_ms () = Int64.to_float (Clock.now_ns ()) /. 1e6

(* ---------------- configuration ---------------- *)

let jobs = 1

(* Setups per run: setup_s is their median. *)
let setup_repeats = 5

(* Table-1 Fmax in MHz (original, optimized) at the integer precision
   EXPERIMENTS.md prints. HBM-Based Stencil original reads 226 there but
   224 in `hlsbc table1` on the code this benchmark was written against;
   the benchmark pins what the program prints (see NOTES.md). *)
let table1_mhz =
  [
    ("Genome Sequencing", (259, 290));
    ("LSTM Network", (285, 422));
    ("Face Detection", (222, 295));
    ("Matrix Multiply", (138, 232));
    ("Stream Buffer", (153, 252));
    ("Stencil", (126, 217));
    ("Vector Arithmetic", (282, 334));
    ("HBM-Based Stencil", (224, 369));
    ("Pattern Matching", (231, 306));
  ]

(* The table1 round: every design under both recipes, plus one more
   Face Detection original, so the 19-op round puts the median inside
   one input's latency cluster rather than between two. *)
let table1_extra = [ ("Face Detection", Style.original) ]

let scale_point = ("bm420x2", (420, 7, 2))

(* The round after which each workload reads peak RSS, well inside the
   rounds a 20 s window holds (serve: of the daemon, which keeps every
   artifact it compiled, so its RSS grows with each first-touch
   request). *)
let table1_rss_round = 20
let scale_rss_round = 8
let explore_rss_round = 3
let serve_rss_round = 8

(* Explore runs each search at the program's defaults (budget 8
   configurations, up to 5 probes each, as `hlsbc explore` does). Pattern
   Matching (data-broadcast-bound) takes about 0.9 s per search on the
   2-vCPU machine this was written on, Vector Arithmetic
   (sync/control-bound) about 2.3 s, so a 20 s window holds only 3-6
   rounds. A round is three Pattern Matching searches and one Vector
   Arithmetic search: from 3 rounds up, both the median and the 10-beyond
   tail then fall among the Pattern Matching samples (with one of each,
   the median would fall between the two clusters, and with fewer
   Pattern Matching samples the tail would jump between them as the
   round count changes). *)
let explore_designs = [ "Pattern Matching"; "Vector Arithmetic" ]
let explore_round = [| 0; 0; 0; 1 |]

(* ---------------- small helpers ---------------- *)

let spec_exn name =
  match Suite.find name with
  | Some s -> s
  | None -> harness "unknown design %S" name

let read_file path = In_channel.with_open_bin path In_channel.input_all

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let result_json r = Json.to_string (P.result_to_json r)
let mhz0 f = Printf.sprintf "%.0f" f

(* Explore reports carry wall-clock fields; drop them before comparing
   repeats byte for byte. *)
let rec strip_timing = function
  | Json.Obj kvs ->
    Json.Obj
      (List.filter_map
         (fun (k, v) ->
           if k = "ms" || String.ends_with ~suffix:"_ms" k then None
           else Some (k, strip_timing v))
         kvs)
  | Json.List l -> Json.List (List.map strip_timing l)
  | j -> j

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir path =
  rm_rf path;
  Hlsb_util.Atomic_file.mkdir_p path;
  path

let vm_hwm_mb pid =
  let file = Printf.sprintf "/proc/%s/status" pid in
  match
    In_channel.with_open_text file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find_opt (String.starts_with ~prefix:"VmHWM:")
  with
  | None -> harness "no VmHWM in %s" file
  | Some line ->
    Scanf.sscanf
      (String.sub line 6 (String.length line - 6))
      " %d kB"
      (fun kb -> float_of_int kb /. 1024.)

(* ---------------- machine speed reference ---------------- *)

(* The machine's speed drifts by tens of percent within and between runs
   (a shared host). Latency-bound micro-loops (an integer multiply chain,
   a random walk over memory, a streaming sum) stay flat through those
   phases while compiles slow by up to 40%; what tracks them is work of
   the same kind as the program's: allocation, comparison-driven sorting,
   hashing, and data-dependent branches. Time figures are therefore
   rescaled by such a reference, timed once between two ops when at
   least [ref_every_ms] have passed since the last sample. (Taking more
   samples after long ops made scale's peak RSS wander by 10%: the
   reference allocates.) An op's time is multiplied by [ref_nominal_ms] /
   (the median reference time from a second before it to a second after
   it), i.e. reported as it would take on a machine where the reference
   takes [ref_nominal_ms]. Raw figures are printed beside the rescaled
   ones. *)
let ref_nominal_ms = 2.5
let ref_every_ms = 50.
let ref_sink = ref 0
let ref_table = Array.init 1024 (fun i -> (i * 2654435761) land 0xffff)

let reference_ms () =
  let t0 = now_ms () in
  let l = List.sort compare (List.init 10_000 (fun i -> (i * 7919) land 65535)) in
  let h = Hashtbl.create 16 in
  List.iter (fun x -> Hashtbl.replace h (x land 4095) x) l;
  let a = ref 0 and b = ref 0 and x = ref 12345 in
  for i = 1 to 300_000 do
    let v = Array.unsafe_get ref_table (!x land 1023) in
    if v land 1 = 0 then a := !a + v else b := !b lxor (v lsl 3);
    x := ((!x * 1103515245) + i) land 0x3fffffff
  done;
  ref_sink := Hashtbl.length h + !a + !b;
  now_ms () -. t0

(* (time, reference ms) samples, newest first *)
let speed = ref []
let last_speed = ref neg_infinity

let sample_speed () =
  let t = now_ms () in
  speed := (t, reference_ms ()) :: !speed;
  last_speed := t

let maybe_sample_speed () = if now_ms () -. !last_speed >= ref_every_ms then sample_speed ()

(* Multiplier that rescales a time measured from [t0] to [t1] to the
   nominal reference speed. *)
let speed_scale t0 t1 =
  let dist ts = if ts < t0 then t0 -. ts else if ts > t1 then ts -. t1 else 0. in
  let near = List.filter (fun (ts, _) -> dist ts <= 1000.) !speed in
  let near =
    if List.length near >= 3 then near
    else
      List.filteri
        (fun i _ -> i < 5)
        (List.sort (fun (a, _) (b, _) -> Float.compare (dist a) (dist b)) !speed)
  in
  match near with
  | [] -> 1.
  | _ -> ref_nominal_ms /. Stats.median (Array.of_list (List.map snd near))

(* ---------------- state isolation ---------------- *)

let isolated_vars =
  [ "HLSB_CACHE_DIR"; "HLSBD_STORE"; "HLSBD_SOCKET"; "HLSB_LEDGER" ]

let rec resolve p =
  let p = if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p in
  if Sys.file_exists p then Unix.realpath p
  else
    let parent = Filename.dirname p in
    if parent = p then p else Filename.concat (resolve parent) (Filename.basename p)

let check_isolation ~state =
  let root = Unix.realpath state in
  List.iter
    (fun var ->
      match Sys.getenv_opt var with
      | None | Some "" -> harness "%s is not set; run through perfbench/run.py" var
      | Some v ->
        if List.mem ".." (String.split_on_char '/' v) then
          harness "%s=%s must not contain '..'" var v;
        let r = resolve v in
        if not (String.starts_with ~prefix:(root ^ "/") r) then
          harness "%s=%s resolves to %s, outside the run's state directory %s"
            var v r root)
    isolated_vars;
  match Sys.getenv_opt Pool.env_var with
  | Some "1" -> ()
  | v ->
    harness "%s must be pinned to 1 (got %s)" Pool.env_var
      (Option.value v ~default:"unset")

(* ---------------- tracing ---------------- *)

(* Per-op counters of the traced run, keyed by metric name. Layer _ms
   figures are not stored here: they are the spans' self times, computed
   after the run from the collector. *)
let op_counters : (string, float) Hashtbl.t = Hashtbl.create 32
let count name v = Hashtbl.replace op_counters name v
let add name v =
  Hashtbl.replace op_counters name
    (v +. Option.value ~default:0. (Hashtbl.find_opt op_counters name))

(* A span around one call into a layer; [words] also records the minor
   words the call allocated. Disabled tracing costs a branch. *)
let span ?words name f =
  if not (Trace.enabled ()) then f ()
  else
    Trace.with_span name (fun () ->
      match words with
      | None -> f ()
      | Some w ->
        let w0 = Gc.minor_words () in
        let r = f () in
        add w (Gc.minor_words () -. w0);
        r)

(* Span -> the per-layer _ms metric its self time feeds. Spans not
   listed (the library's own internal spans, such as the daemon's
   serve.request) are transparent: their time stays with the nearest
   listed ancestor. The stage.* names are the pipeline's own spans, which
   is how layers inside Explore.run_design and Daemon.handle are seen;
   elaboration is the design generator for a suite design and the C
   frontend's Frontend.design_of_program for a cc source. *)
let layer_metric (s : Trace.span) =
  match s.Trace.sp_name with
  | "stage.elaborate" -> (
    match List.assoc_opt "design" s.Trace.sp_attrs with
    | Some (Json.Str d) when Suite.find d = None -> Some "frontend.elab_ms"
    | _ -> Some "designs.build_ms")
  | "designs.build" -> Some "designs.build_ms"
  | "sched.schedule" | "stage.schedule" -> Some "sched.schedule_ms"
  | "rtlgen.lower" | "stage.lower" -> Some "rtlgen.lower_ms"
  | "ctrl.sync" | "stage.sync" -> Some "ctrl.sync_ms"
  | "physical.place" | "stage.place" -> Some "physical.place_ms"
  | "physical.sta" | "stage.sta" -> Some "physical.sta_ms"
  | "core.report" | "stage.report" -> Some "core.report_ms"
  | "stage.transform" -> Some "transform.apply_ms"
  | "frontend.parse" -> Some "frontend.parse_ms"
  | "serve.round_trip" -> Some "serve.round_trip_ms"
  | "serve.handle" -> Some "serve.handle_ms"
  | "serve.codec" -> Some "serve.codec_ms"
  | "serve.store_find" -> Some "serve.store_find_ms"
  | "serve.store_put" -> Some "serve.store_put_ms"
  | "obs.ledger_append" -> Some "obs.ledger_append_ms"
  | "op" -> Some "trace.unattributed_ms"
  | _ -> None

(* Self time per layer metric for every traced op, keyed by the op's
   index attribute; also checks that the layer self times plus the
   unattributed remainder add up to the op's own duration. *)
let layer_times collector =
  let spans = Trace.spans collector in
  let by_id = Hashtbl.create 1024 in
  List.iter (fun (s : Trace.span) -> Hashtbl.replace by_id s.Trace.sp_id s) spans;
  let rec layer_ancestor id =
    match Hashtbl.find_opt by_id id with
    | None -> None
    | Some (s : Trace.span) ->
      if layer_metric s <> None then Some s
      else layer_ancestor s.Trace.sp_parent
  in
  let rec op_root (s : Trace.span) =
    if s.Trace.sp_name = "op" then Some s
    else
      match Hashtbl.find_opt by_id s.Trace.sp_parent with
      | None -> None
      | Some p -> op_root p
  in
  let ms ns = Int64.to_float ns /. 1e6 in
  let layered =
    List.filter_map
      (fun (s : Trace.span) ->
        match (layer_metric s, op_root s) with
        | Some m, Some root ->
          let parent =
            match layer_ancestor s.Trace.sp_parent with
            | Some p when s.Trace.sp_name <> "op" -> p.Trace.sp_id
            | _ -> -1
          in
          Some
            ( m,
              root,
              {
                Stats.sp_id = s.Trace.sp_id;
                sp_parent = parent;
                sp_start = ms s.Trace.sp_start_ns;
                sp_stop = ms s.Trace.sp_stop_ns;
              } )
        | _ -> None)
      spans
  in
  let selfs = Stats.self_times (List.map (fun (_, _, s) -> s) layered) in
  let per_op = Hashtbl.create 256 in
  List.iter2
    (fun (m, (root : Trace.span), _) (_, self) ->
      let k =
        match List.assoc_opt "op" root.Trace.sp_attrs with
        | Some (Json.Int k) -> k
        | _ -> -1
      in
      let tbl =
        match Hashtbl.find_opt per_op k with
        | Some (t, _) -> t
        | None ->
          let t = Hashtbl.create 16 in
          Hashtbl.add per_op k (t, Trace.duration_ms root);
          t
      in
      Hashtbl.replace tbl m
        (self +. Option.value ~default:0. (Hashtbl.find_opt tbl m)))
    layered selfs;
  Hashtbl.iter
    (fun k (tbl, op_ms) ->
      let total = Hashtbl.fold (fun _ v acc -> acc +. v) tbl 0. in
      if Float.abs (total -. op_ms) > 1e-6 *. Float.max 1. op_ms then
        harness "op %d: layer self times sum to %.6f ms, op took %.6f ms" k
          total op_ms)
    per_op;
  per_op

(* ---------------- composed layer calls ---------------- *)

(* The pipeline's stages as direct calls into each layer's public
   functions, each inside its span: schedule, lower, sync, place, STA,
   report. Must produce the same result record as [Pipeline.run] — the
   traced run checks that byte for byte. *)
let backend ?target_mhz ~device ~recipe ~name df =
  let scheds =
    span "sched.schedule" ~words:"sched.minor_words" (fun () ->
      Design.schedule_processes ?target_mhz ~device ~recipe df)
  in
  Array.iter
    (function
      | None -> ()
      | Some (s : Schedule.t) ->
        add "sched.nodes" (float_of_int (Array.length s.Schedule.entries));
        add "sched.registers_inserted"
          (float_of_int (Schedule.registers_inserted s)))
    scheds;
  let dp =
    span "rtlgen.lower" ~words:"rtlgen.minor_words" (fun () ->
      let dp = Design.lower_processes ~device ~recipe ~name df scheds in
      count "rtlgen.cells" (float_of_int (Netlist.n_cells dp.Design.dp_netlist));
      count "rtlgen.nets" (float_of_int (Netlist.n_nets dp.Design.dp_netlist));
      dp)
  in
  let design =
    span "ctrl.sync" (fun () -> Design.emit_sync ~device ~recipe df dp)
  in
  count "ctrl.sync_groups" (float_of_int design.Design.sync_groups_emitted);
  count "ctrl.max_sync_fanout" (float_of_int design.Design.max_sync_fanout);
  let nl = design.Design.netlist in
  let placement =
    span "physical.place" ~words:"physical.place_minor_words" (fun () ->
      Placement.place device nl)
  in
  count "physical.cells_placed" (float_of_int (Netlist.n_cells nl));
  let report =
    span "physical.sta" (fun () ->
      Timing.analyze_ctx (Timing.prepare device nl placement))
  in
  count "physical.nets_timed" (float_of_int (Netlist.n_nets nl));
  span "core.report" (fun () -> P.finish ~name design report)

let validated df =
  match Dataflow.problems df with
  | [] -> df
  | { Dataflow.pb_message; _ } :: _ -> raise (Op_failed pb_message)

let composed_spec (spec : Spec.t) ~recipe =
  let df =
    span "designs.build" ~words:"designs.build_minor_words" spec.Spec.sp_build
  in
  backend ~device:spec.Spec.sp_device ~recipe ~name:spec.Spec.sp_name
    (validated df)

(* ---------------- the timed window ---------------- *)

type sample = {
  s_t : float;  (** op start, ms on the monotonic clock *)
  s_op : int;  (** position in execution order; the "op" attribute of its span *)
  s_input : int;
  s_ms : float;
  s_ok : bool;
  s_work : int;
  s_fmax : float option;
  s_traced : bool;
  s_gc : float * float * float;  (** minor, promoted words, major GCs *)
  s_counters : (string * float) list;
}

type op_outcome = { o_work : int; o_fmax : float option }

let failures = ref []

let note_failure label msg =
  failures := (label, msg) :: !failures

(* One op: time it, run its checks, and turn any failure into a failed
   sample (never an exception). *)
let run_op ~label ~index ~traced ~op_id f =
  Hashtbl.reset op_counters;
  let g0 = Gc.quick_stat () and w0 = Gc.minor_words () in
  let t0 = now_ms () in
  let outcome =
    match
      if traced then
        Trace.with_span "op" ~attrs:[ ("op", Json.Int op_id) ] (fun () -> f ())
      else f ()
    with
    | o -> Ok o
    | exception Op_failed msg -> Error msg
    | exception (Harness _ as e) -> raise e
    | exception e -> Error (Printexc.to_string e)
  in
  let ms = now_ms () -. t0 in
  let g1 = Gc.quick_stat () in
  (* quick_stat's minor count only moves at minor collections *)
  let gc =
    ( Gc.minor_words () -. w0,
      g1.Gc.promoted_words -. g0.Gc.promoted_words,
      float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) )
  in
  let failed =
    {
      s_t = t0;
      s_op = op_id;
      s_input = index;
      s_ms = ms;
      s_ok = false;
      s_work = 0;
      s_fmax = None;
      s_traced = traced;
      s_gc = gc;
      s_counters = Hashtbl.fold (fun k v acc -> (k, v) :: acc) op_counters [];
    }
  in
  match outcome with
  | Ok o ->
    {
      failed with
      s_ok = true;
      s_work = o.o_work;
      s_fmax = o.o_fmax;
    }
  | Error msg ->
    note_failure label msg;
    failed

(* The traced run's span collector: installed for traced rounds only. *)
let collector = Trace.create ()

type window = {
  w_samples : sample list;  (** in execution order *)
  w_ms : float;
  w_rounds : int;
  w_peak_rss_mb : float;
}

(* Closed loop over whole rounds: each round is the workload's multiset
   of inputs in a seeded order; no round starts after the deadline. In
   a traced run every round runs the same code and every other round has
   the span collector installed, so traced against untraced rounds is
   the cost of the spans alone.

   Peak RSS (VmHWM) of process [rss_pid] is read after round [rss_round],
   outside the op timings: a fixed amount of work, where the peak at the
   end of a fixed time window would depend on machine speed. *)
let timed_window ~seconds ~rng ~trace ~labels ~round ~op ~rss_round ?(rss_pid = "self")
    () =
  let rss = ref None in
  let samples = ref [] in
  let op_id = ref 0 in
  let t0 = now_ms () in
  let deadline = t0 +. (seconds *. 1000.) in
  let rounds = ref 0 in
  while now_ms () < deadline do
    let traced = trace && !rounds mod 2 = 0 in
    if traced then Trace.install collector else Trace.uninstall ();
    Array.iter
      (fun i ->
        maybe_sample_speed ();
        let s =
          run_op ~label:labels.(i) ~index:i ~traced ~op_id:!op_id (fun () ->
            op ~round:!rounds i)
        in
        incr op_id;
        samples := s :: !samples)
      (shuffle rng round);
    incr rounds;
    Trace.uninstall ();
    if !rounds = rss_round then rss := Some (vm_hwm_mb rss_pid)
  done;
  let peak =
    match !rss with
    | Some r -> r
    | None ->
      Printf.printf "note: fewer than %d rounds; peak_rss_mb read at the end\n" rss_round;
      vm_hwm_mb rss_pid
  in
  { w_samples = List.rev !samples; w_ms = now_ms () -. t0; w_rounds = !rounds; w_peak_rss_mb = peak }

(* ---------------- reporting ---------------- *)

type setup = {
  su_s : float;  (** median set-up, rescaled to the nominal reference speed *)
  su_raw_s : float;  (** median set-up, unscaled *)
  su_last_ms : float;  (** the last set-up, done in this process, unscaled *)
  su_builds : float;  (** curves the last set-up built (traced runs) *)
}

type report = {
  r_setup : setup;
  r_window : window;
  r_work_unit : string;
  r_labels : string array;
  r_peak_rss_mb : float;
  r_fmax : float list;  (** the Fmax values whose geomean is reported *)
  r_layer : (string * float) list;  (** extra per-layer figures *)
}

let metric name unit v = (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str unit) ])

let scaled_ms s = s.s_ms *. speed_scale s.s_t (s.s_t +. s.s_ms)

let end_to_end_metrics r =
  let w = r.r_window in
  let samples = List.filter (fun s -> not s.s_traced) w.w_samples in
  let figures ms_of =
    let lat = Stats.latencies (List.map (fun s -> (ms_of s, s.s_ok)) samples) in
    let busy = List.fold_left (fun acc s -> acc +. ms_of s) 0. samples in
    (Stats.median lat, Stats.tail lat, busy)
  in
  let work = List.fold_left (fun acc s -> acc + s.s_work) 0 samples in
  let p50, tail, busy = figures scaled_ms in
  let raw_p50, raw_tail, raw_busy = figures (fun s -> s.s_ms) in
  let finite v = if Float.is_finite v then v else 1e9 in
  let per_s busy = float_of_int work /. (busy /. 1000.) in
  let by_input = Hashtbl.create 32 in
  List.iter
    (fun s ->
      if s.s_ok then
        Hashtbl.replace by_input s.s_input
          (scaled_ms s :: Option.value ~default:[] (Hashtbl.find_opt by_input s.s_input)))
    samples;
  if Hashtbl.length by_input <= 32 then
    Hashtbl.fold (fun i l acc -> (Stats.median (Array.of_list l), i, List.length l) :: acc)
      by_input []
    |> List.sort compare
    |> List.iter (fun (ms, i, n) ->
         Printf.printf "  %-36s %9.3f ms median of %d\n" r.r_labels.(i) ms n);
  Printf.printf "latency_tail_ms is p%.2f: %d of %d samples beyond it\n"
    tail.Stats.tl_percentile tail.Stats.tl_beyond (List.length samples);
  Printf.printf "ops_per_s counts %s per second of op time; %d rounds in %.1f s\n"
    r.r_work_unit w.w_rounds (w.w_ms /. 1000.);
  Printf.printf
    "unscaled: setup_s %.4f latency_p50_ms %.4f latency_tail_ms %.4f ops_per_s %.4f \
     (reference %.3f ms median over %d samples, nominal %.1f ms)\n"
    r.r_setup.su_raw_s raw_p50 raw_tail.Stats.tl_value (per_s raw_busy)
    (Stats.median (Array.of_list (List.map snd !speed)))
    (List.length !speed) ref_nominal_ms;
  [
    metric "setup_s" "s" r.r_setup.su_s;
    metric "latency_p50_ms" "ms" (finite p50);
    metric "latency_tail_ms" "ms" (finite tail.Stats.tl_value);
    metric "ops_per_s" "1/s" (per_s busy);
    metric "peak_rss_mb" "MB" r.r_peak_rss_mb;
    metric "fmax_geomean_mhz" "MHz" (Stats.geomean r.r_fmax);
  ]

let per_layer_names =
  [
    ("delay.characterize_ms", "ms"); ("delay.curve_builds", "count");
    ("delay.curve_builds_timed", "count"); ("designs.build_ms", "ms");
    ("designs.build_minor_words", "words"); ("sched.schedule_ms", "ms");
    ("sched.nodes", "count"); ("sched.registers_inserted", "count");
    ("sched.minor_words", "words"); ("rtlgen.lower_ms", "ms");
    ("rtlgen.cells", "count"); ("rtlgen.nets", "count");
    ("rtlgen.minor_words", "words"); ("ctrl.sync_ms", "ms");
    ("ctrl.sync_groups", "count"); ("ctrl.max_sync_fanout", "count");
    ("physical.place_ms", "ms"); ("physical.cells_placed", "count");
    ("physical.place_minor_words", "words"); ("physical.sta_ms", "ms");
    ("physical.nets_timed", "count"); ("physical.sta_refresh_ms", "ms");
    ("physical.nets_retimed", "count"); ("physical.refresh_speedup", "x");
    ("core.report_ms", "ms"); ("core.stage_runs", "count");
    ("core.session_hit_ratio", "1"); ("explore.configs", "count");
    ("explore.probes", "count"); ("explore.probes_per_config", "1");
    ("explore.hit_rate", "1"); ("serve.round_trip_ms", "ms");
    ("serve.handle_ms", "ms"); ("serve.codec_ms", "ms");
    ("serve.store_find_ms", "ms"); ("serve.hit_ratio", "1");
    ("serve.store_put_ms", "ms"); ("serve.store_bytes", "bytes");
    ("frontend.parse_ms", "ms"); ("frontend.elab_ms", "ms");
    ("frontend.source_bytes", "bytes"); ("transform.apply_ms", "ms");
    ("obs.ledger_append_ms", "ms"); ("gc.minor_words_per_op", "words");
    ("gc.promoted_words_per_op", "words"); ("gc.major_collections", "count");
    ("trace.unattributed_ms", "ms"); ("trace.overhead_ratio", "x");
    ("fail_ratio", "1");
  ]

(* Per-layer figures: each is per op, the median over the traced ops
   that exercised it (0 when no op did). *)
let per_layer_metrics r ~fail_ratio =
  let w = r.r_window in
  let traced = List.filter (fun s -> s.s_traced && s.s_ok) w.w_samples in
  let layer = layer_times collector in
  let values = Hashtbl.create 64 in
  let push k v =
    Hashtbl.replace values k (v :: Option.value ~default:[] (Hashtbl.find_opt values k))
  in
  List.iter
    (fun s ->
      List.iter (fun (k, v) -> push k v) s.s_counters;
      let minor, promoted, major = s.s_gc in
      push "gc.minor_words_per_op" minor;
      push "gc.promoted_words_per_op" promoted;
      push "gc.major_collections" major;
      match Hashtbl.find_opt layer s.s_op with
      | None -> ()
      | Some (tbl, _) -> Hashtbl.iter (fun k v -> push k v) tbl)
    traced;
  (* tracing overhead: traced vs untraced rounds over the same multiset,
     each op rescaled to the reference speed so machine drift between
     rounds cancels *)
  let sum pred =
    List.fold_left (fun a s -> if pred s then a +. scaled_ms s else a) 0. w.w_samples
  in
  let rounds_traced = (w.w_rounds + 1) / 2 and rounds_plain = w.w_rounds / 2 in
  let overhead =
    if rounds_plain = 0 then 1.
    else
      sum (fun s -> s.s_traced) /. float_of_int rounds_traced
      /. (sum (fun s -> not s.s_traced) /. float_of_int rounds_plain)
  in
  let mean = function
    | [] -> 0.
    | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)
  in
  List.map
    (fun (name, unit) ->
      let v =
        match List.assoc_opt name r.r_layer with
        | Some v -> v
        | None -> (
          match name with
          | "trace.overhead_ratio" -> overhead
          | "fail_ratio" -> fail_ratio
          | "gc.major_collections" ->
            mean (Option.value ~default:[] (Hashtbl.find_opt values name))
          | _ -> (
            match Hashtbl.find_opt values name with
            | None | Some [] -> 0.
            | Some l -> Stats.median (Array.of_list l)))
      in
      metric name unit v)
    per_layer_names

(* ---------------- shared workload plumbing ---------------- *)

type ctx = {
  c_state : string;
  c_seconds : float;
  c_trace : bool;
  c_rng : Random.State.t;
  c_hlsbd : string;
  c_registry : Metrics.t option;  (** installed in traced runs *)
}

let counter ctx name =
  match ctx.c_registry with
  | Some reg -> float_of_int (Metrics.counter_value reg name)
  | None -> 0.

(* Extra checks made outside the timed window count as attempted ops. *)
let extra_checks = ref 0

let post_check label f =
  incr extra_checks;
  match f () with
  | () -> ()
  | exception Op_failed msg -> note_failure label msg
  | exception (Harness _ as e) -> raise e
  | exception e -> note_failure label (Printexc.to_string e)

(* This process's environment with the isolated variables replaced. *)
let env_with overrides =
  Array.append
    (Array.of_list
       (List.filter
          (fun kv ->
            not (List.exists (fun v -> String.starts_with ~prefix:(v ^ "=") kv) isolated_vars))
          (Array.to_list (Unix.environment ()))))
    (Array.of_list (List.map (fun (k, v) -> k ^ "=" ^ v) overrides))

let child_env ~dir =
  env_with
    (List.filter_map
       (fun v ->
         if v = "HLSB_CACHE_DIR" then Some (v, fresh_dir (Filename.concat dir "cal"))
         else Option.map (fun x -> (v, x)) (Sys.getenv_opt v))
       isolated_vars)

(* One cold set-up in a fresh process: this executable in --cold-setup
   mode, with an empty calibration cache directory of its own. *)
let setup_child ~dir =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process_env Sys.executable_name
      (Array.append Sys.argv [| "--cold-setup" |])
      (child_env ~dir) devnull devnull Unix.stderr
  in
  Unix.close devnull;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> harness "the cold set-up child process failed"

(* [setup_repeats] cold set-ups, each in a fresh directory under the
   state directory: [f ~last ~dir]. *)
let timed_setups ctx f =
  let reference () = List.init 3 (fun _ -> reference_ms ()) in
  let last_ms = ref 0. and builds = ref 0. in
  let times =
    List.init setup_repeats (fun i ->
      let last = i = setup_repeats - 1 in
      let dir = fresh_dir (Filename.concat ctx.c_state (Printf.sprintf "setup-%d" i)) in
      let before = reference () in
      let b0 = counter ctx "calibrate.curve_builds" in
      let t0 = now_ms () in
      f ~last ~dir;
      let ms = now_ms () -. t0 in
      if last then begin
        last_ms := ms;
        builds := counter ctx "calibrate.curve_builds" -. b0
      end;
      let refs = Array.of_list (before @ reference ()) in
      (ms *. ref_nominal_ms /. Stats.median refs, ms))
  in
  Printf.printf "set-ups: %s s (rescaled; unscaled %s s)\n"
    (String.concat " " (List.map (fun (t, _) -> Printf.sprintf "%.3f" (t /. 1000.)) times))
    (String.concat " " (List.map (fun (_, t) -> Printf.sprintf "%.3f" (t /. 1000.)) times));
  let median f = Stats.median (Array.of_list (List.map f times)) /. 1000. in
  { su_s = median fst; su_raw_s = median snd; su_last_ms = !last_ms; su_builds = !builds }

(* The program's own set-up of an in-process workload: [cold ()] is the
   first compile of each distinct input. All but the last repeat run in
   a child process, timed from spawn to exit; the last runs in this
   process, whose calibration cache directory is still empty, and leaves
   its calibrator warm for the timed window. *)
let cold_setups ctx cold =
  timed_setups ctx (fun ~last ~dir -> if last then cold () else setup_child ~dir)

(* The per-layer calibration figures: the in-process cold set-up against
   the same work done again with the calibrator warm. *)
let calibration_layer (su : setup) ~warm_ms =
  [
    ("delay.characterize_ms", Float.max 0. (su.su_last_ms -. warm_ms));
    ("delay.curve_builds", su.su_builds);
  ]

let compile_all inputs () =
  List.iter (fun ((spec : Spec.t), recipe) -> ignore (P.run_exn (P.of_spec spec) ~recipe)) inputs

(* Digest of every file under the calibration cache directories: a curve
   characterized during the timed window is persisted there, so a
   change fails the run even where no metrics registry counts builds. *)
let rec cache_digest dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
    List.concat_map
      (fun n ->
        let p = Filename.concat dir n in
        if Sys.is_directory p then cache_digest p else [ (p, Digest.file p) ])
      (List.sort compare (Array.to_list names))

let ambient_cal_dir () = Sys.getenv "HLSB_CACHE_DIR"

(* Brackets the timed window: [delay.curve_builds_timed] must be 0. *)
let no_timed_builds ctx ~dirs =
  let builds0 = counter ctx "calibrate.curve_builds" in
  let digest0 = List.map cache_digest dirs in
  fun () ->
    let builds = counter ctx "calibrate.curve_builds" -. builds0 in
    post_check "calibration" (fun () ->
      check
        (builds = 0. && List.map cache_digest dirs = digest0)
        "characterization curves were built during the timed window");
    ("delay.curve_builds_timed", builds)

(* The byte-identity of repeated results: the first result JSON seen
   for an input is the reference for every later one. *)
let same_as_first tbl label json =
  match Hashtbl.find_opt tbl label with
  | None -> Hashtbl.add tbl label json
  | Some first -> check (first = json) "%s: result JSON differs from its first run" label

let distinct_fmax samples =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      match s.s_fmax with
      | Some f when not (Hashtbl.mem tbl s.s_input) -> Hashtbl.add tbl s.s_input f
      | _ -> ())
    samples;
  Hashtbl.fold (fun _ f acc -> f :: acc) tbl []

(* Incremental STA against a fresh analysis: nudge a few cells, refresh
   the context, and require the identical report. Returns (refresh ms,
   full ms, nets re-timed). *)
let eco_check device nl =
  let pl = Placement.place device nl in
  let ctx = Timing.prepare device nl pl in
  ignore (Timing.analyze_ctx ctx);
  let cells = Netlist.n_cells nl in
  List.iter
    (fun c ->
      let x, y = Placement.position pl c in
      Placement.set_position pl c (x +. 0.5, y +. 0.5))
    (List.sort_uniq compare [ 0; cells / 3; cells / 2; cells - 1 ]);
  let t0 = now_ms () in
  let dirty = Timing.refresh ctx in
  let incr = Timing.analyze_ctx ctx in
  let t1 = now_ms () in
  let full = Timing.analyze device nl pl in
  let t2 = now_ms () in
  check
    (incr.Timing.critical_ns = full.Timing.critical_ns
    && incr.Timing.fmax_mhz = full.Timing.fmax_mhz
    && incr.Timing.worst_net = full.Timing.worst_net
    && incr.Timing.arrivals = full.Timing.arrivals
    && List.map (fun p -> (p.Timing.ps_cell, p.Timing.ps_arrival)) incr.Timing.path
       = List.map (fun p -> (p.Timing.ps_cell, p.Timing.ps_arrival)) full.Timing.path)
    "incremental Timing.refresh report differs from a fresh Timing.analyze";
  (t1 -. t0, t2 -. t1, dirty)

(* ---------------- table1 and scale: fresh-session compiles ---------------- *)

let expected_mhz (spec : Spec.t) recipe =
  Option.map
    (fun (o, p) -> if recipe == Style.optimized then p else o)
    (List.assoc_opt spec.Spec.sp_name table1_mhz)

(* One fresh-session compile per op. Untraced: [Pipeline.run]. Traced:
   the composed layer calls in every round, which must reproduce
   [Pipeline.run]'s JSON (computed before the window, untimed). *)
let compile_workload ctx ~inputs ~round ~rss_round ~after =
  let labels =
    Array.map (fun ((s : Spec.t), r) -> s.Spec.sp_name ^ "/" ^ Style.label r) inputs
  in
  let distinct = List.sort_uniq compare (Array.to_list round) in
  let su = cold_setups ctx (compile_all (List.map (fun i -> inputs.(i)) distinct)) in
  let reference, warm_ms =
    if ctx.c_trace then begin
      let t0 = now_ms () in
      let r =
        Array.map (fun (spec, recipe) -> result_json (P.run_exn (P.of_spec spec) ~recipe)) inputs
      in
      (r, now_ms () -. t0)
    end
    else ([||], 0.)
  in
  let seen = Hashtbl.create 32 in
  let timed_builds = no_timed_builds ctx ~dirs:[ ambient_cal_dir () ] in
  let op ~round:_ i =
    let spec, recipe = inputs.(i) in
    let r =
      if ctx.c_trace then composed_spec spec ~recipe
      else
        match P.run (P.of_spec spec) ~recipe with
        | Ok r -> r
        | Error d -> raise (Op_failed (Hlsb_util.Diag.to_string d))
    in
    let json = result_json r in
    if ctx.c_trace then
      check (json = reference.(i)) "%s: composed layer calls differ from Pipeline.run"
        labels.(i)
    else same_as_first seen labels.(i) json;
    (match expected_mhz spec recipe with
    | Some mhz ->
      check (mhz0 r.P.fr_fmax_mhz = string_of_int mhz)
        "%s: Fmax %.2f MHz, Table 1 says %d" labels.(i) r.P.fr_fmax_mhz mhz
    | None -> ());
    { o_work = 1; o_fmax = Some r.P.fr_fmax_mhz }
  in
  let w =
    timed_window ~seconds:ctx.c_seconds ~rng:ctx.c_rng ~trace:ctx.c_trace ~labels
      ~round ~op ~rss_round ()
  in
  let timed_builds = timed_builds () in
  let extra = after () in
  {
    r_setup = su;
    r_window = w;
    r_work_unit = "compiles";
    r_labels = labels;
    r_peak_rss_mb = w.w_peak_rss_mb;
    r_fmax = distinct_fmax w.w_samples;
    r_layer = (timed_builds :: calibration_layer su ~warm_ms) @ extra;
  }

let table1_inputs () =
  Array.of_list
    (List.concat_map
       (fun (name, _) ->
         let s = spec_exn name in
         [ (s, Style.original); (s, Style.optimized) ])
       table1_mhz)

let table1 ctx =
  let inputs = table1_inputs () in
  let index_of (name, recipe) =
    let rec go i =
      let s, r = inputs.(i) in
      if s.Spec.sp_name = name && r == recipe then i else go (i + 1)
    in
    go 0
  in
  let round =
    Array.append
      (Array.init (Array.length inputs) Fun.id)
      (Array.of_list (List.map index_of table1_extra))
  in
  compile_workload ctx ~inputs ~round ~rss_round:table1_rss_round ~after:(fun () -> [])

let scale_spec () =
  let name, (bits, limb, lanes) = scale_point in
  Spec.make ~name ~broadcast:"Pipe. Ctrl. & Data" ~device:Device.ultrascale_plus
    ~build:(Hlsb_designs.Bigmul.build_point ~bits ~limb ~lanes)
    ~paper:(spec_exn "Modular Squaring").Spec.sp_paper

let scale ctx =
  let spec = scale_spec () in
  let name = spec.Spec.sp_name in
  (* the ECO re-timing check (and, traced, its cost) on the same point *)
  let after () =
    let nl = (P.run_exn (P.of_spec spec) ~recipe:Style.original).P.fr_design.Design.netlist in
    let reps = if ctx.c_trace then 3 else 1 in
    let runs = ref [] in
    for _ = 1 to reps do
      post_check (name ^ "/eco") (fun () ->
        runs := eco_check spec.Spec.sp_device nl :: !runs)
    done;
    match !runs with
    | [] -> []
    | runs ->
      let med f = Stats.median (Array.of_list (List.map f runs)) in
      let refresh = med (fun (r, _, _) -> r) and full = med (fun (_, f, _) -> f) in
      [
        ("physical.sta_refresh_ms", refresh);
        ("physical.nets_retimed", med (fun (_, _, d) -> float_of_int d));
        ("physical.refresh_speedup", full /. refresh);
      ]
  in
  compile_workload ctx ~inputs:[| (spec, Style.original) |] ~round:[| 0 |]
    ~rss_round:scale_rss_round ~after

(* ---------------- explore ---------------- *)

let explore_specs () = List.map spec_exn explore_designs

(* Set-up: the first compile of each design, under the static
   [optimized] recipe every search starts from. *)
let explore_cold () = compile_all (List.map (fun s -> (s, Style.optimized)) (explore_specs ())) ()

let explore ctx =
  let specs = Array.of_list (explore_specs ()) in
  let labels = Array.map (fun (s : Spec.t) -> s.Spec.sp_name) specs in
  let su = cold_setups ctx explore_cold in
  let warm_ms =
    if ctx.c_trace then begin
      let t0 = now_ms () in
      explore_cold ();
      now_ms () -. t0
    end
    else 0.
  in
  let seen = Hashtbl.create 8 in
  let timed_builds = no_timed_builds ctx ~dirs:[ ambient_cal_dir () ] in
  let op ~round:_ i =
    let spec = specs.(i) in
    let hits0 = counter ctx "pipeline.cache_hits" and runs0 = counter ctx "pipeline.stage_runs" in
    let rep = Explore.run_design (P.of_spec spec) ~name:spec.Spec.sp_name in
    let winner = rep.Explore.ep_winner.Explore.cr_fmax in
    let static = rep.Explore.ep_static.P.fr_fmax_mhz in
    check (winner >= static) "%s: explore winner %.2f MHz below static optimized %.2f MHz"
      labels.(i) winner static;
    let elaborations = Option.value ~default:0 (List.assoc_opt "elaborate" rep.Explore.ep_stage_runs) in
    check (elaborations = 1) "%s: elaborate ran %d times in one session" labels.(i) elaborations;
    same_as_first seen labels.(i)
      (Json.to_string (strip_timing (Explore.report_to_json rep)));
    let configs = List.length rep.Explore.ep_configs in
    if ctx.c_trace then begin
      count "explore.configs" (float_of_int configs);
      count "explore.probes" (float_of_int rep.Explore.ep_probes);
      count "explore.probes_per_config"
        (float_of_int rep.Explore.ep_probes /. float_of_int configs);
      count "explore.hit_rate" rep.Explore.ep_hit_rate;
      count "core.stage_runs"
        (float_of_int (List.fold_left (fun a (_, n) -> a + n) 0 rep.Explore.ep_stage_runs));
      let hits = counter ctx "pipeline.cache_hits" -. hits0
      and runs = counter ctx "pipeline.stage_runs" -. runs0 in
      if hits +. runs > 0. then count "core.session_hit_ratio" (hits /. (hits +. runs))
    end;
    { o_work = configs; o_fmax = Some winner }
  in
  let w =
    timed_window ~seconds:ctx.c_seconds ~rng:ctx.c_rng ~trace:ctx.c_trace ~labels
      ~round:explore_round ~op ~rss_round:explore_rss_round ()
  in
  let timed_builds = timed_builds () in
  {
    r_setup = su;
    r_window = w;
    r_work_unit = "configurations searched";
    r_labels = labels;
    r_peak_rss_mb = w.w_peak_rss_mb;
    r_fmax = distinct_fmax w.w_samples;
    r_layer = timed_builds :: calibration_layer su ~warm_ms;
  }

(* ---------------- serve: a real hlsbd over its socket ---------------- *)

(* Repeat requests per working-set key per round. *)
let serve_hits_per_key = 150

type daemon = { d_pid : int; d_socket : string }

let live_daemons : daemon list ref = ref []

let reap d =
  let rec wait tries =
    match Unix.waitpid [ Unix.WNOHANG ] d.d_pid with
    | 0, _ when tries > 0 ->
      Unix.sleepf 0.01;
      wait (tries - 1)
    | 0, _ ->
      (try Unix.kill d.d_pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] d.d_pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait 500;
  live_daemons := List.filter (fun x -> x.d_pid <> d.d_pid) !live_daemons

let stop_daemon d =
  ignore (Client.call ~socket:d.d_socket Protocol.Shutdown);
  reap d

let kill_daemons () =
  List.iter
    (fun d ->
      (try Unix.kill d.d_pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap d)
    !live_daemons

let start_daemon ctx ~dir =
  let dir = fresh_dir dir in
  let socket = Filename.concat dir "d.sock" in
  let store = Filename.concat dir "store" in
  let env =
    env_with
      [
        ("HLSB_CACHE_DIR", fresh_dir (Filename.concat dir "cal"));
        ("HLSBD_STORE", store);
        ("HLSBD_SOCKET", socket);
        ("HLSB_LEDGER", Filename.concat dir "ledger.jsonl");
      ]
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process_env ctx.c_hlsbd
      [|
        ctx.c_hlsbd; "serve"; "--jobs"; string_of_int jobs; "--socket"; socket; "--store";
        store; "--no-ledger";
      |]
      env devnull devnull Unix.stderr
  in
  Unix.close devnull;
  let d = { d_pid = pid; d_socket = socket } in
  live_daemons := d :: !live_daemons;
  let rec wait tries =
    if Client.available ~socket () then ()
    else
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ when tries > 0 ->
        Unix.sleepf 0.002;
        wait (tries - 1)
      | 0, _ -> harness "hlsbd did not answer on %s" socket
      | _ -> harness "hlsbd exited before answering on %s" socket
  in
  wait 5000;
  d

let serve_ns = "perfbench"

let examples = [ "fig1_unroll"; "fig18_stream_buffer"; "producer_consumer"; "fig5a_dataflow" ]

let plan_exn s =
  match Plan.of_string s with Ok p -> p | Error e -> harness "plan %S: %s" s e

let compile_verb ?target design recipe =
  Protocol.Compile
    { Protocol.cp_design = design; cp_recipe = recipe; cp_target_mhz = target; cp_inject = None }

let cc_verb ~source name plan recipe =
  Protocol.Cc
    { Protocol.cc_name = name; cc_source = source; cc_recipe = recipe; cc_plan = plan_exn plan }

let verb_label = function
  | Protocol.Compile c ->
    Printf.sprintf "compile %s/%s%s" c.Protocol.cp_design (Style.label c.Protocol.cp_recipe)
      (match c.Protocol.cp_target_mhz with None -> "" | Some t -> Printf.sprintf "@%g" t)
  | Protocol.Cc c ->
    Printf.sprintf "cc %s[%s]/%s" c.Protocol.cc_name (Plan.to_string c.Protocol.cc_plan)
      (Style.label c.Protocol.cc_recipe)
  | v -> Protocol.verb_name v

(* The daemon's artifact bytes for a compile result. *)
let artifact r = Json.to_string ~minify:false (P.result_to_json r) ^ "\n"

(* In-process [Pipeline.run] of a request: the reference a daemon
   answer must match. *)
let in_process verb =
  let result =
    match verb with
    | Protocol.Compile c ->
      P.run ?target_mhz:c.Protocol.cp_target_mhz
        (P.of_spec (spec_exn c.Protocol.cp_design))
        ~recipe:c.Protocol.cp_recipe
    | Protocol.Cc c -> (
      match Frontend.parse c.Protocol.cc_source with
      | Error e -> raise (Op_failed (Format.asprintf "%a" Frontend.pp_error e))
      | Ok prog ->
        P.run ~plan:c.Protocol.cc_plan
          (P.of_program ~device:Device.ultrascale_plus ~name:c.Protocol.cc_name prog)
          ~recipe:c.Protocol.cc_recipe)
    | v -> harness "no in-process reference for %s" (Protocol.verb_name v)
  in
  match result with
  | Ok r -> artifact r
  | Error d -> raise (Op_failed (Hlsb_util.Diag.to_string d))

let codec_request req =
  span "serve.codec" (fun () ->
    match
      Result.bind
        (Json.of_string (Json.to_string (Protocol.request_to_json req)))
        Protocol.request_of_json
    with
    | Ok r -> r
    | Error e -> raise (Op_failed ("request codec: " ^ e)))

let codec_response resp =
  span "serve.codec" (fun () ->
    match
      Result.bind
        (Json.of_string (Json.to_string (Protocol.response_to_json resp)))
        Protocol.response_of_json
    with
    | Ok r -> r
    | Error e -> raise (Op_failed ("response codec: " ^ e)))

(* The traced run's view of the daemon: every request is handled again
   by [Daemon.handle] on an in-process daemon state (ledger off, like the
   real one), between the protocol codecs, and must get the real daemon's
   answer. The layers inside it show through the pipeline's stage.*
   spans; the C frontend's parse, the store's find and put, and the
   ledger append the daemon leaves out are timed by direct calls with
   the key the daemon answered. *)
type local = { lo_daemon : Daemon.t; lo_puts : Store.t; lo_ledger : string }

let local_handle lo (req : Protocol.request) (real : Protocol.response) =
  let req = codec_request req in
  let verb = req.Protocol.q_verb and ns = req.Protocol.q_ns in
  (match verb with
  | Protocol.Cc c -> (
    count "frontend.source_bytes" (float_of_int (String.length c.Protocol.cc_source));
    match span "frontend.parse" (fun () -> Frontend.parse c.Protocol.cc_source) with
    | Ok _ -> ()
    | Error e -> raise (Op_failed (Format.asprintf "%a" Frontend.pp_error e)))
  | _ -> ());
  let resp = codec_response (span "serve.handle" (fun () -> Daemon.handle lo.lo_daemon req)) in
  let label = verb_label verb in
  Option.iter
    (fun d -> raise (Op_failed (label ^ ": in-process " ^ Hlsb_util.Diag.to_string d)))
    resp.Protocol.p_error;
  check
    (resp.Protocol.p_artifact = real.Protocol.p_artifact
    && resp.Protocol.p_key = real.Protocol.p_key
    && resp.Protocol.p_hit = real.Protocol.p_hit)
    "%s: in-process Daemon.handle answers differently from hlsbd" label;
  let key = resp.Protocol.p_key and bytes = resp.Protocol.p_artifact in
  check
    (span "serve.store_find" (fun () -> Store.find (Daemon.store lo.lo_daemon) ~ns ~key)
    = Some bytes)
    "%s: the store does not hold the answered bytes" label;
  if not resp.Protocol.p_hit then begin
    count "serve.store_bytes" (float_of_int (String.length bytes));
    match span "serve.store_put" (fun () -> Store.put lo.lo_puts ~ns ~key bytes) with
    | Ok () -> ()
    | Error m -> raise (Op_failed ("store put: " ^ m))
  end;
  match
    span "obs.ledger_append" (fun () ->
      Ledger.append ~path:lo.lo_ledger ~sync:true (Ledger.make ~cmd:"serve" ~label ()))
  with
  | Ok _ -> ()
  | Error m -> raise (Op_failed ("ledger append: " ^ m))

type serve_entry = Hit of int | Put of int | Fresh of int

let serve ctx =
  let source name = read_file (Filename.concat "examples/c" (name ^ ".c")) in
  let sources = List.map (fun n -> (n, source n)) examples in
  let src n = List.assoc n sources in
  let recipes = [ Style.original; Style.optimized ] in
  let working =
    Array.of_list
      (List.concat_map
         (fun d -> List.map (compile_verb d) recipes)
         [ "Face Detection"; "LSTM Network"; "Stream Buffer"; "Pattern Matching" ]
      @ List.concat_map
          (fun (n, plan) -> List.map (cc_verb ~source:(src n) n plan) recipes)
          [
            ("fig1_unroll", "");
            ("fig18_stream_buffer", "partition=cyclic:4");
            ("producer_consumer", "stream");
            ("fig5a_dataflow", "unroll=2");
          ])
  in
  (* first-touch requests: a new key every round *)
  let fresh =
    [|
      (fun round ->
        cc_verb
          ~source:(src "producer_consumer" ^ Printf.sprintf "\n// variant %d\n" round)
          "producer_consumer" "stream" Style.original);
      (fun round ->
        compile_verb ~target:(300. +. (0.001 *. float_of_int round)) "Face Detection"
          Style.optimized);
      (* the slowest request kind, so the tail sits inside its cluster *)
      (fun round ->
        compile_verb ~target:(300. +. (0.001 *. float_of_int round)) "Pattern Matching"
          Style.optimized);
    |]
  in
  let entries =
    Array.concat
      [
        Array.init (Array.length working * serve_hits_per_key) (fun i ->
          Hit (i mod Array.length working));
        Array.init (Array.length working) (fun i -> Put i);
        Array.init (Array.length fresh) (fun i -> Fresh i);
      ]
  in
  let labels =
    Array.map
      (function
        | Hit w -> "hit " ^ verb_label working.(w)
        | Put w -> "put " ^ verb_label working.(w)
        | Fresh k -> "fresh " ^ verb_label (fresh.(k) 0))
      entries
  in
  let request ~socket ~ns verb =
    let req = { Protocol.q_id = Client.fresh_id (); q_ns = ns; q_verb = verb } in
    match Client.request ~socket req with
    | Ok resp -> (req, resp)
    | Error e -> raise (Op_failed ("request: " ^ e))
  in
  let answer label (resp : Protocol.response) =
    match resp.Protocol.p_error with
    | None -> resp.Protocol.p_artifact
    | Some d -> raise (Op_failed (label ^ ": " ^ Hlsb_util.Diag.to_string d))
  in
  (* set-up: daemon start + working-set fill, each daemon with empty
     store and calibration cache; the last daemon stays up *)
  let fill = Array.make (Array.length working) "" in
  let daemon = ref None in
  let su =
    timed_setups ctx (fun ~last ~dir ->
      let d = start_daemon ctx ~dir in
      Array.iteri
        (fun i verb ->
          let _, resp = request ~socket:d.d_socket ~ns:serve_ns verb in
          fill.(i) <- answer (verb_label verb) resp)
        working;
      if last then daemon := Some d else stop_daemon d)
  in
  let d = Option.get !daemon in
  (* traced: the in-process daemon state, filled like the real one; the
     fill is cold (this process has calibrated nothing yet), and a second
     fill into a fresh state gives the same work with the calibrator warm *)
  let local, setup_layer =
    if not ctx.c_trace then (None, [])
    else begin
      let fill_local name =
        let lo =
          Daemon.create ~store_root:(fresh_dir (Filename.concat ctx.c_state name)) ~ledger:false ()
        in
        Array.iter
          (fun verb ->
            let req = { Protocol.q_id = Client.fresh_id (); q_ns = serve_ns; q_verb = verb } in
            match (Daemon.handle lo req).Protocol.p_error with
            | None -> ()
            | Some e -> harness "in-process fill: %s" (Hlsb_util.Diag.to_string e))
          working;
        lo
      in
      let b0 = counter ctx "calibrate.curve_builds" in
      let t0 = now_ms () in
      let lo = fill_local "local-store" in
      let t1 = now_ms () in
      let builds = counter ctx "calibrate.curve_builds" -. b0 in
      ignore (fill_local "local-warm");
      let warm_ms = now_ms () -. t1 in
      ( Some
          {
            lo_daemon = lo;
            lo_puts = Store.open_ ~root:(fresh_dir (Filename.concat ctx.c_state "local-puts")) ();
            lo_ledger = Filename.concat ctx.c_state "local-ledger.jsonl";
          },
        calibration_layer { su with su_last_ms = t1 -. t0; su_builds = builds } ~warm_ms )
    end
  in
  let fresh_seen = Hashtbl.create 8 in
  let hits = ref 0 and served = ref 0 in
  let timed_builds =
    no_timed_builds ctx
      ~dirs:[ ambient_cal_dir (); Filename.concat (Filename.dirname d.d_socket) "cal" ]
  in
  let op ~round i =
    let ns, verb =
      match entries.(i) with
      | Hit w -> (serve_ns, working.(w))
      | Put w -> (Printf.sprintf "put-%d" round, working.(w))
      | Fresh k -> (serve_ns, fresh.(k) round)
    in
    let req, resp = span "serve.round_trip" (fun () -> request ~socket:d.d_socket ~ns verb) in
    let bytes = answer labels.(i) resp in
    incr served;
    if resp.Protocol.p_hit then incr hits;
    (match entries.(i) with
    | Hit w ->
      check resp.Protocol.p_hit "%s: not a store hit" labels.(i);
      check (bytes = fill.(w)) "%s: hit bytes differ from the key's miss bytes" labels.(i)
    | Put w ->
      check (not resp.Protocol.p_hit) "%s: hit in a fresh namespace" labels.(i);
      check (bytes = fill.(w)) "%s: bytes differ from the key's first answer" labels.(i)
    | Fresh k ->
      check (not resp.Protocol.p_hit) "%s: first-touch request hit" labels.(i);
      if not (Hashtbl.mem fresh_seen k) then Hashtbl.add fresh_seen k (verb, bytes));
    Option.iter (fun lo -> local_handle lo req resp) local;
    { o_work = 1; o_fmax = None }
  in
  let w =
    timed_window ~seconds:ctx.c_seconds ~rng:ctx.c_rng ~trace:ctx.c_trace ~labels
      ~round:(Array.init (Array.length entries) Fun.id)
      ~op ~rss_round:serve_rss_round ~rss_pid:(string_of_int d.d_pid) ()
  in
  let timed_builds = timed_builds () in
  stop_daemon d;
  (* daemon answers against fresh in-process compiles *)
  Array.iteri
    (fun i verb ->
      post_check ("in-process " ^ verb_label verb) (fun () ->
        check (in_process verb = fill.(i)) "%s: daemon bytes differ from Pipeline.run"
          (verb_label verb)))
    working;
  Hashtbl.iter
    (fun _ (verb, bytes) ->
      post_check ("in-process " ^ verb_label verb) (fun () ->
        check (in_process verb = bytes) "%s: daemon bytes differ from Pipeline.run"
          (verb_label verb)))
    fresh_seen;
  let fmax =
    Array.to_list fill
    |> List.filter_map (fun b ->
         match Json.of_string b with
         | Ok j -> (
           match Json.member "fmax_mhz" j with
           | Some (Json.Float f) -> Some f
           | Some (Json.Int n) -> Some (float_of_int n)
           | _ -> None)
         | Error _ -> None)
  in
  if List.length fmax <> Array.length working then harness "unreadable working-set artifacts";
  {
    r_setup = su;
    r_window = w;
    r_work_unit = "requests";
    r_labels = labels;
    r_peak_rss_mb = w.w_peak_rss_mb;
    r_fmax = fmax;
    r_layer =
      [ timed_builds; ("serve.hit_ratio", float_of_int !hits /. float_of_int (max 1 !served)) ]
      @ setup_layer;
  }

(* ---------------- main ---------------- *)

let usage =
  "bench.exe --workload table1|scale|explore|serve --seed N --seconds S --trace 0|1 \
   --state DIR --hlsbd PATH [--trace-out FILE]"

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) in
  let state = ref "" and hlsbd = ref "" and trace_out = ref "" and cold_setup = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--state", Arg.Set_string state, "DIR");
      ("--hlsbd", Arg.Set_string hlsbd, "PATH");
      ("--trace-out", Arg.Set_string trace_out, "FILE");
      ("--cold-setup", Arg.Set cold_setup, " do one cold set-up of the workload and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let code =
    try
      if !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1) || !state = "" then
        harness "%s" usage;
      check_isolation ~state:!state;
      Pool.set_default_jobs jobs;
      if !cold_setup then begin
        (match !workload with
        | "table1" -> compile_all (Array.to_list (table1_inputs ())) ()
        | "scale" -> compile_all [ (scale_spec (), Style.original) ] ()
        | "explore" -> explore_cold ()
        | w -> harness "no cold set-up for workload %S" w);
        exit 0
      end;
      let traced = !trace = 1 in
      let registry = if traced then Some (Metrics.create ()) else None in
      Option.iter Metrics.install registry;
      let ctx =
        {
          c_state = !state;
          c_seconds = !seconds;
          c_trace = traced;
          c_rng = Random.State.make [| !seed |];
          c_hlsbd = !hlsbd;
          c_registry = registry;
        }
      in
      let run =
        match !workload with
        | "table1" -> table1
        | "scale" -> scale
        | "explore" -> explore
        | "serve" -> serve
        | w -> harness "unknown workload %S" w
      in
      (* spans are recorded only inside traced rounds' ops *)
      let report = run ctx in
      let samples = report.r_window.w_samples in
      let attempted = List.length samples + !extra_checks in
      let failed = List.length !failures in
      let fail_ratio = Stats.fail_ratio ~attempted ~failed in
      List.iteri
        (fun i (label, msg) -> if i < 10 then Printf.eprintf "FAILED %s: %s\n" label msg)
        (List.rev !failures);
      Printf.printf "workload %s seed %d trace %d jobs %d\n" !workload !seed !trace jobs;
      Printf.printf "attempted %d failed %d fail_ratio %g\n" attempted failed fail_ratio;
      let metrics =
        if traced then per_layer_metrics report ~fail_ratio
        else end_to_end_metrics report
      in
      if !trace_out <> "" then
        Out_channel.with_open_bin !trace_out (fun oc ->
          output_string oc
            (Json.to_string (Trace.to_chrome_json ~process_name:"perfbench" collector)));
      print_endline
        (Json.to_string
           (Json.Obj
              [
                ("correct", Json.Bool (failed = 0));
                ("attempted", Json.Int attempted);
                ("failed", Json.Int failed);
                ("metrics", Json.Obj metrics);
              ]));
      0
    with Harness msg ->
      kill_daemons ();
      Printf.eprintf "perfbench: %s\n" msg;
      2
  in
  kill_daemons ();
  exit code
