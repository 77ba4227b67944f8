(** The staged compile pipeline: the flow as an explicit list of named
    stages ([elaborate], [classify], [schedule], [lower], [sync],
    [place], [sta], [report]), each a function between typed stage
    artifacts carried in a compile {!session}, each wrapped in a
    telemetry span and measured ({!last_run}), and each reporting
    failures as structured diagnostics ({!Hlsb_util.Diag.t}) instead of
    letting [Invalid_argument]/[Failure] escape from deep inside rtlgen.

    A session caches upstream artifacts keyed by the inputs that
    actually affect them, under one rule: a hit records the stage
    [Cached] and counts [pipeline.cache_hits]; a miss runs the stage
    body and files its value. Transform and elaboration are keyed by the
    plan, classification by the plan, scheduling by (plan, effective
    target, injection, [sched_mode]). Lower..report share one table
    whose entries are the {!result} itself, filed under (recipe, names,
    plan) and the schedules it was lowered from: a request whose
    schedules lower alike is served entirely from cache. Compiling the
    same design under [Style.original] and [Style.optimized] — or
    sweeping buffer sizes over recipes, as the Fig-19 driver does —
    therefore elaborates once instead of once per recipe point.

    This is the library's one compile path: compile a design with
    {!Hlsb_ctrl.Style.original} to see what today's HLS emits, with
    {!Hlsb_ctrl.Style.optimized} to apply the paper's three techniques. *)

module Diag = Hlsb_util.Diag

(** {1 Stages} *)

type stage =
  | Transform
      (** source-to-source transform plan (unroll / partition / fission /
          fusion / stream insertion), {!Hlsb_transform.Plan.t}-keyed *)
  | Elaborate  (** build + validate the dataflow network *)
  | Classify  (** source-level broadcast classification (on demand) *)
  | Schedule  (** per-kernel chaining-aware scheduling *)
  | Lower  (** netlist emission + channel wiring *)
  | Sync  (** synchronization controllers *)
  | Place  (** placement onto the device grid *)
  | Sta  (** static timing analysis *)
  | Report  (** utilization + result record assembly *)

val stages : stage list
(** In execution order. *)

val stage_name : stage -> string
val stage_of_name : string -> stage option
val describe : stage -> string

(** {1 Results} *)

type result = {
  fr_label : string;
  fr_recipe : Hlsb_ctrl.Style.recipe;
  fr_fmax_mhz : float;
  fr_critical_ns : float;
  fr_lut_pct : float;
  fr_ff_pct : float;
  fr_bram_pct : float;
  fr_dsp_pct : float;
  fr_design : Hlsb_rtlgen.Design.t;
  fr_timing : Hlsb_physical.Timing.report;
}
(** The compile result record. *)

val result_to_json : result -> Hlsb_telemetry.Json.t
(** The record as JSON (Fmax, critical ns, utilization percentages,
    per-kernel depth/registers/skid bits) — the payload of
    [hlsbc compile --json] and [hlsbc profile]. *)

val artifact : result -> string
(** The compile artifact's bytes: {!result_to_json}, unminified, with a
    trailing newline. The one spelling of what [hlsbc compile --json],
    [--dump-after report] and the hlsbd daemon's store serve, so
    in-process and daemon compiles are byte-identical by construction. *)

val summary : result -> string
(** One text line: label, Fmax, critical ns and utilization — what
    [hlsbc compile] prints. *)

val finish :
  name:string -> Hlsb_rtlgen.Design.t -> Hlsb_physical.Timing.report -> result
(** The [report] stage body: utilization + record assembly, exposed for
    callers that run the layers by hand and must emit the same record
    and metrics as {!run}. *)

(** {1 Sessions} *)

type session

val create :
  device:Hlsb_device.Device.t ->
  name:string ->
  build:(unit -> Hlsb_ir.Dataflow.t) ->
  unit ->
  session

val of_program :
  device:Hlsb_device.Device.t ->
  name:string ->
  Hlsb_frontend.Ast.program ->
  session
(** Session over a parsed source program — the [hlsbc cc] entry point.
    Each compile may carry a transform {!Hlsb_transform.Plan.t}: the
    [transform] stage applies its source items (cached per canonical plan
    key), elaboration then runs [Frontend.design_of_program] on the
    transformed program (plus the IR-level channel-reuse pass when the
    plan asks for it). The identity plan compiles exactly what
    [Frontend.design_of_string] would. *)

val of_spec : Hlsb_designs.Spec.t -> session
(** Session elaborating the benchmark on its paper-designated device. *)

val of_kernel : device:Hlsb_device.Device.t -> Hlsb_ir.Kernel.t -> session
(** Single-kernel session over {!Hlsb_rtlgen.Design.kernel_dataflow}:
    the netlist is named [<kernel>_<recipe label>] per run (the name
    seeds the timing model's net-delay jitter), the result label after
    the kernel alone. *)

val run :
  ?name:string ->
  ?plan:Hlsb_transform.Plan.t ->
  ?target_mhz:float ->
  ?inject:Hlsb_sched.Schedule.inject ->
  session ->
  recipe:Hlsb_ctrl.Style.recipe ->
  (result, Diag.t) Stdlib.result
(** Compile under [recipe], reusing every cached artifact the recipe
    permits. [?name] overrides the design name for this run only (the
    Fig-19 sweep labels each recipe point); it keys the downstream
    artifact cache together with the recipe. [?plan] (default identity)
    selects the transform variant to compile: every artifact cache is
    additionally keyed by the plan's canonical string, so recompiling a
    plan hits cache end to end while a new plan shares nothing
    downstream of the source. A plan with source items on an IR-level
    session fails with a stage-["transform"] diagnostic.

    [?target_mhz] sets the schedule target for this run and [?inject] forces extra distribution registers on the
    widest-read values ({!Hlsb_sched.Schedule.inject}) — the explorer's
    two tuning axes. Both key the schedule cache, the target as its
    effective value (the override, else
    {!Hlsb_sched.Schedule.default_target_mhz}), so an explicit 300 MHz
    reuses an untuned run's schedules. Lower..report are then reused
    whenever the schedules lower alike
    ({!Hlsb_sched.Schedule.lowers_same}), whatever target or injection
    produced them: such runs return the same result record. No [Invalid_argument] or [Failure] escapes: malformed inputs
    surface as [Error d] with stage and entity names. *)

val run_exn :
  ?name:string ->
  ?plan:Hlsb_transform.Plan.t ->
  ?target_mhz:float ->
  ?inject:Hlsb_sched.Schedule.inject ->
  session ->
  recipe:Hlsb_ctrl.Style.recipe ->
  result
(** [run], raising [Diag.Diagnostic] on error (for drivers that only
    ever compile known-good designs). *)

val classify_report : ?plan:Hlsb_transform.Plan.t -> session -> Classify.report
(** The [classify] stage: cached after the first call (per plan),
    counted in {!stage_runs}. Raises [Diag.Diagnostic] if elaboration
    fails. *)

(** {1 Observability} *)

val stage_runs : session -> (string * int) list
(** Stage name -> number of times its body actually executed over the
    session's lifetime (cache hits do not count), sorted by stage order.
    The two-recipe-session test asserts [elaborate = 1] here. *)

val last_run : session -> Hlsb_obs.Ledger.stage list
(** What each stage of the most recent {!run} cost, one record per
    stage in stage order, named by {!stage_name}: the records the run
    ledger stores. Stages the run never reached (or that only run on
    demand, like [classify]) are reported [Skipped]. *)

val explain : session -> string
(** Per-stage table of {!last_run} (status, time, minor-heap words and
    words allocated directly in the major heap) followed by any
    diagnostics collected — the payload of [hlsbc compile --explain]. *)

val diagnostics : session -> Diag.t list
(** Every diagnostic the session has collected, oldest first. *)

(** {1 Artifact dumps} *)

val dump_extension : stage -> string
(** ["dot"], ["json"] or ["txt"] — the natural format of each stage's
    artifact dump. *)

val dump_after :
  ?plan:Hlsb_transform.Plan.t ->
  session ->
  recipe:Hlsb_ctrl.Style.recipe ->
  stage ->
  (string, Diag.t) Stdlib.result
(** Render the artifact produced by the given stage under [recipe]:
    transform -> the transformed C source (a comment for IR-level
    sessions); elaborate -> dataflow JSON; classify -> text report;
    schedule -> per-kernel schedule reports; lower -> pre-sync netlist
    DOT; sync -> full netlist DOT; place -> placement summary JSON; sta
    -> timing report JSON; report -> result JSON. Runs (or reuses)
    exactly the stages needed. *)
