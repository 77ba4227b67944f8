(** Search-driven Fmax auto-tuning of one design (ROADMAP item 2): an
    iterative exploration driver that, inside a single compile
    {!Core.Pipeline.session},

    - enumerates a typed configuration space — {!Hlsb_ctrl.Style} recipe
      knobs, register injection on the worst broadcast chains
      ({!Hlsb_sched.Schedule.inject}, generalizing the one-shot
      [tree_threshold] policy), and {!Hlsb_transform.Plan} variants,
    - binary-searches each configuration's [target_mhz] bracket with
      {!Search} until achieved-vs-target converges within a tolerance,
    - and prunes dominated configurations on an (Fmax, area,
      search-cost) front.

    Because every configuration runs in the same session, elaboration is
    paid once and schedules are shared wherever the (plan, target,
    injection, sched-mode) key repeats; the report carries the session's
    stage-run counters and a cache-hit rate proving it. *)

module Pipeline = Core.Pipeline
module Style = Hlsb_ctrl.Style
module Schedule = Hlsb_sched.Schedule
module Plan = Hlsb_transform.Plan

(** {1 The configuration space} *)

type config = {
  cf_recipe : Style.recipe;
  cf_plan : Plan.t;  (** identity for IR-level sessions *)
  cf_inject : Schedule.inject option;
}

val space : plans:Plan.t list -> config list
(** The enumeration order (trim with the budget): the static
    [optimized] point first — so the explorer's best can never fall
    below the static recipe — then transform-plan variants, register
    injections, the other named recipes, and finally plan x injection
    products. [plans] lists extra transform plans to consider (identity
    is always implicit; only meaningful on program sessions). *)

(** {1 Pareto pruning}

    Pure and synthetic-testable: the qcheck property that the winner is
    never dominated runs against this module directly. *)

module Front : sig
  type point = {
    pt_label : string;
    pt_fmax : float;  (** maximize *)
    pt_area : float;  (** minimize *)
    pt_cost : int;  (** search cost in probes; minimize *)
  }

  val dominates : point -> point -> bool
  (** [dominates a b]: [a] is no worse on all three axes and strictly
      better on at least one. *)

  val front : point list -> point list
  (** The non-dominated subset, in input order. *)

  val winner : point list -> point option
  (** Highest Fmax on the front; ties broken by smaller area, then
      fewer probes, then label — deterministic at any job count. *)
end

(** {1 Results} *)

type config_result = {
  cr_config : config;
  cr_label : string;
  cr_fmax : float;  (** best achieved Fmax over the search, MHz *)
  cr_area : float;  (** LUT%% + FF%% at the best probe *)
  cr_probes : int;
  cr_ms : float;  (** wall-clock of this configuration's search *)
  cr_outcome : Search.outcome;
  cr_result : Pipeline.result;  (** the best probe's compile result *)
}

type report = {
  ep_design : string;
  ep_static : Pipeline.result;
      (** the untuned static [optimized] compile, for comparison *)
  ep_configs : config_result list;  (** in trial order *)
  ep_front : config_result list;  (** non-dominated configurations *)
  ep_winner : config_result;
  ep_stage_runs : (string * int) list;
      (** the session's {!Pipeline.stage_runs} after the whole search —
          [elaborate] must be 1 however many configurations ran *)
  ep_probes : int;  (** oracle compiles over all configurations *)
  ep_hit_rate : float;
      (** fraction of per-compile stage work served from session caches *)
  ep_stage : Hlsb_obs.Ledger.stage;
      (** what the whole design's search cost, named after the design:
          its entry in the run ledger *)
}

val run_design :
  ?budget:int ->
  ?t0:float ->
  ?tol:float ->
  ?max_probes:int ->
  ?plans:Plan.t list ->
  Pipeline.session ->
  name:string ->
  report
(** Explore one design inside the given session: compile the static
    baseline, then search up to [budget] configurations (default 8)
    with up to [max_probes] compiles each (default 5). Configurations
    whose compile fails with a diagnostic are skipped. Also publishes
    [explore.*] gauges into the installed metrics registry (configs,
    probes, best/static MHz, search ms, cache-hit rate, elaborate
    runs). Deterministic for a given session kind and parameters. *)

val summary : report -> string
(** Human-readable per-design summary: winner vs static, the front, and
    the session-reuse counters. *)

val table : report list -> string
(** The winners table, one row per design: static vs searched-best Fmax,
    the winning configuration, and the search cost (configs, probes, wall
    ms, elaborate runs, cache-hit rate) — what [hlsbc explore] prints
    first. *)

val report_to_json : report -> Hlsb_telemetry.Json.t

val write_logs : dir:string -> report -> string list
(** Write one [frequency_log/<design>__<config>.txt] per configuration
    under [dir] (each probe's target and achieved MHz, the converged
    bracket, the best point) plus [<design>.summary.json]; returns the
    paths written. Creates directories as needed. *)
