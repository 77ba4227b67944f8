(** Analysis over ledger records: the renderers behind
    [hlsbc obs report | diff | regress].

    [report] shows one run: header, per-stage time tree, per-design
    Fmax, cache traffic, and the top metrics (counters by value,
    histograms with p50/p95/p99 from {!Hlsb_telemetry.Metrics.quantile}).

    [diff] puts two runs side by side, stage by stage.

    [regress] is the perf-regression sentinel: the current run fails
    against a baseline when any comparable stage (or the total) is more
    than [max_slowdown_pct] percent slower, or any shared design's Fmax
    drops by more than the same margin. Stages below [min_ms] in the
    baseline are ignored — sub-millisecond stages are timer noise, not
    signal. *)

module Ledger = Ledger

val report : ?top:int -> Ledger.run -> string
(** [?top] bounds the number of metric counters/histograms shown
    (default 12). *)

val summary_line : Ledger.run -> string
(** One line per run for [hlsbc obs list]: id, age, cmd, label, total. *)

val diff : Ledger.run -> Ledger.run -> string

type verdict = {
  v_ok : bool;
  v_failures : string list;  (** one human-readable line per breach *)
  v_table : string;  (** the full comparison table *)
}

val regress :
  ?min_ms:float ->
  baseline:Ledger.run ->
  current:Ledger.run ->
  max_slowdown_pct:float ->
  unit ->
  verdict
(** [min_ms] defaults to 1.0. A stage is compared only when it ran in
    both runs and its baseline time is at least [min_ms]. *)
