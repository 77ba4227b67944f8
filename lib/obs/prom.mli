(** Prometheus text-format exposition (version 0.0.4) of a metrics
    snapshot, as [hlsbc obs prom] prints a ledger record's: counters
    become [counter] families, gauges [gauge], and bucketed histograms
    full [histogram] families with cumulative [le] buckets, [_sum] and
    [_count]. Metric names are sanitized ([sched.broadcast_factor] ->
    [hlsb_sched_broadcast_factor]). *)

val metric_name : string -> string
(** Sanitize a registry name into a legal Prometheus metric name:
    characters outside [[a-zA-Z0-9_:]] become ['_'], and ["hlsb_"] is
    prepended. *)

val of_snapshot : Hlsb_telemetry.Metrics.snapshot -> string
(** The full exposition: one [# TYPE] line per family, samples in
    snapshot (alphabetical) order, histograms with cumulative buckets
    ending at [le="+Inf"]. Non-finite values render as Prometheus'
    [NaN]/[+Inf]/[-Inf] literals. *)
