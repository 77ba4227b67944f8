(** Span-based tracer. Instrumented code wraps regions in
    {!with_span}; when a trace collector is installed the region is
    recorded as a nested monotonic-clock span, otherwise the thunk runs
    directly (the disabled path is an [Atomic] read and a branch — no
    allocation, no clock read).

    Installation is process-wide, like {!Metrics}: spans recorded inside
    pool worker domains ([Hlsb_util.Pool]) land in a private per-domain
    shard — no lock on the recording path, no cross-domain races on the
    span stack — and carry the recording domain's id in {!span.sp_tid}.
    Parentage is per-domain: a span opened on a worker domain is a root
    of that worker's track. Reads ({!spans}, exports) merge the
    shards; every [Pool.map] joins its workers before returning, so a
    quiescent-point read sees every span.

    Completed traces export as Chrome [trace_event] JSON — load the
    file in [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto},
    where each domain renders as its own named track — or render as a
    flat indented text tree. *)

type value = Json.t
(** Span attribute values. *)

type span = {
  sp_id : int;
  sp_name : string;
  sp_attrs : (string * value) list;
  sp_parent : int;  (** [sp_id] of the enclosing span, [-1] for roots *)
  sp_depth : int;  (** 0 for roots *)
  sp_tid : int;  (** id of the domain that recorded the span *)
  sp_start_ns : int64;
  sp_stop_ns : int64;
}

type t

val create : unit -> t

(** {1 Global installation} *)

val install : t -> unit
val uninstall : unit -> unit
val installed : unit -> t option
val enabled : unit -> bool

val with_collector : t -> (unit -> 'a) -> 'a
(** Install [t], run the thunk, restore the previous collector (also on
    exceptions). *)

(** {1 Recording} *)

val with_span : ?attrs:(string * value) list -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a named span. Nested calls on the same domain
    record parentage. The span is closed even if the thunk raises. *)

val current_span_id : unit -> int option
(** [sp_id] of the calling domain's innermost open span — the
    correlation key structured log records carry — or [None] when
    disabled or outside any span. *)

(** {1 Inspection & export} *)

val spans : t -> span list
(** Completed spans from every domain, in start order. Spans still open
    are not listed. *)

val duration_ns : span -> int64
val duration_ms : span -> float

val to_chrome_json : ?process_name:string -> t -> Json.t
(** Chrome [trace_event] "JSON object format": [{"traceEvents": [...]}]
    with one complete ("ph":"X") event per span, microsecond
    timestamps relative to the earliest span, span attributes in
    ["args"], the recording domain in ["tid"], and one [thread_name]
    metadata record per domain ("main" for the collector's owner). *)

val render : t -> string
(** Flat text tree: one line per span, indented by nesting depth, with
    millisecond durations; spans from non-owner domains are marked
    [@dN]. *)
