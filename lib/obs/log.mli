(** Structured, leveled event log.

    Library and CLI code emits events through {!debug}/{!info}/{!warn}/
    {!error} instead of ad-hoc [Printf.eprintf]. Every record carries
    the wall-clock time, the level, the recording domain id, and the id
    of the enclosing telemetry span ({!Hlsb_telemetry.Trace.current_span_id})
    when one is open — so a log line taken during a compile can be
    joined back to the exact pipeline stage that produced it.

    The threshold and format come from the [HLSB_LOG] environment
    variable — a comma-separated mix of a level name ([debug] | [info]
    | [warn] | [error] | [off]) and a format name ([text] | [json]) —
    or from {!set_level}/{!set_format} (the [--log-level] flag). The
    default is [warn,text] on stderr. In [json] format each record is
    one JSON object per line (JSONL):

    {v {"ts":1754556748.123,"level":"info","tid":0,"span":17,
    "msg":"stage sta: 41.3 ms","stage":"sta"} v}

    Below-threshold calls skip both formatting and I/O; emission takes a
    mutex, so records from pool worker domains never interleave. *)

type level = Debug | Info | Warn | Error | Off

type format = Text | Jsonl

(** {1 Configuration} *)

val set_level : level -> unit
val current_level : unit -> level
(** Defaults to the [HLSB_LOG] environment variable, then [Warn]. *)

val set_format : format -> unit

val set_sink : (string -> unit) -> unit
(** Redirect rendered records (one line each, no trailing newline) away
    from stderr (tests use this). *)

val reset_sink : unit -> unit
(** Restore the stderr sink. *)

val would_log : level -> bool
(** True when a record at [level] would be emitted. Use to guard
    expensive attribute construction. *)

(** {1 Emission} *)

val debug : ?attrs:(string * Hlsb_telemetry.Json.t) list -> ('a, unit, string, unit) format4 -> 'a
val info : ('a, unit, string, unit) format4 -> 'a
val warn : ('a, unit, string, unit) format4 -> 'a
val error : ?attrs:(string * Hlsb_telemetry.Json.t) list -> ('a, unit, string, unit) format4 -> 'a
(** [attrs] are extra fields on the record; the debug and error levels
    carry them. *)

val parse_spec : string -> (level option * format option, string) result
(** Parse an [HLSB_LOG]-style spec ("debug", "info,json", "json", ...).
    Exposed for the CLI flag and tests. *)

val env_var : string
(** ["HLSB_LOG"]. *)
