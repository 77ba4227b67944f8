(** The persistent run ledger: one versioned [hlsb-run/1] JSON record
    per compile / fuzz / explore / serve invocation, appended to an
    append-only JSONL file so runs from different processes (and
    different days) can be compared, diffed, and gated on.

    The ledger is the durable complement of [Hlsb_telemetry]: spans and
    counters die with the process; the record assembled from them —
    the per-stage costs of [Core.Pipeline.last_run], the full metrics
    snapshot, cache hit/miss traffic, per-design Fmax — survives in
    [.hlsb/ledger.jsonl] and feeds [hlsbc obs report|diff|regress].

    {!stage} is the one record of what a stage cost. {!measure} takes
    it, and every writer uses it: the pipeline's stages (also behind
    [hlsbc compile --explain]), the explorer's per-design searches and
    the daemon's requests.

    Resolution of the ledger path: the [HLSB_LEDGER] environment
    variable ([off] or the empty string disables the ledger entirely; a
    path names the file), else [.hlsb/ledger.jsonl] under the current
    directory. When disabled, callers are expected to skip record
    assembly too ({!enabled}), so the compile path pays nothing.

    Appends serialize under an advisory file lock and go down as one
    [write] of the fully-assembled line — the append-only analog of
    {!Hlsb_util.Store}'s write-then-rename discipline — so concurrent writers
    never interleave records. A short or failed write is rolled back by
    truncating the file to its pre-append length (the lock is still
    held), so a failed append leaves no torn line behind; what malformed
    lines can still arise (a crash between write and truncate, hand
    editing) are skipped on load, never fatal. A caller that must not
    lose an acknowledged record (the compile daemon) passes [~sync:true]
    for one [fsync] per record.

    Every record carries the {!Build_id.digest} of the library sources
    the program was built from: the same id every store key holds, so
    it tells apart builds that differ by an uncommitted edit. *)

module Json = Hlsb_telemetry.Json

val schema : string
(** ["hlsb-run/1"]. *)

val env_var : string
(** ["HLSB_LEDGER"]. *)

(** {1 Stage records} *)

type status =
  | Ran  (** the body ran and returned *)
  | Cached  (** served from a cache; the body did not run *)
  | Skipped  (** not reached, or only run on demand *)
  | Failed  (** the body ran and raised (or answered with an error) *)

val status_name : status -> string
(** ["ran"] | ["cached"] | ["skipped"] | ["FAILED"]: the spelling of
    records and tables. *)

type stage = {
  st_name : string;  (** pipeline stage, explored design, or ["serve"] *)
  st_status : status;
  st_ms : float;  (** monotonic-clock time of the body; 0 unless it ran *)
  st_minor_words : float;
      (** [Gc.minor_words] the body allocated, in the calling domain and
          in the pool workers its maps ran on ({!Hlsb_util.Pool.credited_words}) *)
  st_major_words : float;
      (** words the body allocated directly in the major heap (blocks too
          large for the minor heap: [Gc.counters]' major minus promoted
          words), counted across domains the same way *)
}

val measure : string -> (unit -> 'a) -> ('a, exn) result * stage
(** [measure name f] runs [f] once and records what it cost: [Ran] when
    it returns, [Failed] (with the exception) when it raises. The words
    cover [f] alone: nothing is allocated inside the window but what [f]
    allocates, on the calling domain or, for its {!Hlsb_util.Pool.map}
    tasks, on the workers; so they do not depend on the job count. *)

val unmeasured : string -> status -> stage
(** The record of a stage whose body did not run: zero time and words. *)

type run = {
  r_id : string;  (** unique-enough: time + pid *)
  r_time_s : float;  (** unix epoch seconds at assembly *)
  r_cmd : string;  (** compile | cc | profile | fuzz | bench | ... *)
  r_label : string;
  r_build_id : string option;
      (** {!Build_id.digest} of the writer; [None] in records that predate it *)
  r_device : string option;
  r_fingerprint : string option;  (** device timing-model fingerprint *)
  r_recipe : string option;  (** recipe hash ([Style.label]) *)
  r_jobs : int;
  r_cores : int;
  r_stages : stage list;
  r_results : Json.t list;  (** per-design compile result records *)
  r_cache : (string * int) list;  (** cache hit/miss counters, sorted *)
  r_metrics : Json.t option;  (** full [Metrics.to_json] snapshot *)
}

val make :
  ?device:string ->
  ?fingerprint:string ->
  ?recipe:string ->
  ?stages:stage list ->
  ?results:Json.t list ->
  ?cache:(string * int) list ->
  ?metrics:Json.t ->
  cmd:string ->
  label:string ->
  unit ->
  run
(** Assemble a record: stamps the id, time and build id, and fills
    jobs/cores from the ambient pool configuration. *)

val total_ms : run -> float
(** Sum of the [Ran] stages' time. *)

val result_label : Json.t -> string
val result_fmax : Json.t -> float option
val result_critical_ns : Json.t -> float option
(** Accessors into the per-design result records. *)

val to_json : run -> Json.t
val of_json : Json.t -> (run, string) result
(** Tolerant parse: unknown fields are ignored, a stage without
    [minor_words] or [major_words] (records that predate them) reads 0
    there; a wrong or missing ["schema"] is an error. *)

(** {1 The on-disk ledger} *)

val enabled : unit -> bool
(** False when [HLSB_LEDGER] is [off] or empty — callers skip record
    assembly entirely, so a disabled ledger costs nothing. *)

val ambient_path : unit -> string option
(** The resolved ledger file, [None] when disabled. *)

val default_path : string
(** [".hlsb/ledger.jsonl"] — what [hlsbc obs] reads when [HLSB_LEDGER]
    is unset or disabled and no [--ledger] flag is given. *)

val append : ?path:string -> ?sync:bool -> run -> (string, string) result
(** Append one record (creating the directory and file as needed) and
    return the path written. [Error] carries the system message; ledger
    failures must never take a compile down, so callers log and move
    on. [?path] overrides the ambient resolution (tests, [--ledger]);
    [~sync:true] fsyncs the record before returning (default [false]). *)

val load : path:string -> (run list, string) result
(** All well-formed records, oldest first. Malformed lines are skipped.
    A missing file is [Ok []]; an unreadable one is [Error]. *)

val resolve : run list -> string -> (run, string) result
(** Resolve a run reference against a ledger, for the CLI: ["last"] or
    [-1] is the newest record, [-2] the one before, ["last~1"] a
    dash-free spelling of [-2] (so it parses as a positional argument),
    [1] the oldest, and any other string matches by id prefix
    (ambiguity is an error). *)
