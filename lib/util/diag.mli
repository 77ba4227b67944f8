(** Structured compile diagnostics. Passes deep inside the flow report
    failures as a {!t} carrying the pipeline stage that detected the
    problem, a severity, and the offending design entity (kernel,
    channel, net, process), instead of letting a bare
    [Invalid_argument]/[Failure] escape with a context-free string.

    The staged pipeline ([Core.Pipeline]) catches {!Diagnostic} at stage
    boundaries and returns the payload as a [Result], so callers (and
    the compile daemon's error responses) see the stage and entity
    rather than a flattened [Invalid_argument] string. *)

type severity = Error | Warning

type entity =
  | Kernel of string
  | Channel of string
  | Net of string
  | Process of string
  | Design of string

type t = {
  d_stage : string;  (** pipeline stage that detected the problem *)
  d_severity : severity;
  d_entity : entity option;  (** offending design object, when known *)
  d_message : string;
}

exception Diagnostic of t
(** Structured escape hatch for code deep inside a pass. Raisers use
    {!fail}; stage runners catch it and surface the payload. *)

val error : ?entity:entity -> stage:string -> string -> t
val warning : stage:string -> string -> t

val fail : ?entity:entity -> stage:string -> ('a, unit, string, 'b) format4 -> 'a
(** [fail ~stage fmt ...] raises {!Diagnostic} with an [Error] payload. *)

val severity_label : severity -> string

val to_string : t -> string
(** One-line rendering: [error[stage] channel c: message]. *)
