(** Minimal JSON tree used by the telemetry exporters and the CLI's
    [--json] output. Self-contained (no external dependency): the
    encoder escapes per RFC 8259, floats are printed with enough
    precision to round-trip, and the parser accepts exactly the
    documents the encoder emits (plus whitespace), which is all the
    test-suite round-trips need. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?minify:bool -> t -> string
(** [minify] defaults to [true]; when [false], pretty-prints with
    2-space indentation. *)

val of_string : string -> (t, string) result
(** Parse a JSON document. Numbers with a ['.'], exponent, or out of
    [int] range become [Float]; everything else integral becomes
    [Int]. *)

val member : string -> t -> t option
(** [member key (Obj _)] looks up [key]; [None] on missing key or
    non-object. *)

val to_float : t -> float option
(** [Float f], or an [Int] widened to float; [None] otherwise. *)

(** {1 Typed fields}

    Each accessor looks [key] up in an object and checks its type. The
    error names the field: ["field \"k\" missing"] or
    ["field \"k\": expected int"]. *)

val str_field : string -> t -> (string, string) result
val int_field : string -> t -> (int, string) result

val float_field : string -> t -> (float, string) result
(** Accepts an [Int] too ({!to_float}). *)

val bool_field : string -> t -> (bool, string) result

val opt_field :
  (string -> t -> ('a, string) result) -> string -> t -> ('a option, string) result
(** [opt_field get key j] is [Ok None] when [key] is missing or [null],
    else [get key j] wrapped in [Some]. *)

val equal : t -> t -> bool
(** Structural equality; object fields are compared order-insensitively. *)
