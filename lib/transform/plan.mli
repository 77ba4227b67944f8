(** A transform plan: an ordered, serializable composition of
    {!Pass.request}s plus the IR-level channel-reuse step — the unit the
    pipeline caches on and the CLI accepts via
    [hlsbc cc --transform 'unroll=4;partition=cyclic:4;fission'].

    Grammar (items separated by [;], whitespace ignored, empty = identity):
    {v
    item := unroll=N | unroll=LOOP:N
          | partition=cyclic:N | partition=cyclic:ARRAY:N
          | fission | fission=LOOP
          | fusion | fusion=LOOP
          | stream | stream=ARRAY
          | pragmas            (apply the requests implied by #pragmas)
          | channel-reuse      (IR-level, runs on the elaborated network)
    v} *)

module Ast = Hlsb_frontend.Ast
module Diag = Hlsb_util.Diag

type item =
  | Source of Pass.request
  | Pragmas  (** apply the typed requests parsed from the source pragmas *)
  | Channel_reuse  (** {!Reuse.run} on the elaborated [Ir.Dataflow] *)

type t = item list

val identity : t
val is_identity : t -> bool

val of_string : string -> (t, string) result
(** Parse the plan grammar above. [to_string (of_string s)] is canonical:
    a cache key equal for equal plans. *)

val to_string : t -> string
(** Canonical rendering; [""] for the identity plan. *)

val has_channel_reuse : t -> bool

val apply_source : t -> Ast.program -> (Ast.program, Diag.t) result
(** Run the source-level items in order ([Pragmas] expands via
    {!Pass.requests_of_pragmas} at its position). An inapplicable request
    surfaces as the [Error] payload; [Channel_reuse] items are skipped
    here (the pipeline runs them after elaboration). *)
