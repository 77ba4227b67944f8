(** Plain-text table rendering for experiment reports (paper-style rows). *)

type align =
  | Left
  | Right

type t

val create : headers:(string * align) list -> t
(** A table with the given column headers and alignments. *)

val add_row : t -> string list -> unit
(** Append a row. Raises [Invalid_argument] if the arity does not match the
    header. *)

val add_rule : t -> unit
(** Append a horizontal rule. *)

val render : t -> string
(** Render with box-drawing separators, columns padded to content width. *)
