(** The nine Table-1 benchmarks in the paper's row order, followed by the
    wide-arithmetic modular-squaring workload ({!Bigmul}) that scales the
    broadcast structure past the Table-1 sizes. *)

val all : Spec.t list
val find : string -> Spec.t option
(** The design with exactly this name. *)

val resolve : string -> Spec.t option
(** The design named exactly ("Vector Arithmetic") or in a relaxed form:
    case-insensitive with spaces, dashes and underscores ignored, and a
    unique prefix suffices ("vector-arithmetic", "vector_arith",
    "lstm"). The CLI and the compile daemon both resolve through it. *)
