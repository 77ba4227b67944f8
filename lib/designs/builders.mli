(** Shared DAG-construction combinators for the benchmark generators: the
    architectural idioms (dot-product lanes, reduction trees, line buffers,
    wide-word scatter) that the paper's benchmarks are made of. *)

open Hlsb_ir

val dot_lanes :
  Dag.t ->
  prefix:string ->
  lanes:int ->
  dtype:Dtype.t ->
  shared:Dag.node ->
  Dag.node list
(** [lanes] multipliers, each taking [shared] (the broadcast source) and a
    private input; float dtypes use [Fmul], integers [Mul]. *)

val reduce_tree :
  Dag.t -> op:Op.t -> dtype:Dtype.t -> Dag.node list -> Dag.node
(** Balanced binary reduction (the adder tree HLS infers for dot products,
    Fig. 17): the copies of an unrolled body join in it. Raises
    [Invalid_argument] on the empty list. *)

val reduce_sum : Dag.t -> dtype:Dtype.t -> Dag.node list -> Dag.node
(** [reduce_tree] with [Fadd] for floats, [Add] for integers. *)

val line_buffer :
  Dag.t ->
  name:string ->
  dtype:Dtype.t ->
  depth:int ->
  write:Dag.node ->
  index:Dag.node ->
  Dag.node
(** Declares a buffer, stores [write] at [index], and returns a load from
    the same buffer at [index] — the stencil line-buffer idiom (store the
    incoming row, read back the delayed one). *)

val scatter_word :
  Dag.t -> word:Dag.node -> parts:int -> Dag.node list
(** Slices a wide word into [parts] equal fields (the 512-bit HBM word into
    8 x 64-bit lanes of §5.3). Raises [Invalid_argument] if the width does
    not divide. *)

val compare_score :
  Dag.t ->
  prefix:string ->
  dtype:Dtype.t ->
  window:Dag.node list ->
  pattern:Dag.node list ->
  Dag.node
(** Per-element equality, select of a weight, and a sum — a pattern-match /
    classifier scoring unit. Windows and patterns must have equal length. *)
