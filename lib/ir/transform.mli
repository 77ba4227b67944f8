(** Front-end transforms that *create* the implicit broadcasts (§3.1): loop
    unrolling replicates the body around shared loop-invariant values, and
    the copies' results join in a balanced reduction tree. *)

val unrolled :
  Dag.t -> factor:int -> (int -> unit) -> unit
(** [unrolled dag ~factor body] invokes [body j] for [j = 0 .. factor-1].
    Values the caller captured from outside become shared broadcast sources,
    exactly like [source] in Fig. 1. Raises [Invalid_argument] if
    [factor < 1]. This is deliberately just structured iteration — the
    broadcast arises from sharing, not from any special marker. *)

val reduce_tree :
  Dag.t -> op:Op.t -> dtype:Dtype.t -> Dag.node list -> Dag.node
(** Balanced binary reduction (the adder tree HLS infers for dot products,
    Fig. 17). Raises [Invalid_argument] on the empty list. *)
