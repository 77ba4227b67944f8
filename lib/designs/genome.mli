(** Genome sequencing chaining kernel [1] (Fig. 13): a pipelined loop whose
    body is unrolled BACK_SEARCH_COUNT times, so the loop-invariant anchor
    coordinates (curr.x, curr.y, avg_qspan, thresholds) broadcast to every
    unrolled comparator lane — the canonical data broadcast (§3.1). The
    accelerator runs several independent lanes, each its own control
    domain. *)

open Hlsb_ir

val kernel : ?back_search_count:int -> lane:int -> unit -> Kernel.t
(** One chaining lane (default unroll factor 64, the paper's setting). *)

val dataflow : ?lanes:int -> unit -> Dataflow.t
(** [lanes] independent chaining lanes (default 4), each unrolled 64
    times. *)

val spec : Spec.t
