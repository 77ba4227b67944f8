(** Synchronization logic pruning (§4.2).

    Case 1 — dataflow over-synchronization (Fig. 5a/6a): processes written
    in one source loop are synchronized every iteration even when their
    flows never touch. The fix rebuilds the flow graph "at the granularity
    of the elementary flow control units", finds the isolated sub-graphs
    inside each sync group, and splits them into separate loops.

    Case 2 — parallel-module synchronization (Fig. 5b/6b): the controller
    ANDs the done of every parallel module before broadcasting the next
    start. When module latencies are statically known from the schedule
    report, it suffices to wait for the longest one; dynamic-latency
    modules must still be waited on (the paper's stated limitation). *)

open Hlsb_ir

val split_independent : Dataflow.t -> Dataflow.t
(** A copy of the network in which every sync group is replaced by one
    group per connected component of the channel graph restricted to that
    group. Processes and channels are unchanged. *)

val total_sync_fanout : Dataflow.t -> int
(** Sum over sync groups of reduce fan-in + start fan-out — the scalar the
    pruning drives down; reported in experiment tables. *)

(** {2 Latency pruning (case 2)}

    One rule serves the compile path and the paper's future work. The
    compile path gives each member of a parallel group an [Exact] bound
    when the schedule fixes its latency and [Unknown] otherwise, so it
    waits on one slowest static member plus every dynamic one. Intervals
    extend the rule as §4.2 proposes: "Our method cannot handle modules
    with dynamic latency, but it is possible to adopt symbolic execution
    to handle more situations, for example loops with variable bounds."
    A module whose trip count is variable has a latency {e interval}, and
    it can still be pruned whenever the anchor's lower bound dominates its
    upper bound: the controller provably never waits on it. *)

type wait_set = {
  waited : int list;  (** processes whose done the controller observes *)
  skipped : int list;  (** statically-dominated processes *)
}

type latency_bound =
  | Exact of int  (** statically fixed latency *)
  | Between of int * int  (** variable bounds: [lo, hi] cycles, lo <= hi *)
  | Unknown  (** fully dynamic: must always be waited on *)

val prune_with_bounds : (int * latency_bound) list -> wait_set
(** [prune_with_bounds members] keeps every [Unknown] member plus an anchor
    member with the greatest lower bound (the smallest id on ties), and
    skips exactly those members whose upper bound the anchor's lower bound
    dominates. With only [Exact] and [Unknown] bounds it waits on the
    anchor and every [Unknown] member and skips every other [Exact] one.
    Both lists are sorted. Raises [Invalid_argument] on an empty list,
    duplicate ids, a negative latency or an inverted interval. *)

val bound_of_trip_count :
  ii:int -> depth:int -> trip_lo:int -> trip_hi:int -> latency_bound
(** The symbolic-execution result for a pipelined loop whose trip count is
    only known to lie in [trip_lo, trip_hi]: latency = depth + ii *
    (trips - 1). [trip_lo = trip_hi] yields [Exact]. Raises
    [Invalid_argument] on non-positive ii/depth/trips or inverted range. *)
