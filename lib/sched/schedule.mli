(** Chaining-aware operation scheduling, in two modes:

    - [Baseline] uses the fanout-blind HLS delay library (§2): an operator
      costs the same whether it feeds one consumer or a thousand, so long
      chains form across broadcast sources and the post-route clock pays for
      it (Fig. 2's add+sub example).
    - [Broadcast_aware] uses the calibrated model of §4.1: each node's
      delay is looked up at its broadcast factor (how many times its value
      is read in the same cycle), over-long chains split at the broadcast,
      and operators whose calibrated delay alone exceeds the target get
      extra internal pipeline stages for downstream retiming to use.

    Scheduling is ASAP with operator chaining under a target clock period.
    Broadcast factors depend on cycle assignment and vice versa, so the
    broadcast-aware mode starts from a conservative factor (all consumers)
    and relaxes it with a re-scheduling pass using the factors the first
    pass implies. *)

open Hlsb_ir

type mode =
  | Baseline
  | Broadcast_aware of Hlsb_delay.Calibrate.t

type inject = {
  inj_top : int;
      (** how many of the widest-read value-producing nodes get forced
          distribution stages (ties broken by node id, deterministic) *)
  inj_levels : int;  (** extra register levels per selected value *)
}
(** Register injection on the worst broadcast chains: the Fmax explorer's
    generalization of the fixed [tree_threshold] policy. Lowering
    realizes the extra [e_bcast_levels] as deeper pipelined fanout trees
    (broadcast-aware recipes) or register chains (baseline recipes).
    [inj_top = 0] or [inj_levels = 0] is a no-op. *)

type entry = {
  e_cycle : int;  (** cycle in which the node starts *)
  e_start : float;  (** chain offset within the cycle, ns *)
  e_delay : float;  (** per-stage delay the scheduler budgeted *)
  e_latency : int;
      (** register stages after this node: intrinsic + added_pipe +
          bcast_levels *)
  e_added_pipe : int;
      (** §4.1 stages added because the calibrated delay alone exceeds the
          target (realized as operator/address pipelining) *)
  e_bcast_levels : int;
      (** distribution stages reserved for this node's own widely-read
          value (realized as a pipelined fanout tree) *)
  e_factor : int;  (** input-side broadcast factor used for the delay lookup *)
}

type samples
(** The [sched.*] metric samples of one schedule: its histograms as
    (value, multiplicity) pairs and its register count. *)

type t = {
  kernel : Kernel.t;
  mode_label : string;
  target_ns : float;
  entries : entry array;  (** indexed by DAG node id *)
  depth : int;  (** pipeline depth in cycles (latest finish, exclusive) *)
  samples : samples option;
      (** what {!run} fed the metrics registry installed at the time
          ([None] when there was none), so {!rebind} replays it without
          walking the DAG *)
}

val lowers_same : t -> t -> bool
(** True when the two schedules lower to the same netlist: same kernel
    (physically), same [depth], and per entry the same [e_cycle],
    [e_latency], [e_added_pipe] and [e_bcast_levels] — the only fields
    lowering reads. [target_ns], [mode_label], [e_start], [e_delay] and
    [e_factor] are ignored; they vary between targets that schedule
    alike. The compile pipeline reuses lower..report on a match. *)

val default_target_mhz : float
(** 300 MHz: the target {!run} schedules at when none is given. *)

val run : ?target_mhz:float -> ?inject:inject -> mode -> Kernel.t -> t
(** Default target is {!default_target_mhz} (more aggressive than any of
    the paper's original designs achieve, so the schedule, not the
    target, binds).
    [?inject] (default none) forces extra distribution stages on the
    widest-read values — see {!inject}. *)

val rebind : t -> Kernel.t -> t
(** [rebind t k] is [t] with [k] as its kernel, sharing [t]'s entries,
    depth, target and mode: the schedule of a kernel whose structure
    matches [t.kernel]'s ({!Dag.same_structure}), which a fresh {!run}
    would reproduce exactly. Feeds the same [sched.*] metrics as {!run}
    plus [sched.kernels_shared], replaying [t.samples] without reading
    the DAG (they are counted from [t]'s DAG only if [t] was scheduled
    with no registry installed). Raises [Invalid_argument] if [k]'s node
    count differs from [t]'s. *)

val node_delays : mode -> Dag.t -> Dag.node -> factor:int -> float
(** [node_delays mode dag] is the scheduler's per-node delay rule (ns)
    over [dag], with each operator's curve resolved once: a node's delay
    at the given input-side broadcast factor. Interface FIFOs cost 0.55,
    outputs 0.05, inputs and constants nothing; operators and memory
    accesses use the fanout-blind HLS library under [Baseline] and the
    calibrated curves under [Broadcast_aware]. *)

val finish_cycle : t -> Dag.node -> int
(** First cycle in which the node's result is available to consumers. *)

val chain_ok : t -> bool
(** True if no within-cycle chain exceeds the target period (under the
    delays the scheduler itself used). Tests assert this for both modes. *)

val same_cycle_factor : t -> Dag.node -> int
(** Number of reads of this node's value by consumers scheduled in the
    node's own result cycle (the physical comb fanout of the value). *)

val registers_inserted : t -> int
(** Total added pipeline stages (the §4.1 register modules), for overhead
    reporting ("pipeline length 9 -> 10" in §5.2). *)
