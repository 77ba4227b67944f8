(** Dataflow process networks — the granularity at which HLS infers
    parallelism and (over-)synchronization (§3.2). Processes are streaming
    kernels; channels are FIFOs; a [sync_group] is a set of processes the
    source code expressed in one loop, which the HLS tool pedantically
    synchronizes every iteration (Fig. 5a / 6a). *)

type process = {
  p_name : string;
  p_latency : int option;
      (** completion latency in cycles if statically known; [None] for
          dynamic-latency modules (which §4.2 cannot prune) *)
  p_kernel : Kernel.t option;  (** underlying kernel, when materialized *)
}

type channel = {
  c_name : string;
  c_src : int;  (** producer process, or -1 for an external input port *)
  c_dst : int;  (** consumer process, or -1 for an external output port *)
  c_dtype : Dtype.t;
  c_depth : int;
}

type t

val create : unit -> t

val add_process :
  t -> name:string -> ?latency:int -> ?kernel:Kernel.t -> unit -> int

val add_channel :
  t ->
  name:string ->
  src:int ->
  dst:int ->
  dtype:Dtype.t ->
  ?depth:int ->
  unit ->
  int
(** [src]/[dst] of [-1] denote external ports. *)

val add_sync_group : t -> int list -> unit
(** Declare that these processes were written in one source loop: the HLS
    front end will synchronize all of them each iteration. Raises
    [Invalid_argument] on unknown or duplicate members. *)

val n_processes : t -> int
val n_channels : t -> int
val process : t -> int -> process
val channel : t -> int -> channel
val processes : t -> process array
val channels : t -> channel array
val sync_groups : t -> int list list

val kernel_classes : t -> int array
(** Per process, the first process whose kernel has the same schedule
    structure ({!Dag.same_structure}); a representative and a kernel-less
    process map to themselves. Replicated PEs fall into one class, so the
    compile schedules each class once. Computed on first call and cached
    until the next {!add_process}; kernels must not change after their
    process is added. *)

val connectivity_components : t -> int array
(** Component index per process, considering channel connectivity only
    (ignoring sync groups): the "elementary flow control units" view used by
    §4.2 to find independent flows glued together by a sync group. *)

type problem = {
  pb_entity : [ `Channel of string | `Process of string ];
  pb_message : string;
}

val problems : t -> problem list
(** Structural well-formedness issues, one per offending entity: channels
    dangling at both ends, processes touching no channel. Empty for a
    valid network. The compile pipeline turns each into a structured
    diagnostic. *)
