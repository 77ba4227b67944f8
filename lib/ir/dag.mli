(** The operation DAG of one (pipelined) loop body after inlining and
    unrolling — the unit the HLS scheduler works on. Nodes are created in
    topological order (an argument must already exist), so node ids double
    as a topological order.

    Broadcast structure is implicit here exactly as in the paper: a node
    consumed by many later nodes (a loop-invariant value referenced by every
    unrolled body instance, a register feeding every BRAM unit of a large
    buffer) is a data broadcast even though nothing in the builder API says
    "broadcast". *)

type t
type node = int

type buffer = {
  b_name : string;
  b_dtype : Dtype.t;
  b_depth : int;  (** words *)
  b_partition : int;  (** cyclic partition factor; 1 = monolithic *)
}

type fifo = {
  f_name : string;
  f_dtype : Dtype.t;
  f_depth : int;
}

type kind =
  | Input of string
  | Const of int64
  | Operation of Op.t
  | Load of int  (** buffer id; args = [index] *)
  | Store of int  (** buffer id; args = [index; value] *)
  | Fifo_read of int  (** fifo id *)
  | Fifo_write of int  (** fifo id; args = [value] *)
  | Output of string  (** args = [value] *)

val create : unit -> t

(** {2 Declarations} *)

val add_buffer : t -> name:string -> dtype:Dtype.t -> depth:int -> partition:int -> int
val add_fifo : t -> name:string -> dtype:Dtype.t -> depth:int -> int

(** {2 Node constructors} *)

val input : t -> name:string -> dtype:Dtype.t -> node
val const : t -> dtype:Dtype.t -> int64 -> node
val op : t -> Op.t -> dtype:Dtype.t -> node list -> node
(** Raises [Invalid_argument] on arity mismatch or forward references. *)

val load : t -> buffer:int -> index:node -> node
val store : t -> buffer:int -> index:node -> value:node -> node
val fifo_read : t -> fifo:int -> node
val fifo_write : t -> fifo:int -> value:node -> node
val output : t -> name:string -> value:node -> node

(** {2 Accessors}

    Nodes are stored as flat arrays: per node one int packing an interned
    kind and a dtype code, arguments in one CSR (compressed sparse rows:
    every node's arguments back to back in one int array, with per-node
    offsets) and, once {!index_consumers} has run, the read slots in
    another. No per-node accessor allocates unless it says so. *)

val n_nodes : t -> int

val kind : t -> node -> kind
(** Interned, so it does not allocate: the nodes of one operator other
    than [Slice] share one value across all DAGs, and the accesses to one
    buffer or fifo share one value per DAG. *)

val dtype : t -> node -> Dtype.t

val n_args : t -> node -> int
val arg : t -> node -> int -> node
(** [arg t v i] is [v]'s [i]-th argument, [0 <= i < n_args t v]. *)

val args : t -> node -> node list
(** All of [v]'s arguments, in order — allocates the list. *)

val node_name : t -> node -> string
(** Spelled on each call (allocates): an input's or output's name, a
    constant's value, the operator, or ["<buffer>.load"],
    ["<buffer>.store"], ["<fifo>.read"], ["<fifo>.write"]. *)

val buffers : t -> buffer array
(** A fresh array of the declarations, by id. *)

val fifos : t -> fifo array
(** A fresh array of the declarations, by id. *)

val buffer : t -> int -> buffer
val fifo : t -> int -> fifo

val index_consumers : t -> unit
(** Build the consumer table now rather than on the first read, so its
    cost lands where the DAG is finished ({!Kernel.create}) instead of in
    whichever pass reads it first. A later node add discards it again. *)

val broadcast_factor : t -> node -> int
(** Number of argument slots in which this node's value is read — the "how
    many times a variable is read by later instructions" count of §4.1.
    A [Store] to a partitioned/multi-BRAM buffer additionally multiplies
    the *value* operand's physical fanout; that physical effect is accounted
    for in netlist generation, not here. O(1) once the consumer table is
    built. *)

val consumer : t -> node -> int -> node
(** [consumer t v i], [0 <= i < broadcast_factor t v]: the consumer in
    [v]'s [i]-th read slot. One slot per argument slot that reads [v],
    consumers in descending id order (a consumer reading the value twice
    fills two adjacent slots). *)

val iter : t -> (node -> unit) -> unit
(** In topological (= id) order. *)

val same_structure : t -> t -> bool
(** True when the two DAGs look alike to the scheduler and to lowering:
    the same node count and, per node, the same kind variant, the same
    operator for an [Operation], the same buffer (id, dtype, depth and
    partition factor) for a [Load]/[Store], the same fifo (id and depth)
    for a fifo access, the same dtype and the same arguments. Input,
    output, fifo and buffer names and constant values are ignored, and so
    are declarations no node accesses. An exact comparison with no
    hashing, so it never confuses two DAGs: the argument CSRs compare as
    int arrays, dtype codes as ints and kinds per node. Replicated kernels
    built by one generator compare equal. *)

val validate : t -> (unit, string) result
(** Structural checks: arities, arg ranges, buffer/fifo ids, dtype of
    comparison results, store value width matches buffer width. *)

val pp : Format.formatter -> t -> unit
