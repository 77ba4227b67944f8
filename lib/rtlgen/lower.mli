(** Lowers one scheduled kernel to macro cells and nets, reproducing the
    RTL structures the paper dissects:

    - datapath operators become combinational macros; values crossing cycle
      boundaries get pipeline registers (a shift register when consumed
      several cycles later);
    - under the baseline flow a broadcast value is one raw net from its
      producer to every same-cycle reader — mid-chain, where phys_opt
      cannot replicate it (§3.1);
    - under the broadcast-aware flow, values the scheduler re-timed travel
      through pipelined fanout trees, which the placement refinement turns
      into geometric waypoints (§4.1's register insertion);
    - buffers expand to their physical BRAM units with a write broadcast
      and a read mux tree (Fig. 4);
    - stall-based control drives one [Ctrl_pipeline] net from the FIFO
      status logic to *every* sequential cell of the kernel (Fig. 8), while
      skid control keeps the pipeline free-running behind local gates and
      bounded skid FIFOs (§4.3). *)

type t = {
  lw_name : string;
  lw_depth : int;  (** pipeline stages *)
  lw_done : int;  (** cell producing the kernel's done/last-valid flag *)
  lw_start_sinks : int list;  (** cells a controller's start must reach *)
  lw_fifo_write_ifaces : (string * int * int) list;
      (** (fifo name, interface cell, width) for cross-kernel channels *)
  lw_fifo_read_ifaces : (string * int * int) list;
  lw_skid_bits : int;  (** bits of skid buffering added (0 under stall) *)
  lw_registers_added : int;  (** §4.1 register modules inserted *)
}

type template
(** What {!stamp} needs of a lowered kernel: its cell and net slice of the
    netlist, and where its names spell its own symbols. *)

val lower :
  Hlsb_device.Device.t ->
  Hlsb_netlist.Netlist.t ->
  pipe:Hlsb_ctrl.Style.pipeline_ctrl ->
  fanout_trees:bool ->
  Hlsb_sched.Schedule.t ->
  t * template
(** Appends the kernel's cells/nets to the given netlist, and returns
    what {!stamp} needs to append them again for another member of the
    kernel's class. [fanout_trees] enables the §4.1 pipelined broadcast
    trees (on for broadcast-aware recipes, off for the baseline). *)

val stamp : Hlsb_netlist.Netlist.t -> template -> Hlsb_sched.Schedule.t -> t
(** [stamp nl tp sched] appends what {!lower} would append for [sched]'s
    kernel, as a copy of [tp]'s slice ({!Hlsb_netlist.Netlist.copy_slice}):
    the same cells and nets shifted to the end of [nl], named with the
    kernel's own ["<kernel>."] prefix, and with its own input, output,
    FIFO and buffer names spliced in where the representative's were
    (looked up by node, FIFO or buffer id, never searched for), and the
    cell ids that end register-chain link names shifted like the cells. The
    result is shifted the same way and carries the kernel's own name and
    FIFO interface names.

    [sched] must share the representative's schedule entries (what
    {!Hlsb_sched.Schedule.rebind} returns), else [Invalid_argument]; its
    kernel must have the representative's structure
    ({!Hlsb_ir.Dag.same_structure}), which that sharing implies. Counts
    [lower.kernels_stamped]; a traced stamp is a [lower] span with a
    [stamped_from] attribute naming the representative. *)

val reserve_stamps :
  Hlsb_netlist.Netlist.t -> template -> Hlsb_sched.Schedule.t list -> unit
(** Reserve room in the netlist for one {!stamp} of each schedule, name
    bytes included (their cell ids counted as if the stamps came back to
    back), so the stamps grow no buffer. Raises [Invalid_argument] as
    {!stamp} does. *)
