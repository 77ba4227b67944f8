(** Canonical multi-cell structures shared by the RTL generator and the
    skeleton-design characterizer, so "a large buffer" or "an all-dones
    tree" means exactly the same netlist in both places.

    A logical buffer larger than one BRAM18 becomes several physically
    scattered memory units (Fig. 4): writes broadcast the data/address to
    every unit; reads come back through a LUT mux tree. *)

type membank = {
  mb_units : int array;  (** Mem cell ids, one per BRAM18 *)
  mb_read_out : int;  (** cell whose output is the read data *)
  mb_n_units : int;
  mb_read_latency : int;  (** registered mux levels (0 when combinational) *)
}

val add_membank :
  Hlsb_device.Device.t ->
  Netlist.t ->
  ?read_pipeline:bool ->
  name:string ->
  width:int ->
  depth:int ->
  unit ->
  membank
(** Adds the memory units plus the read-side cascade-mux tree. With
    [read_pipeline] (default false), the BRAM output registers are enabled
    and each mux level is registered — the extra read latency §4.1 budgets
    for large buffers; the registers cost no fabric (they are in the BRAM
    macro). The caller connects
    write data/address nets to [mb_units] (typically one net fanning out to
    all of them, class [Data_broadcast]) and reads from [mb_read_out]. *)

val connect_write :
  Netlist.t -> name:string -> driver:int -> membank -> width:int -> int
(** One [Data_broadcast] net from [driver] to every memory unit. *)

val add_and_tree :
  Hlsb_device.Device.t ->
  Netlist.t ->
  name:string ->
  inputs:int list ->
  int
(** Balanced 6-input AND reduction over the given driver cells; returns the
    root cell. Nets are classed [Ctrl_sync]. For a single input, returns it
    unchanged. Raises [Invalid_argument] on an empty list. *)

val add_register : ?name:string -> Netlist.t -> width:int -> int
(** A [Seq] register bank cell, named like {!Netlist.add_cell}. *)

val add_reg_chain :
  Netlist.t -> name:string -> width:int -> length:int -> int list
(** [length] registers connected in series; returns the cell ids in order.
    Used for balancing/pipelining delays. The registers are named
    [name ^ "_" ^ i]; the link out of a register is named [name ^ "_link"]
    followed by that register's cell id. *)

val add_fanout_tree :
  Netlist.t ->
  name:string ->
  driver:int ->
  sinks:int array ->
  width:int ->
  levels:int ->
  leaf_fanout:int ->
  int
(** Pipelined register fanout tree from [driver] to [sinks]: [levels]
    register stages, the last of which is ceil(|sinks| / leaf_fanout)
    duplicate registers each driving a contiguous group of sinks. This is
    the structure phys_opt/retiming produces when §4.1's register insertion
    gives it the latency budget: each clock period pays one tree segment
    instead of the whole broadcast. Returns the number of register stages
    actually inserted (= [levels], for latency accounting). Raises
    [Invalid_argument] if [levels < 1], [leaf_fanout < 1] or [sinks] is
    empty. *)
