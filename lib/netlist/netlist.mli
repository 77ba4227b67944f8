(** Macro-cell netlist: the RTL that HLS emits, at the granularity the
    timing analysis needs. A cell is one datapath operator, register bank,
    BRAM bank, DSP block, or control-logic macro; a net connects one driver
    to its sinks. Broadcast structures are simply nets with large sink
    lists — whether they came from the datapath (§3.1) or from control
    (§3.2/3.3) is recorded in [net_class] so reports can attribute timing
    failures to a broadcast category. *)

type resources = {
  r_luts : int;
  r_ffs : int;
  r_bram18 : int;
  r_dsps : int;
}

val zero_res : resources
val add_res : resources -> resources -> resources

type cell_kind =
  | Comb  (** combinational macro (operator, mux, and-tree level) *)
  | Seq  (** register bank: path endpoint + startpoint *)
  | Mem  (** BRAM bank with synchronous read: sequential for timing *)
  | Port_in
  | Port_out

type net_class =
  | Data  (** ordinary datapath net *)
  | Data_broadcast  (** datapath net known to be a §3.1 broadcast source *)
  | Ctrl_sync  (** §3.2 synchronization (done/start) net *)
  | Ctrl_pipeline  (** §3.3 pipeline flow-control (stall/enable) net *)

(** {2 Storage}

    One store of byte columns, filled by appends: per cell its kind (one
    byte), its intrinsic delay (ns, in a float array; Seq clk->q is the
    device's) and its four resource counts; per net its driver, width and
    class (one byte), plus one sink CSR (per-net offsets into one sink
    column, each net's sinks in the order they were given). Every other
    int is a 32-bit entry: a resource count or width outside the 32-bit
    range is rejected ([Invalid_argument]) with the store unchanged. A
    full column grows to at least twice its size, by a fresh block and a
    memcpy of its live prefix. Nothing is boxed per cell or per net, so a
    finished netlist is a dozen flat blocks, not a heap of records.

    Names live in one byte arena of fixed-size chunks (the first grows by
    doubling until it reaches that size; later ones are added whole, so
    the arena never copies what it holds), with a (start, stop) offset
    pair per cell and per net. A name is written as pieces ({!name_str},
    {!name_int}) straight into the arena, and the next {!add_cell} or
    {!add_net} seals the pieces written since the previous add, followed
    by its [?name] tail, as that entity's name. So [add_cell nl ~name:"a.b"
    ...] names a cell ["a.b"], and so does [name_str nl "a."; add_cell nl
    ~name:"b" ...]. No per-name string is allocated; {!cell_name} and
    {!net_name} spell one when it is read (exports, critical-path reports,
    diagnostics).

    A net's sinks may be written the same way: {!push_sink} appends them
    one by one past the CSR's live end, and the next {!add_net} seals them,
    followed by its [~sinks] list. A rejected add discards the pending
    pieces, names and sinks alike. *)

type t

val create : name:string -> t
val name : t -> string

val name_str : t -> string -> unit
(** Append a literal piece to the name being written. *)

val name_int : t -> int -> unit
(** Append an int's decimal spelling ([string_of_int]'s) to the name being
    written. *)

val add_cell :
  ?name:string ->
  t ->
  kind:cell_kind ->
  delay:float ->
  res:resources ->
  int
(** Raises [Invalid_argument] on a negative delay or a resource count
    outside the 32-bit range, discarding the pieces written for it. *)

val push_sink : t -> int -> unit
(** Append a sink to the net being written. Raises [Invalid_argument] on
    an unknown cell, discarding the pending pieces. *)

val add_net :
  ?cls:net_class ->
  ?name:string ->
  t ->
  driver:int ->
  sinks:int list ->
  width:int ->
  unit ->
  int
(** Raises [Invalid_argument] on out-of-range cells, a width outside
    [1 .. 2^31 - 1], or a driver that is an output port, discarding the
    pieces written for it.
    Empty sink lists are allowed (dangling nets are legal RTL and are
    ignored by timing). *)

val reserve : t -> cells:int -> nets:int -> sinks:int -> name_bytes:int -> unit
(** Make room for that many more cells, nets, sinks and name bytes, so the
    appends that follow grow no column. A column that must grow at least
    doubles, and takes a quarter more than it needs, so that a few appends
    past the reservation (channel wiring, controllers) still fit. *)

(** {2 Slices}

    A run of appends can be appended again as a shifted copy ("stamp"):
    this is how a replicated kernel is lowered once and copied for each
    other member of its class. *)

type mark = {
  m_cells : int;  (** cells added so far *)
  m_nets : int;  (** nets added so far *)
  m_sinks : int;  (** their sinks *)
  m_names : int;  (** the end of their names in the arena *)
}
(** The store's ends at one moment. Between two marks lie a slice's
    [upto.m_cells - from.m_cells] cells, and so on for nets, sinks and
    name bytes. *)

val mark : t -> mark

type splice = {
  sp_net : bool;  (** the names of nets, else of cells *)
  sp_lo : int;
  sp_hi : int;
      (** entities [sp_lo .. sp_hi - 1], counted from the slice's start *)
  sp_tail : bool;
      (** replace the name's last [sp_len] bytes, else the [sp_len] bytes
          right after the dropped prefix *)
  sp_len : int;
  sp_with : string;
}
(** One byte range of a name to replace in the copy. *)

val copy_name_bytes :
  from:mark -> upto:mark -> drop:int -> prefix:string -> splices:splice list -> int
(** The name bytes {!copy_slice} appends for these arguments. *)

val copy_slice :
  t ->
  from:mark ->
  upto:mark ->
  drop:int ->
  prefix:string ->
  splices:splice list ->
  unit
(** [copy_slice t ~from ~upto ~drop ~prefix ~splices] appends a copy of
    the cells and nets added between the two marks. The copy's cells come
    in the same order, with the same kinds, delays and resources. Its nets
    come in the same order, with the same widths, classes and sink order;
    each driver and sink is shifted by the id offset from the slice's
    first cell to the copy's. Each name loses its first [drop] bytes and
    gains [prefix], and an entity inside a splice's range gets that splice
    applied. The bytes are copied, never searched.

    Each column is reserved once for the whole copy. The splices of one
    kind must be sorted by [sp_lo] and disjoint; a name takes at most one.
    Raises [Invalid_argument], leaving [t] unchanged, when a name or net is
    being written (pending pieces), when the marks do not bound a slice of
    [t], when the copy would take the cell count, the sink CSR or the name
    arena past the 32-bit range, when a net of the slice reaches a cell
    outside it, or when a name is shorter than [drop] plus its splice's
    [sp_len]. *)

val n_cells : t -> int
val n_nets : t -> int

(** Per-cell fields; each raises [Invalid_argument] on an unknown cell. *)

val kind : t -> int -> cell_kind
val delay : t -> int -> float
(** Intrinsic logic delay, ns. *)

val delays : t -> float array
(** Every cell's {!delay}, in a fresh array: per-cell loops index it
    instead of calling {!delay}, whose float is boxed across the call. *)

val luts : t -> int -> int
val ffs : t -> int -> int
val bram18 : t -> int -> int
val dsps : t -> int -> int
val cell_name : t -> int -> string

val slice_footprints : t -> Hlsb_device.Device.t -> int array
(** Every cell's packing footprint on a device, in a fresh array: the
    larger of its LUT and FF slice counts, plus 3 slices per DSP and 5 per
    BRAM18, and at least 1. *)

val star_length :
  t -> xs:float array -> ys:float array -> radius:float array -> int -> float
(** [star_length t ~xs ~ys ~radius n] is the wire model's length of net
    [n] for cells at ([xs.(c)], [ys.(c)]) of spread radius [radius.(c)]:
    the largest Manhattan distance from the driver to a sink, plus the
    mean radius over the driver and the sinks (a sink listed twice counts
    twice). The distances are folded in sink order with [Stdlib.max]'s
    tie-break, and the radii summed driver first. A sinkless net has
    length 0. Raises [Invalid_argument] on an unknown net or an array
    shorter than the cells. *)

val star_lengths :
  t -> xs:float array -> ys:float array -> radius:float array -> float array -> unit
(** [star_lengths t ~xs ~ys ~radius out] sets [out.(n)] to
    [star_length t ~xs ~ys ~radius n] for every net, bit for bit, in one
    pass over the sink CSR. Raises [Invalid_argument] if an array is
    shorter than the cells, or [out] than the nets. *)

(** Per-net fields; each raises [Invalid_argument] on an unknown net. *)

val driver : t -> int -> int
val width : t -> int -> int
val net_class : t -> int -> net_class
val net_name : t -> int -> string

val fanout : t -> int -> int
(** Sink count of a net. *)

val sink : t -> int -> int -> int
(** [sink t n k]: the [k]-th sink of net [n], [0 <= k < fanout t n]. *)

val max_fanout_net : t -> ?cls:net_class -> unit -> int option
(** The highest-fanout net (the first such), optionally restricted to one
    class. *)

val total_resources : t -> resources

val utilization : t -> Hlsb_device.Device.t -> float * float * float * float
(** (lut, ff, bram, dsp) utilization as fractions of the device. *)

(** {2 Connectivity}

    The one per-cell view of the nets. Sink [s] of net [n] is one arc: a
    fanin arc of [s] (the driver of [n], and [n]) and a fanout arc of that
    driver ([s]). A sink listed twice gives two arcs; a sinkless net gives
    none. Placement, timing and {!validate} all read this view; nothing
    else rebuilds it.

    Order invariant: the nets are walked forward, each net's sinks in
    array order, and every cell's slice is filled back to front. A slice
    read front to back therefore lists its arcs in reverse net-encounter
    order. Placement's centroid sums and the STA's strict [>] tie-breaks
    fold slices front to back, so their floats and critical paths depend
    on this order, and it must not change. *)

type fanin = {
  in_off : int array;
      (** [n_cells + 1] offsets: cell [c]'s fanin arcs are
          [in_off.(c) .. in_off.(c + 1) - 1] *)
  in_driver : int array;  (** per arc: the net's driver *)
  in_net : int array;  (** per arc: the net *)
}

type arcs = {
  fanin : fanin;
  out_off : int array;  (** [n_cells + 1] offsets into [out_sink] *)
  out_sink : int array;  (** per fanout arc: the sink it reaches *)
}

val arcs : t -> arcs
(** Both halves in one pair of passes over the nets. The arrays are
    fresh; the netlist does not keep them. *)

val validate : t -> (unit, string) result
(** Checks that no combinational cycle exists (walking Comb cells through
    their Comb fanin arcs). Net endpoints need no check: {!add_net} only
    ever records cells that exist. *)

