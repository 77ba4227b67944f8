(** Topology-driven placement onto the device slice grid.

    Cells are visited in construction order (which the RTL generators emit
    in dataflow order) and packed along a Hilbert space-filling curve over
    the slice grid, so logically adjacent cells land physically adjacent —
    the outcome a timing-driven placer converges to, without its cost.

    A refinement pass then pulls light register cells to the midpoint of
    their drivers and sinks (what a timing-driven placer and phys_opt do):
    a chain of registers inserted across a long route settles at evenly
    spaced waypoints, so pipelining a broadcast genuinely divides its wire
    delay across cycles — the physical mechanism behind §4.1's register
    insertion.

    The property the timing model needs from placement is: a net whose
    sinks occupy total slice area S has a bounding box of half-perimeter
    Θ(√S) — large broadcasts spread over the die and pay wire delay that
    grows with the square root of the broadcast factor (Fig. 9). *)

type t

val place : Hlsb_device.Device.t -> Hlsb_netlist.Netlist.t -> t
(** Pack, then refine with up to 24 alternating relax sweeps, stopping at
    the first sweep whose largest position update is exactly zero (a
    fixpoint, so the result is bit-identical to running every sweep).
    Each cell's relax {!shape} is fixed before the sweeps, and the common
    shapes run straight-line bodies that compute the general rule's bits.
    Packing walks the curve in aligned blocks, stops at 16x16 blocks that
    lie wholly on the die and takes a cell's points of such a block from
    a prefix-sum table of the canonical 16x16 curve, so each cell costs
    O(1) walk steps ({!pack_steps}) plus the die-edge blocks it meets.
    Raises [Hlsb_util.Diag.Diagnostic] (stage ["place"], entity [Design])
    naming the device and the capacity constraint if the design does not
    fit. *)

val pack_steps : t -> int
(** Iterations of {!place}'s block walk: about one per cell, plus one per
    die-edge block and per 16x16 block a cell runs into. *)

val relaxes : t -> int
(** Relax steps {!place} ran: movable cells times sweeps run. *)

val n_shapes : int
(** Relax shapes are [0 .. n_shapes - 1]. *)

val shape : t -> int -> int
(** The relax shape {!place} gave a cell, chosen by its kind, footprint
    and degrees (fanin arcs, fanout arcs) alone: 0 fixed (Mem, ports,
    cells over 64 slices, no fanin or no fanout); straight-line bodies 1
    register (1,1), 2 register (2,1), 3 register (2,3), 4 comb (2,1), 5
    comb (1,1); general loops 6 register and 8 comb with both degrees
    powers of two up to 64 (they multiply by reciprocals), 7 any other
    register and 9 any other comb (they divide). Every shape computes the
    same bits as the general rule. *)

val hilbert_d2xy : int -> int -> int
(** [hilbert_d2xy n d] is the point at index [d] of the Hilbert curve over
    an [n] x [n] grid ([n] a power of two), packed as [x * n + y]. The
    reference for {!place}'s packing: cell k takes the next
    [footprint_slices] on-die points of this curve after cell k-1's, and
    its centroid is their mean. [hilbert_d2xy 16] is also the canonical
    curve whose prefix sums {!place} reads inside a 16x16 block; the block's
    signed permutation and offset map it onto the grid. *)

val fanin : t -> Hlsb_netlist.Netlist.fanin
(** The placed netlist's fanin arcs ({!Hlsb_netlist.Netlist.arcs}), built
    once by {!place} and read by the STA. *)

val position : t -> int -> float * float
(** Centroid of a placed cell in slice-grid units. *)

val coords : t -> float array * float array
(** The live x and y coordinate arrays (indexed by cell), for per-cell loops
    that would otherwise build a {!position} tuple per cell. Read-only:
    move cells with {!set_position}. *)

val set_position : t -> int -> float * float -> unit
(** Move one cell (ECO-style nudge between STA queries). The placement's
    wire-length queries see the new centroid immediately; pair with
    [Timing.refresh] to re-time only the nets the move touched. *)

val footprint_slices : t -> int -> int
(** Slices occupied by a cell (1 minimum; BRAM/DSP cells report their site
    count scaled to slice-equivalents for bbox purposes). *)

val star_length : t -> int -> float
(** Source-to-farthest-sink Manhattan distance plus the pins' mean spread
    radius ([sqrt] of the footprint), in slice-grid units: the length of
    the longest branch of the routed net, which is what its delay
    follows. For two-pin nets this is the Manhattan distance plus the
    radius; for star-shaped nets it avoids the bounding-box overestimate.
    Sinkless nets have length 0. {!Hlsb_netlist.Netlist.star_length} over
    the current positions. *)

val star_lengths : t -> float array -> unit
(** [star_lengths t out] sets [out.(n)] to [star_length t n] for every
    net, bit for bit, in one pass over the netlist's sink CSR
    ({!Hlsb_netlist.Netlist.star_lengths}). *)

val max_extent : t -> float
(** Largest coordinate used; must be within the die (tests). *)
