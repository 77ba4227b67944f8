module Device = Hlsb_device.Device
module Netlist = Hlsb_netlist.Netlist
module Diag = Hlsb_util.Diag

(* Positions live in parallel unboxed float arrays (not an array of
   (float * float) tuples): the relax sweeps and the wire-length queries
   below are the hottest loops in the whole flow, and flat arrays read and
   write without chasing or allocating a box per access. *)
type t = {
  netlist : Netlist.t;
  fanin : Netlist.fanin;  (* the arcs STA reads; the fanout half is dropped *)
  xs : float array;
  ys : float array;
  fp : int array;
  shape : Bytes.t;  (* relax shape per cell, see [shape_of] *)
  sq : float array;
      (* sqrt (float fp) per cell: the spread radius folded into every
         wire-length query, precomputed once instead of per net per STA *)
  max_extent : float;  (* largest slice coordinate the packer claimed *)
  pack_steps : int;  (* iterations of the packer's block walk *)
  relaxes : int;  (* movable cells x sweeps run *)
}

(* Hilbert curve index -> point on a 2^k x 2^k grid, packed as [x * n + y];
   contiguous index runs map to compact 2D regions, giving nets over
   contiguously-placed cells a bounding box of half-perimeter
   Theta(sqrt(area)). [place] walks the same curve block by block and
   reads the points of a 16x16 block from [pref] below; this per-point
   form is the reference for both. *)
let hilbert_d2xy n d =
  let x = ref 0 and y = ref 0 and t = ref d and s = ref 1 in
  while !s < n do
    let rx = 1 land (!t / 2) in
    let ry = 1 land (!t lxor rx) in
    if ry = 0 then begin
      (* rotate: reflect when rx = 1, then swap *)
      let x0 = if rx = 1 then !s - 1 - !x else !x in
      x := if rx = 1 then !s - 1 - !y else !y;
      y := x0
    end;
    x := !x + (!s * rx);
    y := !y + (!s * ry);
    t := !t / 4;
    s := 2 * !s
  done;
  (!x * n) + !y

(* Monomorphic integer extrema, free of [Stdlib.max]'s polymorphic
   compare. *)
let imax (a : int) b = if a >= b then a else b

let imin (a : int) b = if a <= b then a else b

let pow2_deg k = k <= 64 && k land (k - 1) = 0

(* Relax shape per cell, one byte each, fixed once before the sweeps: the
   relax rule (register or comb) and, for the common cells, the degrees
   (fanin, fanout) too. A shape with fixed degrees runs a straight-line
   body: the general rule's operations in its order, the arcs summed from
   [0.] in CSR order, with its constants folded. Every other movable cell
   (light, with fanin and fanout) runs the general loops, still picking
   the cheapest arithmetic that gives the general formula's bits: dividing
   by 2^j and multiplying by 2^-j round the same real number, so
   power-of-two degrees multiply by [recip] instead of dividing. Shapes go
   by degree alone; the sweep dispatches on the byte with one jump.

   Byte values (the [match] in [place] spells them as literals):
   0 fixed; straight-line bodies 1 register (1,1), 2 register (2,1),
   3 register (2,3), 4 comb (2,1), 5 comb (1,1); general loops
   6 register with both degrees powers of two <= 64, 7 other register,
   8 comb with both degrees powers of two <= 64, 9 other comb. *)
let n_shapes = 10

let shape_of ~seq ki ko =
  let pow2 = pow2_deg ki && pow2_deg ko in
  if seq then
    match (ki, ko) with
    | 1, 1 -> 1
    | 2, 1 -> 2
    | 2, 3 -> 3
    | _ -> if pow2 then 6 else 7
  else
    match (ki, ko) with
    | 2, 1 -> 4
    | 1, 1 -> 5
    | _ -> if pow2 then 8 else 9

(* [recip.(k)] is read for powers of two only; [sqrt_deg.(k)] holds the
   same [sqrt] the general register rule computes. The register shapes'
   weights and weight sums are those same values, summed once here. *)
let recip = Array.init 65 (fun k -> 1. /. float_of_int k)
let sqrt_deg = Array.init 65 (fun k -> sqrt (float_of_int k))
let sqrt2 = sqrt_deg.(2)
let sqrt3 = sqrt_deg.(3)
let w21 = sqrt2 +. sqrt_deg.(1)
let w23 = sqrt2 +. sqrt3

(* Unchecked reads for the packer and the sweeps, monomorphic so they stay
   unboxed: every index there is a [pref] entry of a run within one block,
   a cell id, an arc offset of {!Netlist.arcs}' CSR, or a power-of-two
   degree of at most 64, all in range by construction. *)
let fget (a : float array) i = Array.unsafe_get a i
let iget (a : int array) i = Array.unsafe_get a i

(* The level at which the packer stops descending: a block of
   [4^pack_level] points lying wholly on the die is taken a run of points
   at a time. [pref.(2k)] and [pref.(2k + 1)] are the x and y sums of the
   first [k] points of the canonical [2^pack_level]-square curve; built
   once here and never written, so packing keeps no state between calls. *)
let pack_level = 4
let pack_points = 1 lsl (2 * pack_level)

let pref =
  let w = 1 lsl pack_level in
  let p = Array.make (2 * (pack_points + 1)) 0 in
  for i = 0 to pack_points - 1 do
    let h = hilbert_d2xy w i in
    p.((2 * i) + 2) <- p.(2 * i) + (h / w);
    p.((2 * i) + 3) <- p.((2 * i) + 1) + (h mod w)
  done;
  p

(* Refinement sweeps run when the placement never settles. *)
let max_sweeps = 24

let place (d : Device.t) nl =
  let n = Netlist.n_cells nl in
  let xs = Array.create_float n in
  let ys = Array.create_float n in
  let sq = Array.create_float n in
  let fp = Netlist.slice_footprints nl d in
  let side, levels =
    let rec grow k l = if k >= d.cols && k >= d.rows then (k, l) else grow (2 * k) (l + 1) in
    grow 1 0
  in
  let total_points = side * side in
  let capacity = d.cols * d.rows in
  let used = ref 0 in
  let extent = ref 0 in
  (* The packer walks the curve in aligned blocks instead of calling
     [hilbert_d2xy] once per slice. [g] holds, per level j, the affine map
     G_j (a signed permutation and an offset: six ints) from the level-j
     sub-square that contains index [cur] to the grid: G_levels is the
     identity and G_j = G_(j+1) o F_j, with F_j [hilbert_d2xy]'s step for
     digit j of [cur]. Invariant: G_j is valid for every j >= [lvl], and
     [cur] is a multiple of 4^lvl, so indices [cur, cur + 4^lvl) fill the
     aligned square G_lvl([0, 2^lvl)^2).

     Above [pack_level] a block wholly off-die is skipped and one wholly
     on-die that fits the cell's remainder is summed in closed form; any
     other block is split. A [pack_level] block wholly on-die is never
     split: the walk stays on it with [off] of its points claimed, and a
     cell that takes [k] more adds G's permutation times [pref]'s sums of
     points [off, off + k), plus [k] times G's offset. So a cell costs
     O(1) steps beyond the die-edge blocks it meets. Blocks that cross
     the die edge descend to single points, as the reference does. *)
  let g = Array.make (6 * (levels + 1)) 0 in
  g.(6 * levels) <- 1;
  g.((6 * levels) + 3) <- 1;
  (* F_j for digits 0..3 (s = 2^j) maps (x, y) to (y, x), (x, y + s),
     (x + s, y + s) and (2s - 1 - y, s - 1 - x). *)
  let compose j digit =
    let s = 1 lsl j and o = 6 * j and p = (6 * j) + 6 in
    let a = g.(p) and b = g.(p + 1) and c = g.(p + 2) and e = g.(p + 3) in
    let tx = match digit with 0 | 1 -> 0 | 2 -> s | _ -> (2 * s) - 1
    and ty = match digit with 0 -> 0 | 3 -> s - 1 | _ -> s in
    g.(o + 4) <- (a * tx) + (b * ty) + g.(p + 4);
    g.(o + 5) <- (c * tx) + (e * ty) + g.(p + 5);
    if digit = 0 || digit = 3 then begin
      let sgn = if digit = 3 then -1 else 1 in
      g.(o) <- sgn * b;
      g.(o + 1) <- sgn * a;
      g.(o + 2) <- sgn * e;
      g.(o + 3) <- sgn * c
    end
    else begin
      g.(o) <- a;
      g.(o + 1) <- b;
      g.(o + 2) <- c;
      g.(o + 3) <- e
    end
  in
  let cur = ref 0 and lvl = ref levels and off = ref 0 and steps = ref 0 in
  for id = 0 to n - 1 do
    let s = fp.(id) in
    if !used + s > capacity then
      Diag.fail
        ~entity:(Diag.Design (Netlist.name nl))
        ~stage:"place"
        "design does not fit device %s: cell %s needs %d slice(s) but only \
         %d of %d remain (%d x %d slice grid)"
        d.name (Netlist.cell_name nl id) s (capacity - !used) capacity d.cols
        d.rows;
    used := !used + s;
    sq.(id) <- sqrt (float_of_int s);
    (* Integer sums of the cell's slice coordinates: every partial sum is
       below 2^53, so the centroid equals per-slice float accumulation bit
       for bit. *)
    let sx = ref 0 and sy = ref 0 and r = ref s in
    while !r > 0 do
      (* the capacity check leaves at most [capacity] slices to claim,
         and the curve visits every on-die slice *)
      assert (!cur < total_points);
      incr steps;
      let o = 6 * !lvl and w = 1 lsl !lvl in
      let x0 = g.(o + 4) - if g.(o) + g.(o + 1) < 0 then w - 1 else 0
      and y0 = g.(o + 5) - if g.(o + 2) + g.(o + 3) < 0 then w - 1 else 0 in
      let on_die = x0 + w <= d.cols && y0 + w <= d.rows in
      (* points of the current block to step past: 0 to stay on it *)
      let past =
        if x0 >= d.cols || y0 >= d.rows then w * w (* wholly off-die *)
        else if on_die && !lvl = pack_level then begin
          let k = imin !r (pack_points - !off) in
          let p = 2 * !off and q = 2 * (!off + k) in
          let px = iget pref q - iget pref p and py = iget pref (q + 1) - iget pref (p + 1) in
          sx := !sx + (g.(o) * px) + (g.(o + 1) * py) + (k * g.(o + 4));
          sy := !sy + (g.(o + 2) * px) + (g.(o + 3) * py) + (k * g.(o + 5));
          r := !r - k;
          off := !off + k;
          if !off < pack_points then 0
          else begin
            off := 0;
            extent := imax !extent (imax x0 y0 + w - 1);
            w * w
          end
        end
        else if on_die && w * w <= !r then begin
          sx := !sx + (w * ((w * x0) + (w * (w - 1) / 2)));
          sy := !sy + (w * ((w * y0) + (w * (w - 1) / 2)));
          r := !r - (w * w);
          extent := imax !extent (imax x0 y0 + w - 1);
          w * w
        end
        else begin
          (* straddles the die edge or exceeds the remainder: descend *)
          decr lvl;
          compose !lvl 0;
          0
        end
      in
      if past > 0 then begin
        cur := !cur + past;
        (* the next block starts at the new index's lowest nonzero digit,
           the only level whose map changed *)
        while !lvl < levels && (!cur lsr (2 * !lvl)) land 3 = 0 do
          incr lvl
        done;
        if !lvl < levels then compose !lvl ((!cur lsr (2 * !lvl)) land 3)
      end
    done;
    xs.(id) <- float_of_int !sx /. float_of_int s;
    ys.(id) <- float_of_int !sy /. float_of_int s
  done;
  (* the last cell may leave a block partly claimed: its claimed points
     count toward the extent once, here *)
  if !off > 0 then begin
    let o = 6 * pack_level in
    for i = 0 to !off - 1 do
      let px = pref.((2 * i) + 2) - pref.(2 * i) and py = pref.((2 * i) + 3) - pref.((2 * i) + 1) in
      let x = (g.(o) * px) + (g.(o + 1) * py) + g.(o + 4)
      and y = (g.(o + 2) * px) + (g.(o + 3) * py) + g.(o + 5) in
      extent := imax !extent (imax x y)
    done
  end;
  (* Register refinement: a timing-driven placer (and phys_opt) pulls light
     register cells to the midpoint between their driver and their sinks, so
     a chain of pipeline registers inserted across a long route settles at
     evenly spaced waypoints — each clock period then pays only a segment of
     the total distance. Heavy cells (logic macros, BRAM, DSP) stay where
     the packer put them.

     The sweeps read the netlist's arcs ({!Netlist.arcs}): flat CSR int
     arrays, so the 24 sweeps below never touch a list, in the order that
     keeps float summation, and hence every position, bit-identical. *)
  let { Netlist.fanin; out_off; out_sink } = Netlist.arcs nl in
  let { Netlist.in_off; in_driver; _ } = fanin in
  let shape = Bytes.make n '\000' in
  let movable = ref 0 in
  for id = 0 to n - 1 do
    let ki = in_off.(id + 1) - in_off.(id) and ko = out_off.(id + 1) - out_off.(id) in
    if fp.(id) <= 64 && ki > 0 && ko > 0 then
      match Netlist.kind nl id with
      | (Netlist.Seq | Netlist.Comb) as k ->
        incr movable;
        Bytes.unsafe_set shape id (Char.unsafe_chr (shape_of ~seq:(k = Netlist.Seq) ki ko))
      | Netlist.Mem | Netlist.Port_in | Netlist.Port_out -> ()
  done;
  (* Light combinational cells (muxes, reduce-tree nodes) are likewise
     pulled toward their pin centroid but stay 10% anchored to their packed
     slot, so gather structures sit near their operands without collapsing
     the global spread that the broadcast wire model depends on. The two
     rules interleave until positions settle. *)
  let slot_x = Array.copy xs in
  let slot_y = Array.copy ys in
  (* Sweeps alternate direction (Gauss-Seidel): long register chains relax
     to evenly spaced waypoints in a few passes instead of diffusing one
     hop per pass.

     Convergence gate: a sweep that changes no coordinate (positions are
     finite, so this is the sweep whose largest update is exactly zero) is
     a fixpoint — every later sweep would recompute the same centroids
     from the same positions — so stopping there is provably equivalent
     to running all [max_sweeps]. Designs that settle early
     (the characterize skeletons settle in 2-3 sweeps; 100k-cell bigmul
     netlists in far fewer than 24) skip the dead sweeps; designs that
     never settle run exactly the historical count, bit-identically.

     Star-model equilibrium: a register settles at the pin-count weighted
     centroid, so a fanout-tree leaf sits with its sinks while a 1-in/1-out
     chain register sits at the midpoint; sqrt weighting balances hop
     delays along pipelined chains while still pulling multi-sink leaves
     toward their cluster. Combinational cells hug their *sources* (gather
     trees sit at their operand clusters; downstream registers carry the
     distance), with a slight slot anchor so packed structure is not fully
     erased. In the bodies with fixed degrees a fanout of 1 makes the sink
     sum's reciprocal and weight 1, and [x *. 1.] is [x] on finite floats,
     so those factors are left out. *)
  let sweep = ref 1 in
  let settled = ref false in
  while !sweep <= max_sweeps && not !settled do
    let moved = ref false in
    let forward = !sweep mod 2 = 1 in
    for j = 0 to n - 1 do
      let id = if forward then j else n - 1 - j in
      let s = Char.code (Bytes.unsafe_get shape id) in
      if s <> 0 then begin
        let nx = ref 0. and ny = ref 0. in
        let ia = iget in_off id and oa = iget out_off id in
        (match s with
        | 1 ->
          (* register (1,1): weights 1 and 1, so a halved sum *)
          let p = iget in_driver ia and q = iget out_sink oa in
          nx := (0. +. fget xs p +. (0. +. fget xs q)) *. 0.5;
          ny := (0. +. fget ys p +. (0. +. fget ys q)) *. 0.5
        | 2 ->
          (* register (2,1) *)
          let p0 = iget in_driver ia and p1 = iget in_driver (ia + 1) in
          let q = iget out_sink oa in
          nx := ((0. +. fget xs p0 +. fget xs p1) *. 0.5 *. sqrt2 +. (0. +. fget xs q)) /. w21;
          ny := ((0. +. fget ys p0 +. fget ys p1) *. 0.5 *. sqrt2 +. (0. +. fget ys q)) /. w21
        | 3 ->
          (* register (2,3): the sink sum divides by 3 *)
          let p0 = iget in_driver ia and p1 = iget in_driver (ia + 1) in
          let q0 = iget out_sink oa and q1 = iget out_sink (oa + 1) in
          let q2 = iget out_sink (oa + 2) in
          let isx = 0. +. fget xs p0 +. fget xs p1 and isy = 0. +. fget ys p0 +. fget ys p1 in
          let osx = 0. +. fget xs q0 +. fget xs q1 +. fget xs q2
          and osy = 0. +. fget ys q0 +. fget ys q1 +. fget ys q2 in
          nx := ((isx *. 0.5 *. sqrt2) +. (osx /. 3. *. sqrt3)) /. w23;
          ny := ((isy *. 0.5 *. sqrt2) +. (osy /. 3. *. sqrt3)) /. w23
        | 4 ->
          (* comb (2,1) *)
          let p0 = iget in_driver ia and p1 = iget in_driver (ia + 1) in
          let q = iget out_sink oa in
          let cx = (0.65 *. ((0. +. fget xs p0 +. fget xs p1) *. 0.5)) +. (0.35 *. (0. +. fget xs q))
          and cy = (0.65 *. ((0. +. fget ys p0 +. fget ys p1) *. 0.5)) +. (0.35 *. (0. +. fget ys q)) in
          nx := (0.1 *. fget slot_x id) +. (0.9 *. cx);
          ny := (0.1 *. fget slot_y id) +. (0.9 *. cy)
        | 5 ->
          (* comb (1,1) *)
          let p = iget in_driver ia and q = iget out_sink oa in
          let cx = (0.65 *. (0. +. fget xs p)) +. (0.35 *. (0. +. fget xs q))
          and cy = (0.65 *. (0. +. fget ys p)) +. (0.35 *. (0. +. fget ys q)) in
          nx := (0.1 *. fget slot_x id) +. (0.9 *. cx);
          ny := (0.1 *. fget slot_y id) +. (0.9 *. cy)
        | _ ->
          let ib = iget in_off (id + 1) and ob = iget out_off (id + 1) in
          let isx = ref 0. and isy = ref 0. in
          for k = ia to ib - 1 do
            let p = iget in_driver k in
            isx := !isx +. fget xs p;
            isy := !isy +. fget ys p
          done;
          let osx = ref 0. and osy = ref 0. in
          for k = oa to ob - 1 do
            let p = iget out_sink k in
            osx := !osx +. fget xs p;
            osy := !osy +. fget ys p
          done;
          let ki = ib - ia and ko = ob - oa in
          if s = 6 then begin
            let ri = fget recip ki and ro = fget recip ko in
            let wi = fget sqrt_deg ki and wo = fget sqrt_deg ko in
            nx := ((!isx *. ri *. wi) +. (!osx *. ro *. wo)) /. (wi +. wo);
            ny := ((!isy *. ri *. wi) +. (!osy *. ro *. wo)) /. (wi +. wo)
          end
          else if s = 7 then begin
            let fi = float_of_int ki and fo = float_of_int ko in
            let wi = sqrt fi and wo = sqrt fo in
            nx := ((!isx /. fi *. wi) +. (!osx /. fo *. wo)) /. (wi +. wo);
            ny := ((!isy /. fi *. wi) +. (!osy /. fo *. wo)) /. (wi +. wo)
          end
          else if s = 8 then begin
            let ri = fget recip ki and ro = fget recip ko in
            let cx = (0.65 *. (!isx *. ri)) +. (0.35 *. (!osx *. ro))
            and cy = (0.65 *. (!isy *. ri)) +. (0.35 *. (!osy *. ro)) in
            nx := (0.1 *. fget slot_x id) +. (0.9 *. cx);
            ny := (0.1 *. fget slot_y id) +. (0.9 *. cy)
          end
          else begin
            let fi = float_of_int ki and fo = float_of_int ko in
            let cx = (0.65 *. (!isx /. fi)) +. (0.35 *. (!osx /. fo))
            and cy = (0.65 *. (!isy /. fi)) +. (0.35 *. (!osy /. fo)) in
            nx := (0.1 *. fget slot_x id) +. (0.9 *. cx);
            ny := (0.1 *. fget slot_y id) +. (0.9 *. cy)
          end);
        if !nx <> fget xs id || !ny <> fget ys id then moved := true;
        Array.unsafe_set xs id !nx;
        Array.unsafe_set ys id !ny
      end
    done;
    if not !moved then settled := true;
    incr sweep
  done;
  let max_extent = float_of_int !extent in
  let relaxes = !movable * (!sweep - 1) in
  { netlist = nl; fanin; xs; ys; fp; shape; sq; max_extent; pack_steps = !steps; relaxes }

let fanin t = t.fanin
let coords t = (t.xs, t.ys)
let position t c = (t.xs.(c), t.ys.(c))
let footprint_slices t c = t.fp.(c)
let shape t c = Char.code (Bytes.get t.shape c)

let set_position t c (x, y) =
  t.xs.(c) <- x;
  t.ys.(c) <- y

(* The wire model's lengths come from {!Netlist.star_length}'s kernel,
   which reads the sink CSR in the store's own columns. *)
let star_length t nid = Netlist.star_length t.netlist ~xs:t.xs ~ys:t.ys ~radius:t.sq nid
let star_lengths t out = Netlist.star_lengths t.netlist ~xs:t.xs ~ys:t.ys ~radius:t.sq out

let max_extent t = t.max_extent
let pack_steps t = t.pack_steps
let relaxes t = t.relaxes
