module Intgraph = Hlsb_util.Intgraph
module Device = Hlsb_device.Device

type resources = {
  r_luts : int;
  r_ffs : int;
  r_bram18 : int;
  r_dsps : int;
}

let zero_res = { r_luts = 0; r_ffs = 0; r_bram18 = 0; r_dsps = 0 }

let add_res a b =
  {
    r_luts = a.r_luts + b.r_luts;
    r_ffs = a.r_ffs + b.r_ffs;
    r_bram18 = a.r_bram18 + b.r_bram18;
    r_dsps = a.r_dsps + b.r_dsps;
  }

type cell_kind =
  | Comb
  | Seq
  | Mem
  | Port_in
  | Port_out

type net_class =
  | Data
  | Data_broadcast
  | Ctrl_sync
  | Ctrl_pipeline

(* Byte columns. Cell kinds and net classes take one byte per entry; every
   other int (resources, name offsets, drivers, widths, sink offsets and
   sinks) is a 32-bit entry, checked on its add; delays sit in a flat
   float array. Only the first [n_cells] (cells), [n_nets] (nets) or
   [get sink_off n_nets] (sinks) entries are live, scaled by the
   per-entry stride ([res]: 4, name offsets: 2). Past the live ends sit
   the pieces of the next net's name and sinks. A column grows by a fresh
   uninitialized block and a memcpy of its live prefix: no fill pass, and
   no write barrier per element, which an [int array] blit into the major
   heap pays. *)
type t = {
  nl_name : string;
  mutable n_cells : int;
  mutable cell_cap : int;  (* cells the cell columns hold *)
  mutable kinds : Bytes.t;
  mutable delays : float array;
  mutable res : Bytes.t;  (* luts, ffs, bram18, dsps *)
  mutable cell_names : Bytes.t;  (* start, stop in [names] *)
  mutable n_nets : int;
  mutable net_cap : int;  (* nets the net columns hold *)
  mutable drivers : Bytes.t;
  mutable widths : Bytes.t;
  mutable classes : Bytes.t;
  mutable net_names : Bytes.t;
  mutable sink_off : Bytes.t;  (* [n_nets + 1] live offsets into [sinks] *)
  mutable sinks : Bytes.t;
  mutable sinks_len : int;  (* end of the pushed sinks *)
  mutable chunks : Bytes.t array;  (* the name arena *)
  mutable names_cap : int;  (* bytes the chunks hold *)
  mutable names_len : int;
  mutable sealed : int;  (* end of the last sealed name: pieces follow it *)
}

(* Entry [i] of a 32-bit column. Every index is below a capacity the
   caller grew to, or below a live end it checked, so the reads and
   writes skip the bounds check. *)
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let[@inline] get col i = Int32.to_int (get32u col (4 * i))
let[@inline] set col i v = set32u col (4 * i) (Int32.of_int v)

(* The 32-bit range, checked on every add. *)
let max32 = 0x7fff_ffff
let[@inline] fits v = v >= -max32 - 1 && v <= max32

let kind_code = function
  | Comb -> 0
  | Seq -> 1
  | Mem -> 2
  | Port_in -> 3
  | Port_out -> 4

let kind_of_code = function
  | 0 -> Comb
  | 1 -> Seq
  | 2 -> Mem
  | 3 -> Port_in
  | _ -> Port_out

let class_code = function
  | Data -> 0
  | Data_broadcast -> 1
  | Ctrl_sync -> 2
  | Ctrl_pipeline -> 3

let class_of_code = function
  | 0 -> Data
  | 1 -> Data_broadcast
  | 2 -> Ctrl_sync
  | _ -> Ctrl_pipeline

let[@inline] get8 col i = Char.code (Bytes.unsafe_get col i)
let[@inline] set8 col i v = Bytes.unsafe_set col i (Char.unsafe_chr v)

let create ~name =
  {
    nl_name = name;
    n_cells = 0;
    cell_cap = 0;
    kinds = Bytes.empty;
    delays = [||];
    res = Bytes.empty;
    cell_names = Bytes.empty;
    n_nets = 0;
    net_cap = 0;
    drivers = Bytes.empty;
    widths = Bytes.empty;
    classes = Bytes.empty;
    net_names = Bytes.empty;
    sink_off = Bytes.make 4 '\000';
    sinks = Bytes.empty;
    sinks_len = 0;
    chunks = [| Bytes.empty |];
    names_cap = 0;
    names_len = 0;
    sealed = 0;
  }

let name t = t.nl_name

(* The capacity a column grows to for [need] entries. A column that grows
   at least doubles, and takes a quarter more than a large [need] (a
   reservation), so the few appends after a reservation still fit. *)
let capacity cap need = max (need + (need / 4)) (max 16 (2 * cap))

(* [len] bytes holding [col]'s first [live] bytes; the rest is left
   unwritten for the appends. *)
let regrow col ~live len =
  let b = Bytes.create len in
  Bytes.blit col 0 b 0 live;
  b

let grow_cells t need =
  if need > t.cell_cap then begin
    let cap = capacity t.cell_cap need and live = t.n_cells in
    t.kinds <- regrow t.kinds ~live cap;
    let d = Array.create_float cap in
    Array.blit t.delays 0 d 0 live;
    t.delays <- d;
    t.res <- regrow t.res ~live:(16 * live) (16 * cap);
    t.cell_names <- regrow t.cell_names ~live:(8 * live) (8 * cap);
    t.cell_cap <- cap
  end

let grow_nets t need =
  if need > t.net_cap then begin
    let cap = capacity t.net_cap need and live = t.n_nets in
    t.drivers <- regrow t.drivers ~live:(4 * live) (4 * cap);
    t.widths <- regrow t.widths ~live:(4 * live) (4 * cap);
    t.classes <- regrow t.classes ~live cap;
    t.net_names <- regrow t.net_names ~live:(8 * live) (8 * cap);
    t.sink_off <- regrow t.sink_off ~live:(4 * (live + 1)) (4 * (cap + 1));
    t.net_cap <- cap
  end

let grow_sinks t need =
  let cap = Bytes.length t.sinks / 4 in
  if need > cap then
    t.sinks <- regrow t.sinks ~live:(4 * t.sinks_len) (4 * capacity cap need)

(* ---- the name arena ---- *)

(* Names are bytes in fixed-size chunks: arena position [p] is byte
   [p land chunk_mask] of chunk [p lsr chunk_bits], and a name may run on
   from one chunk into the next. The first chunk grows by doubling up to
   the chunk size, so a small netlist's arena stays small; past that the
   arena gains whole chunks and never copies a byte it holds. *)
let chunk_bits = 14
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1

let grow_names t need =
  while need > t.names_cap do
    if t.names_cap < chunk_size then begin
      let len = min chunk_size (capacity t.names_cap need) in
      t.chunks.(0) <- regrow t.chunks.(0) ~live:t.names_len len;
      t.names_cap <- len
    end
    else begin
      let k = t.names_cap lsr chunk_bits in
      if k = Array.length t.chunks then begin
        let a = Array.make (2 * k) Bytes.empty in
        Array.blit t.chunks 0 a 0 k;
        t.chunks <- a
      end;
      t.chunks.(k) <- Bytes.create chunk_size;
      t.names_cap <- t.names_cap + chunk_size
    end
  done

let[@inline] reserve_names t n =
  if t.names_len + n > t.names_cap then grow_names t (t.names_len + n)

let[@inline] set_name_byte t p c =
  Bytes.unsafe_set t.chunks.(p lsr chunk_bits) (p land chunk_mask) c

(* Copy [len] bytes of [src] from [off] into the reserved arena from
   position [p]. *)
let rec put t src off p len =
  if len > 0 then begin
    let o = p land chunk_mask in
    let k = min len (chunk_size - o) in
    Bytes.blit src off t.chunks.(p lsr chunk_bits) o k;
    put t src (off + k) (p + k) (len - k)
  end

(* Copy the arena's [len] bytes from position [src] to [p]. *)
let rec move t src p len =
  if len > 0 then begin
    let o = src land chunk_mask in
    let k = min len (chunk_size - o) in
    put t t.chunks.(src lsr chunk_bits) o p k;
    move t (src + k) (p + k) (len - k)
  end

(* Copy the arena's [len] bytes from position [p] into [dst] from [off]. *)
let rec move_out t p dst off len =
  if len > 0 then begin
    let o = p land chunk_mask in
    let k = min len (chunk_size - o) in
    Bytes.blit t.chunks.(p lsr chunk_bits) o dst off k;
    move_out t (p + k) dst (off + k) (len - k)
  end

let reserve t ~cells ~nets ~sinks ~name_bytes =
  grow_cells t (t.n_cells + cells);
  grow_nets t (t.n_nets + nets);
  grow_sinks t (t.sinks_len + sinks);
  reserve_names t name_bytes

(* An empty piece touches no chunk: at a full arena's end, the chunk its
   position names does not exist yet. *)
let name_str t s =
  let n = String.length s in
  if n > 0 then begin
    reserve_names t n;
    let p = t.names_len in
    let o = p land chunk_mask in
    if o + n <= chunk_size then
      Bytes.unsafe_blit_string s 0 t.chunks.(p lsr chunk_bits) o n
    else put t (Bytes.unsafe_of_string s) 0 p n;
    t.names_len <- p + n
  end

(* Digits are produced in the non-positive range, so [min_int] spells
   exactly as [string_of_int] spells it. *)
let name_int t i =
  let neg = if i < 0 then i else -i in
  let digits = ref 1 and m = ref (neg / 10) in
  while !m <> 0 do
    incr digits;
    m := !m / 10
  done;
  let len = !digits + if i < 0 then 1 else 0 in
  reserve_names t len;
  let p = t.names_len in
  if i < 0 then set_name_byte t p '-';
  let m = ref neg in
  for k = p + len - 1 downto p + len - !digits do
    set_name_byte t k (Char.unsafe_chr (48 - (!m mod 10)));
    m := !m / 10
  done;
  t.names_len <- p + len

(* A rejected add leaves no pending pieces behind for the next one. *)
let reject t msg =
  t.names_len <- t.sealed;
  t.sinks_len <- get t.sink_off t.n_nets;
  invalid_arg msg

(* Append [tail] to the pending pieces; rejects a name whose end would
   not fit a 32-bit offset. *)
let finish_name t tail =
  (match tail with Some s -> name_str t s | None -> ());
  if t.names_len > max32 then reject t "Netlist: name arena exceeds 32 bits"

(* Seal the finished name as entry [i] of [offs]. *)
let seal t offs i =
  set offs (2 * i) t.sealed;
  set offs ((2 * i) + 1) t.names_len;
  t.sealed <- t.names_len

let spell t offs i =
  let start = get offs (2 * i) in
  let b = Bytes.create (get offs ((2 * i) + 1) - start) in
  move_out t start b 0 (Bytes.length b);
  Bytes.unsafe_to_string b

(* ---- cells and nets ---- *)

let add_cell ?name t ~kind ~delay ~res =
  if delay < 0. then reject t "Netlist.add_cell: negative delay";
  if not (fits res.r_luts && fits res.r_ffs && fits res.r_bram18 && fits res.r_dsps)
  then reject t "Netlist.add_cell: a resource count exceeds 32 bits";
  let c = t.n_cells in
  if c = max32 then reject t "Netlist.add_cell: too many cells";
  finish_name t name;
  if c = t.cell_cap then grow_cells t (c + 1);
  set8 t.kinds c (kind_code kind);
  Array.unsafe_set t.delays c delay;
  let r = 4 * c in
  set t.res r res.r_luts;
  set t.res (r + 1) res.r_ffs;
  set t.res (r + 2) res.r_bram18;
  set t.res (r + 3) res.r_dsps;
  seal t t.cell_names c;
  t.n_cells <- c + 1;
  c

let check_cell t c =
  if c < 0 || c >= t.n_cells then invalid_arg "Netlist: cell id out of range"

let check_net t n =
  if n < 0 || n >= t.n_nets then invalid_arg "Netlist: net id out of range"

(* Sinks go straight into the CSR past the live end; they only become
   live when [add_net] sets the net's end offset. *)
let push_sink t s =
  if s < 0 || s >= t.n_cells then reject t "Netlist: cell id out of range";
  if t.sinks_len = max32 then reject t "Netlist: sink CSR exceeds 32 bits";
  grow_sinks t (t.sinks_len + 1);
  set t.sinks t.sinks_len s;
  t.sinks_len <- t.sinks_len + 1

let rec push_sinks t = function
  | [] -> ()
  | s :: rest ->
    push_sink t s;
    push_sinks t rest

let add_net ?(cls = Data) ?name t ~driver ~sinks ~width () =
  if driver < 0 || driver >= t.n_cells then reject t "Netlist: cell id out of range";
  let n = t.n_nets in
  push_sinks t sinks;
  if width < 1 then reject t "Netlist.add_net: width < 1";
  if width > max32 then reject t "Netlist.add_net: width exceeds 32 bits";
  (match kind_of_code (get8 t.kinds driver) with
  | Port_out -> reject t "Netlist.add_net: output port cannot drive"
  | Comb | Seq | Mem | Port_in -> ());
  finish_name t name;
  if n = t.net_cap then grow_nets t (n + 1);
  set t.drivers n driver;
  set t.widths n width;
  set8 t.classes n (class_code cls);
  set t.sink_off (n + 1) t.sinks_len;
  seal t t.net_names n;
  t.n_nets <- n + 1;
  n

(* ---- slices ---- *)

type mark = {
  m_cells : int;
  m_nets : int;
  m_sinks : int;
  m_names : int;
}

let mark t =
  {
    m_cells = t.n_cells;
    m_nets = t.n_nets;
    m_sinks = get t.sink_off t.n_nets;
    m_names = t.sealed;
  }

type splice = {
  sp_net : bool;
  sp_lo : int;
  sp_hi : int;
  sp_tail : bool;
  sp_len : int;
  sp_with : string;
}

(* [sps] (sorted, disjoint) without the splices that end before entity
   [i]: the first one left applies to [i] if it starts by [i]. *)
let rec splices_from i = function
  | sp :: rest when sp.sp_hi <= i -> splices_from i rest
  | sps -> sps

let copy_name_bytes ~from ~upto ~drop ~prefix ~splices =
  let n_names = upto.m_cells - from.m_cells + upto.m_nets - from.m_nets in
  List.fold_left
    (fun acc sp ->
      acc + ((sp.sp_hi - sp.sp_lo) * (String.length sp.sp_with - sp.sp_len)))
    (upto.m_names - from.m_names + (n_names * (String.length prefix - drop)))
    splices

let copy_slice t ~from ~upto ~drop ~prefix ~splices =
  if t.names_len <> t.sealed || t.sinks_len <> get t.sink_off t.n_nets then
    invalid_arg "Netlist.copy_slice: a name or net is being written";
  if from.m_cells < 0 || from.m_cells > upto.m_cells || upto.m_cells > t.n_cells
     || from.m_nets < 0 || from.m_nets > upto.m_nets || upto.m_nets > t.n_nets
     || from.m_sinks <> get t.sink_off from.m_nets
     || upto.m_sinks <> get t.sink_off upto.m_nets
  then invalid_arg "Netlist.copy_slice: not a slice of this netlist";
  let nc = upto.m_cells - from.m_cells and nn = upto.m_nets - from.m_nets in
  let s0 = from.m_sinks and ns = upto.m_sinks - from.m_sinks in
  let name_bytes = copy_name_bytes ~from ~upto ~drop ~prefix ~splices in
  if t.n_cells + nc > max32 || t.sinks_len + ns > max32
     || t.names_len + name_bytes > max32
  then invalid_arg "Netlist.copy_slice: the copy exceeds 32 bits";
  reserve t ~cells:nc ~nets:nn ~sinks:ns ~name_bytes;
  let c0 = t.n_cells and n0 = t.n_nets in
  let shift = c0 - from.m_cells in
  let moved c =
    if c < from.m_cells || c >= upto.m_cells then
      invalid_arg "Netlist.copy_slice: a net leaves the slice";
    c + shift
  in
  Bytes.blit t.kinds from.m_cells t.kinds c0 nc;
  Array.blit t.delays from.m_cells t.delays c0 nc;
  Bytes.blit t.res (16 * from.m_cells) t.res (16 * c0) (16 * nc);
  for i = 0 to nn - 1 do
    set t.drivers (n0 + i) (moved (get t.drivers (from.m_nets + i)))
  done;
  Bytes.blit t.widths (4 * from.m_nets) t.widths (4 * n0) (4 * nn);
  Bytes.blit t.classes from.m_nets t.classes n0 nn;
  let s_shift = t.sinks_len - s0 in
  for i = 1 to nn do
    set t.sink_off (n0 + i) (get t.sink_off (from.m_nets + i) + s_shift)
  done;
  for k = s0 to s0 + ns - 1 do
    set t.sinks (k + s_shift) (moved (get t.sinks k))
  done;
  (* Names: [prefix], then the bytes past the first [drop], with the
     entity's splice applied; the cells' names first, then the nets'. *)
  let p = ref t.names_len in
  let put_bytes src len =
    move t src !p len;
    p := !p + len
  in
  let put_string s =
    put t (Bytes.unsafe_of_string s) 0 !p (String.length s);
    p := !p + String.length s
  in
  let copy_names offs ~src ~dst ~count ~net =
    let sps = ref (List.filter (fun sp -> sp.sp_net = net) splices) in
    for i = 0 to count - 1 do
      sps := splices_from i !sps;
      let s = get offs (2 * (src + i)) + drop and e = get offs ((2 * (src + i)) + 1) in
      set offs (2 * (dst + i)) !p;
      put_string prefix;
      (match !sps with
      | sp :: _ when sp.sp_lo <= i ->
        let keep = e - s - sp.sp_len in
        if keep < 0 then invalid_arg "Netlist.copy_slice: a name is too short";
        if sp.sp_tail then begin
          put_bytes s keep;
          put_string sp.sp_with
        end
        else begin
          put_string sp.sp_with;
          put_bytes (s + sp.sp_len) keep
        end
      | _ ->
        if e < s then invalid_arg "Netlist.copy_slice: a name is too short";
        put_bytes s (e - s));
      set offs ((2 * (dst + i)) + 1) !p
    done
  in
  copy_names t.cell_names ~src:from.m_cells ~dst:c0 ~count:nc ~net:false;
  copy_names t.net_names ~src:from.m_nets ~dst:n0 ~count:nn ~net:true;
  t.names_len <- !p;
  t.sealed <- !p;
  t.sinks_len <- t.sinks_len + ns;
  t.n_cells <- c0 + nc;
  t.n_nets <- n0 + nn

let n_cells t = t.n_cells
let n_nets t = t.n_nets

let kind t c =
  check_cell t c;
  kind_of_code (get8 t.kinds c)

let delay t c =
  check_cell t c;
  Array.unsafe_get t.delays c

let[@inline] res_field t c k =
  check_cell t c;
  get t.res ((4 * c) + k)

let luts t c = res_field t c 0
let ffs t c = res_field t c 1
let bram18 t c = res_field t c 2
let dsps t c = res_field t c 3

let delays t = Array.sub t.delays 0 t.n_cells

(* Slice-equivalent footprint used for packing; DSP and BRAM contributions
   are folded in for Comb cells that embed them (they enlarge the region a
   macro occupies, which is what the wire model cares about). *)
let slice_footprints t (d : Device.t) =
  let imax (a : int) b = if a >= b then a else b and cdiv a b = (a + b - 1) / b in
  let fp = Array.make t.n_cells 1 in
  for c = 0 to t.n_cells - 1 do
    let r = 4 * c in
    let slices =
      imax (cdiv (get t.res r) d.lut_per_slice) (cdiv (get t.res (r + 1)) d.ff_per_slice)
    in
    let extra = (get t.res (r + 3) * 3) + (get t.res (r + 2) * 5) in
    Array.unsafe_set fp c (imax 1 (slices + extra))
  done;
  fp

(* The star length of net [n] from the store's columns: the farthest
   sink's Manhattan distance from the driver plus the pins' mean
   [radius], folded driver first, then sinks in CSR order; 0 for a
   sinkless net. Callers check that the three arrays cover every cell, so
   the reads skip the bounds check: drivers and sinks are cell ids. *)
let[@inline] star_at t (xs : float array) (ys : float array) (radius : float array) n =
  let k0 = get t.sink_off n and k1 = get t.sink_off (n + 1) in
  if k0 = k1 then 0.
  else begin
    let drv = get t.drivers n in
    let dx = Array.unsafe_get xs drv and dy = Array.unsafe_get ys drv in
    let far = ref 0. and spread = ref (Array.unsafe_get radius drv) in
    for k = k0 to k1 - 1 do
      let s = get t.sinks k in
      let d =
        abs_float (Array.unsafe_get xs s -. dx) +. abs_float (Array.unsafe_get ys s -. dy)
      in
      (* [Stdlib.max]'s choice ([far >= d] keeps [far]) without its
         polymorphic compare *)
      if not (!far >= d) then far := d;
      spread := !spread +. Array.unsafe_get radius s
    done;
    !far +. (!spread /. float_of_int (1 + k1 - k0))
  end

let check_coords t xs ys radius =
  if Array.length xs < t.n_cells || Array.length ys < t.n_cells
     || Array.length radius < t.n_cells
  then invalid_arg "Netlist: coordinate arrays shorter than the cells"

let star_length t ~xs ~ys ~radius n =
  check_net t n;
  check_coords t xs ys radius;
  star_at t xs ys radius n

let star_lengths t ~xs ~ys ~radius out =
  check_coords t xs ys radius;
  if Array.length out < t.n_nets then invalid_arg "Netlist.star_lengths: output shorter than the nets";
  for n = 0 to t.n_nets - 1 do
    Array.unsafe_set out n (star_at t xs ys radius n)
  done

let cell_name t c =
  check_cell t c;
  spell t t.cell_names c

let driver t n =
  check_net t n;
  get t.drivers n

let width t n =
  check_net t n;
  get t.widths n

let net_class t n =
  check_net t n;
  class_of_code (get8 t.classes n)

let net_name t n =
  check_net t n;
  spell t t.net_names n

let[@inline] fanout t n =
  check_net t n;
  get t.sink_off (n + 1) - get t.sink_off n

let sink t n k =
  if k < 0 || k >= fanout t n then invalid_arg "Netlist: sink index out of range";
  get t.sinks (get t.sink_off n + k)

let max_fanout_net t ?cls () =
  let want = match cls with None -> -1 | Some c -> class_code c in
  let best = ref None in
  for n = 0 to t.n_nets - 1 do
    let keep = want < 0 || get8 t.classes n = want in
    if keep then
      match !best with
      | Some b when fanout t b >= fanout t n -> ()
      | _ -> best := Some n
  done;
  !best

let total_resources t =
  let sum k =
    let s = ref 0 in
    for c = 0 to t.n_cells - 1 do
      s := !s + get t.res ((4 * c) + k)
    done;
    !s
  in
  { r_luts = sum 0; r_ffs = sum 1; r_bram18 = sum 2; r_dsps = sum 3 }

let utilization t (d : Device.t) =
  let r = total_resources t in
  let frac used cap = if cap = 0 then 0. else float_of_int used /. float_of_int cap in
  (frac r.r_luts d.luts, frac r.r_ffs d.ffs, frac r.r_bram18 d.bram18, frac r.r_dsps d.dsps)

type fanin = {
  in_off : int array;
  in_driver : int array;
  in_net : int array;
}

type arcs = {
  fanin : fanin;
  out_off : int array;
  out_sink : int array;
}

let arcs t =
  let n = t.n_cells in
  let in_off = Array.make (n + 1) 0 and out_off = Array.make (n + 1) 0 in
  for nid = 0 to t.n_nets - 1 do
    let drv = get t.drivers nid in
    for k = get t.sink_off nid to get t.sink_off (nid + 1) - 1 do
      let s = get t.sinks k in
      in_off.(s) <- in_off.(s) + 1;
      out_off.(drv) <- out_off.(drv) + 1
    done
  done;
  (* Inclusive prefix sums: [off.(c)] is one past the end of slice [c],
     and [off.(n)] the arc total. The fill below steps each [off.(c)] back
     once per arc, leaving it at the start of slice [c]: the offsets are
     their own cursors. *)
  for c = 1 to n do
    in_off.(c) <- in_off.(c) + in_off.(c - 1);
    out_off.(c) <- out_off.(c) + out_off.(c - 1)
  done;
  let n_arcs = in_off.(n) in
  let in_driver = Array.make n_arcs 0 and in_net = Array.make n_arcs 0 in
  let out_sink = Array.make n_arcs 0 in
  for nid = 0 to t.n_nets - 1 do
    let drv = get t.drivers nid in
    for k = get t.sink_off nid to get t.sink_off (nid + 1) - 1 do
      let s = get t.sinks k in
      let i = in_off.(s) - 1 in
      in_off.(s) <- i;
      in_driver.(i) <- drv;
      in_net.(i) <- nid;
      let o = out_off.(drv) - 1 in
      out_off.(drv) <- o;
      out_sink.(o) <- s
    done
  done;
  { fanin = { in_off; in_driver; in_net }; out_off; out_sink }

let validate t =
  let n = t.n_cells in
  let { in_off; in_driver; _ } = (arcs t).fanin in
  let comb c = get8 t.kinds c = kind_code Comb in
  let g = Intgraph.create n in
  for c = 0 to n - 1 do
    if comb c then
      for k = in_off.(c) to in_off.(c + 1) - 1 do
        if comb in_driver.(k) then Intgraph.add_edge g in_driver.(k) c
      done
  done;
  match Intgraph.topological_order g with
  | Some _ -> Ok ()
  | None -> Error "combinational cycle detected"
