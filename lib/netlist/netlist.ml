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

(* Struct-of-arrays store. Every array is a growable buffer: only the first
   [n_cells] (cells), [n_nets] (nets) or [sink_off.(n_nets)] (sinks) slots
   are live, scaled by the per-entry stride ([res]: 4, names: 2). Past the
   live ends sit the pieces of the next net's name and sinks. *)
type t = {
  nl_name : string;
  mutable n_cells : int;
  mutable kinds : cell_kind array;
  mutable delays : float array;
  mutable res : int array;  (* luts, ffs, bram18, dsps *)
  mutable cell_names : int array;  (* start, stop in [names] *)
  mutable n_nets : int;
  mutable drivers : int array;
  mutable widths : int array;
  mutable classes : net_class array;
  mutable net_names : int array;
  mutable sink_off : int array;  (* [n_nets + 1] live offsets into [sinks] *)
  mutable sinks : int array;
  mutable sinks_len : int;  (* end of the pushed sinks *)
  mutable names : Bytes.t;
  mutable names_len : int;
  mutable sealed : int;  (* end of the last sealed name: pieces follow it *)
}

let create ~name =
  {
    nl_name = name;
    n_cells = 0;
    kinds = [||];
    delays = [||];
    res = [||];
    cell_names = [||];
    n_nets = 0;
    drivers = [||];
    widths = [||];
    classes = [||];
    net_names = [||];
    sink_off = [| 0 |];
    sinks = [||];
    sinks_len = 0;
    names = Bytes.empty;
    names_len = 0;
    sealed = 0;
  }

let name t = t.nl_name

(* [a] with room for [need] elements. A buffer that grows at least
   doubles, and takes a quarter more than a large [need] (a reservation),
   so the few appends after a reservation still fit. *)
let grow a need fill =
  if need <= Array.length a then a
  else begin
    let len = max (need + (need / 4)) (max 16 (2 * Array.length a)) in
    let b = Array.make len fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* ---- the name arena ---- *)

let reserve_names t n =
  let need = t.names_len + n in
  if need > Bytes.length t.names then begin
    let len = max (need + (need / 4)) (max 256 (2 * Bytes.length t.names)) in
    let b = Bytes.create len in
    Bytes.blit t.names 0 b 0 t.names_len;
    t.names <- b
  end

let reserve t ~cells ~nets ~sinks ~name_bytes =
  let c = t.n_cells + cells and n = t.n_nets + nets in
  t.kinds <- grow t.kinds c Comb;
  t.delays <- grow t.delays c 0.;
  t.res <- grow t.res (4 * c) 0;
  t.cell_names <- grow t.cell_names (2 * c) 0;
  t.drivers <- grow t.drivers n 0;
  t.widths <- grow t.widths n 0;
  t.classes <- grow t.classes n Data;
  t.net_names <- grow t.net_names (2 * n) 0;
  t.sink_off <- grow t.sink_off (n + 1) 0;
  t.sinks <- grow t.sinks (t.sinks_len + sinks) 0;
  reserve_names t name_bytes

let name_str t s =
  let n = String.length s in
  reserve_names t n;
  Bytes.blit_string s 0 t.names t.names_len n;
  t.names_len <- t.names_len + n

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
  if i < 0 then Bytes.unsafe_set t.names p '-';
  let m = ref neg in
  for k = p + len - 1 downto p + len - !digits do
    Bytes.unsafe_set t.names k (Char.unsafe_chr (48 - (!m mod 10)));
    m := !m / 10
  done;
  t.names_len <- p + len

(* Seal the pending pieces, followed by [tail], as entry [i] of [offs]. *)
let seal t offs i tail =
  (match tail with Some s -> name_str t s | None -> ());
  offs.(2 * i) <- t.sealed;
  offs.((2 * i) + 1) <- t.names_len;
  t.sealed <- t.names_len

(* A rejected add leaves no pending pieces behind for the next one. *)
let reject t msg =
  t.names_len <- t.sealed;
  t.sinks_len <- t.sink_off.(t.n_nets);
  invalid_arg msg

let spell t offs i =
  let start = offs.(2 * i) in
  Bytes.sub_string t.names start (offs.((2 * i) + 1) - start)

(* ---- cells and nets ---- *)

let add_cell ?name t ~kind ~delay ~res =
  if delay < 0. then reject t "Netlist.add_cell: negative delay";
  let c = t.n_cells in
  t.kinds <- grow t.kinds (c + 1) Comb;
  t.delays <- grow t.delays (c + 1) 0.;
  t.res <- grow t.res (4 * (c + 1)) 0;
  t.cell_names <- grow t.cell_names (2 * (c + 1)) 0;
  t.kinds.(c) <- kind;
  t.delays.(c) <- delay;
  let r = 4 * c in
  t.res.(r) <- res.r_luts;
  t.res.(r + 1) <- res.r_ffs;
  t.res.(r + 2) <- res.r_bram18;
  t.res.(r + 3) <- res.r_dsps;
  seal t t.cell_names c name;
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
  t.sinks <- grow t.sinks (t.sinks_len + 1) 0;
  t.sinks.(t.sinks_len) <- s;
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
  (match t.kinds.(driver) with
  | Port_out -> reject t "Netlist.add_net: output port cannot drive"
  | Comb | Seq | Mem | Port_in -> ());
  t.drivers <- grow t.drivers (n + 1) 0;
  t.widths <- grow t.widths (n + 1) 0;
  t.classes <- grow t.classes (n + 1) Data;
  t.net_names <- grow t.net_names (2 * (n + 1)) 0;
  t.sink_off <- grow t.sink_off (n + 2) 0;
  t.drivers.(n) <- driver;
  t.widths.(n) <- width;
  t.classes.(n) <- cls;
  t.sink_off.(n + 1) <- t.sinks_len;
  seal t t.net_names n name;
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
    m_sinks = t.sink_off.(t.n_nets);
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
  if t.names_len <> t.sealed || t.sinks_len <> t.sink_off.(t.n_nets) then
    invalid_arg "Netlist.copy_slice: a name or net is being written";
  if from.m_cells < 0 || from.m_cells > upto.m_cells || upto.m_cells > t.n_cells
     || from.m_nets < 0 || from.m_nets > upto.m_nets || upto.m_nets > t.n_nets
     || from.m_sinks <> t.sink_off.(from.m_nets)
     || upto.m_sinks <> t.sink_off.(upto.m_nets)
  then invalid_arg "Netlist.copy_slice: not a slice of this netlist";
  let nc = upto.m_cells - from.m_cells and nn = upto.m_nets - from.m_nets in
  let s0 = from.m_sinks and ns = upto.m_sinks - from.m_sinks in
  reserve t ~cells:nc ~nets:nn ~sinks:ns
    ~name_bytes:(copy_name_bytes ~from ~upto ~drop ~prefix ~splices);
  let c0 = t.n_cells and n0 = t.n_nets in
  let shift = c0 - from.m_cells in
  let moved c =
    if c < from.m_cells || c >= upto.m_cells then
      invalid_arg "Netlist.copy_slice: a net leaves the slice";
    c + shift
  in
  Array.blit t.kinds from.m_cells t.kinds c0 nc;
  Array.blit t.delays from.m_cells t.delays c0 nc;
  Array.blit t.res (4 * from.m_cells) t.res (4 * c0) (4 * nc);
  for i = 0 to nn - 1 do
    t.drivers.(n0 + i) <- moved t.drivers.(from.m_nets + i)
  done;
  Array.blit t.widths from.m_nets t.widths n0 nn;
  Array.blit t.classes from.m_nets t.classes n0 nn;
  let s_shift = t.sinks_len - s0 in
  for i = 1 to nn do
    t.sink_off.(n0 + i) <- t.sink_off.(from.m_nets + i) + s_shift
  done;
  for k = s0 to s0 + ns - 1 do
    t.sinks.(k + s_shift) <- moved t.sinks.(k)
  done;
  (* Names: [prefix], then the bytes past the first [drop], with the
     entity's splice applied; the cells' names first, then the nets'. *)
  let p = ref t.names_len in
  let put_bytes src len =
    Bytes.blit t.names src t.names !p len;
    p := !p + len
  in
  let put_string s =
    Bytes.blit_string s 0 t.names !p (String.length s);
    p := !p + String.length s
  in
  let copy_names offs ~src ~dst ~count ~net =
    let sps = ref (List.filter (fun sp -> sp.sp_net = net) splices) in
    for i = 0 to count - 1 do
      sps := splices_from i !sps;
      let s = offs.(2 * (src + i)) + drop and e = offs.((2 * (src + i)) + 1) in
      offs.(2 * (dst + i)) <- !p;
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
      offs.((2 * (dst + i)) + 1) <- !p
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
  t.kinds.(c)

let delay t c =
  check_cell t c;
  t.delays.(c)

let[@inline] res_field t c k =
  check_cell t c;
  t.res.((4 * c) + k)

let luts t c = res_field t c 0
let ffs t c = res_field t c 1
let bram18 t c = res_field t c 2
let dsps t c = res_field t c 3

let delays t = Array.sub t.delays 0 t.n_cells

let cell_name t c =
  check_cell t c;
  spell t t.cell_names c

let driver t n =
  check_net t n;
  t.drivers.(n)

let width t n =
  check_net t n;
  t.widths.(n)

let net_class t n =
  check_net t n;
  t.classes.(n)

let net_name t n =
  check_net t n;
  spell t t.net_names n

let[@inline] fanout t n =
  check_net t n;
  t.sink_off.(n + 1) - t.sink_off.(n)

let sink t n k =
  if k < 0 || k >= fanout t n then invalid_arg "Netlist: sink index out of range";
  t.sinks.(t.sink_off.(n) + k)

let max_fanout_net t ?cls () =
  let best = ref None in
  for n = 0 to t.n_nets - 1 do
    let keep = match cls with None -> true | Some c -> t.classes.(n) = c in
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
      s := !s + t.res.((4 * c) + k)
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
    let drv = t.drivers.(nid) in
    for k = t.sink_off.(nid) to t.sink_off.(nid + 1) - 1 do
      let s = t.sinks.(k) in
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
    let drv = t.drivers.(nid) in
    for k = t.sink_off.(nid) to t.sink_off.(nid + 1) - 1 do
      let s = t.sinks.(k) in
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
  let comb c = t.kinds.(c) = Comb in
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
