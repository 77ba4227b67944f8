module Vec = Hlsb_util.Vec
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

type cell = {
  c_name : string;
  c_kind : cell_kind;
  c_delay : float;
  c_res : resources;
}

type net = {
  n_name : string;
  n_driver : int;
  n_sinks : int array;
  n_width : int;
  n_class : net_class;
}

type t = {
  nl_name : string;
  cells : cell Vec.t;
  nets : net Vec.t;
}

let create ~name = { nl_name = name; cells = Vec.create (); nets = Vec.create () }
let name t = t.nl_name

let add_cell t ~name ~kind ~delay ~res =
  if delay < 0. then invalid_arg "Netlist.add_cell: negative delay";
  Vec.push t.cells { c_name = name; c_kind = kind; c_delay = delay; c_res = res }

let check_cell t c =
  if c < 0 || c >= Vec.length t.cells then
    invalid_arg "Netlist: cell id out of range"

let rec check_cells t = function
  | [] -> ()
  | c :: rest ->
    check_cell t c;
    check_cells t rest

let add_net t ?(cls = Data) ~name ~driver ~sinks ~width () =
  check_cell t driver;
  check_cells t sinks;
  if width < 1 then invalid_arg "Netlist.add_net: width < 1";
  (match (Vec.get t.cells driver).c_kind with
  | Port_out -> invalid_arg "Netlist.add_net: output port cannot drive"
  | Comb | Seq | Mem | Port_in -> ());
  Vec.push t.nets
    {
      n_name = name;
      n_driver = driver;
      n_sinks = Array.of_list sinks;
      n_width = width;
      n_class = cls;
    }

let n_cells t = Vec.length t.cells
let n_nets t = Vec.length t.nets

let cell t c =
  check_cell t c;
  Vec.get t.cells c

let net t n =
  if n < 0 || n >= Vec.length t.nets then
    invalid_arg "Netlist: net id out of range";
  Vec.get t.nets n

let iter_cells t f = Vec.iteri f t.cells
let iter_nets t f = Vec.iteri f t.nets

let fanout t n = Array.length (net t n).n_sinks

let max_fanout_net t ?cls () =
  let best = ref None in
  iter_nets t (fun id n ->
    let keep = match cls with None -> true | Some c -> n.n_class = c in
    if keep then
      match !best with
      | Some (_, b) when Array.length b.n_sinks >= Array.length n.n_sinks -> ()
      | _ -> best := Some (id, n));
  !best

let total_resources t =
  Vec.fold_left (fun acc c -> add_res acc c.c_res) zero_res t.cells

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
  let n = Vec.length t.cells in
  let in_off = Array.make (n + 1) 0 and out_off = Array.make (n + 1) 0 in
  Vec.iteri
    (fun _ net ->
      let drv = net.n_driver and sinks = net.n_sinks in
      for k = 0 to Array.length sinks - 1 do
        let s = sinks.(k) in
        in_off.(s) <- in_off.(s) + 1;
        out_off.(drv) <- out_off.(drv) + 1
      done)
    t.nets;
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
  Vec.iteri
    (fun nid net ->
      let drv = net.n_driver and sinks = net.n_sinks in
      for k = 0 to Array.length sinks - 1 do
        let s = sinks.(k) in
        let i = in_off.(s) - 1 in
        in_off.(s) <- i;
        in_driver.(i) <- drv;
        in_net.(i) <- nid;
        let o = out_off.(drv) - 1 in
        out_off.(drv) <- o;
        out_sink.(o) <- s
      done)
    t.nets;
  { fanin = { in_off; in_driver; in_net }; out_off; out_sink }

let validate t =
  let n = Vec.length t.cells in
  let { in_off; in_driver; _ } = (arcs t).fanin in
  let comb c = (Vec.get t.cells c).c_kind = Comb in
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

let merge dst src =
  let cell_map = Array.make (Vec.length src.cells) (-1) in
  Vec.iteri
    (fun i c -> cell_map.(i) <- Vec.push dst.cells c)
    src.cells;
  let net_map = Array.make (Vec.length src.nets) (-1) in
  Vec.iteri
    (fun i n ->
      let n' =
        {
          n with
          n_driver = cell_map.(n.n_driver);
          n_sinks = Array.map (fun s -> cell_map.(s)) n.n_sinks;
        }
      in
      net_map.(i) <- Vec.push dst.nets n')
    src.nets;
  (cell_map, net_map)
