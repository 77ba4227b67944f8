module Device = Hlsb_device.Device

(* Names are written into the netlist's arena for the add that follows:
   [name ^ sep ^ a], then ["_" ^ b] per further index. *)
let put nl name sep a =
  Netlist.name_str nl name;
  Netlist.name_str nl sep;
  Netlist.name_int nl a

let put_idx nl b =
  Netlist.name_str nl "_";
  Netlist.name_int nl b

type membank = {
  mb_units : int array;
  mb_read_out : int;
  mb_n_units : int;
  mb_read_latency : int;
}

(* Reduce [cells] level by level through [arity]-input nodes down to one
   root: [node level i cells lo hi] builds node [i] of [level] over
   [cells.(lo .. hi - 1)] and returns the cell that feeds the next level. *)
let rec reduce_tree ~arity ~node level cells =
  let n = Array.length cells in
  if n = 1 then cells.(0)
  else
    reduce_tree ~arity ~node (level + 1)
      (Array.init ((n + arity - 1) / arity) (fun i ->
         node level i cells (i * arity) (min n ((i + 1) * arity))))

let add_membank (d : Device.t) nl ?(read_pipeline = false) ~name ~width ~depth
    () =
  let n_units = Device.bram18_for ~width ~depth in
  if n_units < 1 then invalid_arg "Structs.add_membank: no units";
  (* each cell is exactly one physical BRAM18 unit of the bank *)
  let unit_res = { Netlist.zero_res with Netlist.r_bram18 = 1; r_luts = 2 } in
  let units =
    Array.init n_units (fun i ->
      put nl name "_u" i;
      (* delay: BRAM clk-to-dout on top of clk_q *)
      Netlist.add_cell nl ~kind:Netlist.Mem ~delay:0.9 ~res:unit_res)
  in
  (* Read-side selection uses the BRAM output-cascade muxes (16:1 per
     level, nearly LUT-free), as vendors infer for deep memories. *)
  let mux_delay = 2. *. d.t_lut and mux_res = Macro.logic ((width / 4) + 4) in
  let levels = ref 0 in
  let node level i cells lo hi =
    levels := level + 1;
    put nl name "_rmux" level;
    put_idx nl i;
    let mux = Netlist.add_cell nl ~kind:Netlist.Comb ~delay:mux_delay ~res:mux_res in
    for k = lo to hi - 1 do
      put nl name "_rnet" level;
      put_idx nl i;
      put_idx nl (k - lo);
      Netlist.push_sink nl mux;
      ignore (Netlist.add_net nl ~driver:cells.(k) ~sinks:[] ~width ())
    done;
    if read_pipeline then begin
      (* BRAM output-stage register: free in the macro *)
      put nl name "_rreg" level;
      put_idx nl i;
      let r = Netlist.add_cell nl ~kind:Netlist.Seq ~delay:0. ~res:Netlist.zero_res in
      put nl name "_rregn" level;
      put_idx nl i;
      Netlist.push_sink nl r;
      ignore (Netlist.add_net nl ~driver:mux ~sinks:[] ~width ());
      r
    end
    else mux
  in
  let read_out = reduce_tree ~arity:16 ~node 0 units in
  {
    mb_units = units;
    mb_read_out = read_out;
    mb_n_units = n_units;
    mb_read_latency = (if read_pipeline then !levels else 0);
  }

let connect_write nl ~name ~driver mb ~width =
  Array.iter (Netlist.push_sink nl) mb.mb_units;
  Netlist.add_net nl ~cls:Netlist.Data_broadcast ~name ~driver ~sinks:[] ~width ()

let add_and_tree (d : Device.t) nl ~name ~inputs =
  if inputs = [] then invalid_arg "Structs.add_and_tree: empty";
  let node level i cells lo hi =
    put nl name "_and" level;
    put_idx nl i;
    let lut =
      Netlist.add_cell nl ~kind:Netlist.Comb ~delay:d.t_lut ~res:(Macro.logic 6)
    in
    for k = lo to hi - 1 do
      put nl name "_andnet" level;
      put_idx nl i;
      put_idx nl (k - lo);
      Netlist.push_sink nl lut;
      ignore
        (Netlist.add_net nl ~cls:Netlist.Ctrl_sync ~driver:cells.(k) ~sinks:[]
           ~width:1 ())
    done;
    lut
  in
  reduce_tree ~arity:6 ~node 0 (Array.of_list inputs)

let add_register ?name nl ~width =
  Netlist.add_cell ?name nl ~kind:Netlist.Seq ~delay:0. ~res:(Macro.register width)

let add_reg_chain nl ~name ~width ~length =
  if length < 1 then invalid_arg "Structs.add_reg_chain: length < 1";
  let regs =
    List.init length (fun i ->
      put nl name "_" i;
      add_register nl ~width)
  in
  let rec link = function
    | a :: (b :: _ as rest) ->
      put nl name "_link" a;
      ignore (Netlist.add_net nl ~driver:a ~sinks:[ b ] ~width ());
      link rest
    | [ _ ] | [] -> ()
  in
  link regs;
  regs

let add_fanout_tree nl ~name ~driver ~sinks ~width ~levels ~leaf_fanout =
  if levels < 1 then invalid_arg "Structs.add_fanout_tree: levels < 1";
  if leaf_fanout < 1 then invalid_arg "Structs.add_fanout_tree: leaf_fanout < 1";
  let n_sinks = Array.length sinks in
  if n_sinks = 0 then invalid_arg "Structs.add_fanout_tree: no sinks";
  let n_leaves = (n_sinks + leaf_fanout - 1) / leaf_fanout in
  (* Register counts per level grow geometrically from 1-ish to n_leaves. *)
  let counts =
    Array.init levels (fun i ->
      if i = levels - 1 then n_leaves
      else begin
        let frac = float_of_int (i + 1) /. float_of_int levels in
        max 1 (int_of_float (ceil (float_of_int n_leaves ** frac /. 2.)))
      end)
  in
  let make_level lvl count =
    Array.init count (fun i ->
      put nl name "_l" lvl;
      put_idx nl i;
      add_register nl ~width)
  in
  let connect srcs dsts lvl =
    (* Split dsts into |srcs| contiguous groups. *)
    let n_src = Array.length srcs and n_dst = Array.length dsts in
    let per = (n_dst + n_src - 1) / n_src in
    Array.iteri
      (fun i src ->
        let lo = i * per in
        let hi = min n_dst (lo + per) - 1 in
        if lo <= hi then begin
          for k = lo to hi do
            Netlist.push_sink nl dsts.(k)
          done;
          put nl name "_t" lvl;
          put_idx nl i;
          ignore (Netlist.add_net nl ~driver:src ~sinks:[] ~width ())
        end)
      srcs
  in
  let rec build lvl prev =
    if lvl = levels then connect prev sinks lvl
    else begin
      let level = make_level lvl counts.(lvl) in
      connect prev level lvl;
      build (lvl + 1) level
    end
  in
  build 0 [| driver |];
  levels
