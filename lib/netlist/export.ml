let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    name

let kind_shape = function
  | Netlist.Comb -> "box"
  | Netlist.Seq -> "rect"
  | Netlist.Mem -> "box3d"
  | Netlist.Port_in -> "invtriangle"
  | Netlist.Port_out -> "triangle"

let class_color = function
  | Netlist.Data -> "gray40"
  | Netlist.Data_broadcast -> "blue"
  | Netlist.Ctrl_sync -> "darkgreen"
  | Netlist.Ctrl_pipeline -> "orange"

let to_dot ?(max_fanout_highlight = 16) nl =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "digraph %s {\n  rankdir=LR;\n  node [fontsize=9];\n"
       (sanitize (Netlist.name nl)));
  Netlist.iter_cells nl (fun id c ->
    let style =
      match c.Netlist.c_kind with
      | Netlist.Seq -> ", style=filled, fillcolor=lightblue"
      | Netlist.Mem -> ", style=filled, fillcolor=khaki"
      | Netlist.Comb | Netlist.Port_in | Netlist.Port_out -> ""
    in
    Buffer.add_string buf
      (Printf.sprintf "  c%d [label=\"%s\", shape=%s%s];\n" id
         (sanitize c.Netlist.c_name)
         (kind_shape c.Netlist.c_kind)
         style));
  Netlist.iter_nets nl (fun _ n ->
    let fanout = Array.length n.Netlist.n_sinks in
    let attrs =
      if fanout >= max_fanout_highlight then
        Printf.sprintf "color=red, penwidth=2.0, label=\"%s (fo %d)\""
          (sanitize n.Netlist.n_name) fanout
      else Printf.sprintf "color=%s" (class_color n.Netlist.n_class)
    in
    Array.iter
      (fun s ->
        Buffer.add_string buf
          (Printf.sprintf "  c%d -> c%d [%s];\n" n.Netlist.n_driver s attrs))
      n.Netlist.n_sinks);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let kind_module (c : Netlist.cell) =
  match c.Netlist.c_kind with
  | Netlist.Comb -> "hlsb_comb"
  | Netlist.Seq -> "hlsb_reg"
  | Netlist.Mem -> "hlsb_bram18"
  | Netlist.Port_in -> "hlsb_port_in"
  | Netlist.Port_out -> "hlsb_port_out"

let to_verilog nl =
  let buf = Buffer.create 8192 in
  let mname = sanitize (Netlist.name nl) in
  Buffer.add_string buf
    (Printf.sprintf
       "// structural export of macro netlist %s\n\
        // cells: %d, nets: %d\n\
        module %s (input wire clk, input wire rst);\n"
       (Netlist.name nl) (Netlist.n_cells nl) (Netlist.n_nets nl) mname);
  (* one wire per net *)
  Netlist.iter_nets nl (fun id n ->
    Buffer.add_string buf
      (Printf.sprintf "  wire [%d:0] n%d; // %s%s\n"
         (max 0 (n.Netlist.n_width - 1))
         id
         (sanitize n.Netlist.n_name)
         (match n.Netlist.n_class with
         | Netlist.Data -> ""
         | Netlist.Data_broadcast -> " [data broadcast]"
         | Netlist.Ctrl_sync -> " [sync]"
         | Netlist.Ctrl_pipeline -> " [pipeline ctrl]")));
  (* per-cell fanin/fanout net lists *)
  let n_cells = Netlist.n_cells nl in
  let fanin = Array.make n_cells [] in
  let fanout = Array.make n_cells [] in
  Netlist.iter_nets nl (fun id n ->
    fanout.(n.Netlist.n_driver) <- id :: fanout.(n.Netlist.n_driver);
    Array.iter (fun s -> fanin.(s) <- id :: fanin.(s)) n.Netlist.n_sinks);
  Netlist.iter_cells nl (fun id c ->
    let ports =
      List.mapi (fun i n -> Printf.sprintf ".i%d(n%d)" i n) (List.rev fanin.(id))
      @ List.mapi
          (fun i n -> Printf.sprintf ".o%d(n%d)" i n)
          (List.rev fanout.(id))
    in
    let ports =
      match c.Netlist.c_kind with
      | Netlist.Seq | Netlist.Mem -> ".clk(clk)" :: ".rst(rst)" :: ports
      | Netlist.Comb | Netlist.Port_in | Netlist.Port_out -> ports
    in
    Buffer.add_string buf
      (Printf.sprintf "  %s #(.DELAY_PS(%d)) u%d_%s (%s);\n" (kind_module c)
         (int_of_float (c.Netlist.c_delay *. 1000.))
         id
         (sanitize c.Netlist.c_name)
         (String.concat ", " ports)));
  Buffer.add_string buf "endmodule\n";
  Buffer.contents buf
