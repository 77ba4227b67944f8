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

(* Nets with at least this fanout are drawn as broadcasts. *)
let max_fanout_highlight = 16

let to_dot nl =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "digraph %s {\n  rankdir=LR;\n  node [fontsize=9];\n"
       (sanitize (Netlist.name nl)));
  for id = 0 to Netlist.n_cells nl - 1 do
    let kind = Netlist.kind nl id in
    let style =
      match kind with
      | Netlist.Seq -> ", style=filled, fillcolor=lightblue"
      | Netlist.Mem -> ", style=filled, fillcolor=khaki"
      | Netlist.Comb | Netlist.Port_in | Netlist.Port_out -> ""
    in
    Buffer.add_string buf
      (Printf.sprintf "  c%d [label=\"%s\", shape=%s%s];\n" id
         (sanitize (Netlist.cell_name nl id))
         (kind_shape kind) style)
  done;
  for n = 0 to Netlist.n_nets nl - 1 do
    let fanout = Netlist.fanout nl n in
    let attrs =
      if fanout >= max_fanout_highlight then
        Printf.sprintf "color=red, penwidth=2.0, label=\"%s (fo %d)\""
          (sanitize (Netlist.net_name nl n)) fanout
      else Printf.sprintf "color=%s" (class_color (Netlist.net_class nl n))
    in
    for k = 0 to fanout - 1 do
      Buffer.add_string buf
        (Printf.sprintf "  c%d -> c%d [%s];\n" (Netlist.driver nl n)
           (Netlist.sink nl n k) attrs)
    done
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let kind_module = function
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
  for id = 0 to Netlist.n_nets nl - 1 do
    Buffer.add_string buf
      (Printf.sprintf "  wire [%d:0] n%d; // %s%s\n"
         (max 0 (Netlist.width nl id - 1))
         id
         (sanitize (Netlist.net_name nl id))
         (match Netlist.net_class nl id with
         | Netlist.Data -> ""
         | Netlist.Data_broadcast -> " [data broadcast]"
         | Netlist.Ctrl_sync -> " [sync]"
         | Netlist.Ctrl_pipeline -> " [pipeline ctrl]"))
  done;
  (* per-cell fanin/fanout net lists *)
  let n_cells = Netlist.n_cells nl in
  let fanin = Array.make n_cells [] in
  let fanout = Array.make n_cells [] in
  for id = 0 to Netlist.n_nets nl - 1 do
    let d = Netlist.driver nl id in
    fanout.(d) <- id :: fanout.(d);
    for k = 0 to Netlist.fanout nl id - 1 do
      let s = Netlist.sink nl id k in
      fanin.(s) <- id :: fanin.(s)
    done
  done;
  for id = 0 to n_cells - 1 do
    let ports =
      List.mapi (fun i n -> Printf.sprintf ".i%d(n%d)" i n) (List.rev fanin.(id))
      @ List.mapi
          (fun i n -> Printf.sprintf ".o%d(n%d)" i n)
          (List.rev fanout.(id))
    in
    let kind = Netlist.kind nl id in
    let ports =
      match kind with
      | Netlist.Seq | Netlist.Mem -> ".clk(clk)" :: ".rst(rst)" :: ports
      | Netlist.Comb | Netlist.Port_in | Netlist.Port_out -> ports
    in
    Buffer.add_string buf
      (Printf.sprintf "  %s #(.DELAY_PS(%d)) u%d_%s (%s);\n" (kind_module kind)
         (int_of_float (Netlist.delay nl id *. 1000.))
         id
         (sanitize (Netlist.cell_name nl id))
         (String.concat ", " ports))
  done;
  Buffer.add_string buf "endmodule\n";
  Buffer.contents buf
