(** Netlist exporters: GraphViz DOT for inspection of broadcast structure,
    and a flat structural-Verilog view of the macro netlist (one module,
    cells as primitive instances) for interoperability with standard RTL
    tooling. The Verilog is *structural documentation* of the macro
    netlist — each macro cell becomes an opaque instance — rather than a
    synthesizable implementation of the operators themselves. *)

val to_dot : Netlist.t -> string
(** GraphViz digraph: cells as nodes (shape by kind), nets as edges
    (colored by class); nets with fanout >= 16 are drawn bold red so
    broadcast structures stand out. *)

val to_verilog : Netlist.t -> string
(** One flat Verilog module named after the netlist. Sequential cells
    become registered assignments, combinational macros become opaque
    `hlsb_<kind>` instances with input/output ports per net, memory units
    become `hlsb_bram18` instances. Deterministic output (cell order). *)
