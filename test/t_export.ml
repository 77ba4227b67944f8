(* Exporter tests: DOT and structural Verilog. *)

module Netlist = Hlsb_netlist.Netlist
module Export = Hlsb_netlist.Export
module Structs = Hlsb_netlist.Structs

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let sample () =
  let nl = Netlist.create ~name:"samp-le" in
  let src = Structs.add_register nl ~name:"src" ~width:32 in
  let sinks =
    List.init 20 (fun i -> Structs.add_register nl ~name:(Printf.sprintf "s%d" i) ~width:32)
  in
  ignore
    (Netlist.add_net nl ~cls:Netlist.Data_broadcast ~name:"big" ~driver:src
       ~sinks ~width:32 ());
  ignore
    (Netlist.add_net nl ~name:"small" ~driver:src ~sinks:[ List.hd sinks ]
       ~width:32 ());
  nl

let test_dot_shape () =
  let dot = Export.to_dot (sample ()) in
  Alcotest.(check bool) "digraph" true (contains ~needle:"digraph samp_le" dot);
  Alcotest.(check bool) "nodes" true (contains ~needle:"c0 [label=\"src\"" dot);
  (* the 20-fanout net is highlighted *)
  Alcotest.(check bool) "broadcast highlighted" true
    (contains ~needle:"color=red" dot);
  (* edge count: 20 + 1 *)
  let edges =
    String.split_on_char '\n' dot
    |> List.filter (fun l -> contains ~needle:" -> " l)
    |> List.length
  in
  Alcotest.(check int) "edges" 21 edges

(* The highlight starts at fanout 16: one net of each side of it. *)
let test_dot_threshold () =
  let net fanout =
    let nl = Netlist.create ~name:"fo" in
    let src = Structs.add_register nl ~name:"src" ~width:8 in
    let sinks =
      List.init fanout (fun i ->
        Structs.add_register nl ~name:(Printf.sprintf "s%d" i) ~width:8)
    in
    ignore (Netlist.add_net nl ~name:"n" ~driver:src ~sinks ~width:8 ());
    Export.to_dot nl
  in
  Alcotest.(check bool) "fanout 16 red" true
    (contains ~needle:"color=red, penwidth=2.0, label=\"n (fo 16)\"" (net 16));
  Alcotest.(check bool) "fanout 15 uncoloured" false
    (contains ~needle:"color=red" (net 15))

let test_verilog_shape () =
  let v = Export.to_verilog (sample ()) in
  Alcotest.(check bool) "module" true (contains ~needle:"module samp_le" v);
  Alcotest.(check bool) "endmodule" true (contains ~needle:"endmodule" v);
  Alcotest.(check bool) "wire decl" true (contains ~needle:"wire [31:0] n0" v);
  Alcotest.(check bool) "reg instance" true (contains ~needle:"hlsb_reg" v);
  Alcotest.(check bool) "broadcast annotated" true
    (contains ~needle:"[data broadcast]" v);
  Alcotest.(check bool) "clock plumbed" true (contains ~needle:".clk(clk)" v)

let test_verilog_full_design () =
  (* the whole stream buffer design exports without error and mentions its
     memory units *)
  let r =
    Core.Pipeline.run_exn
      (Core.Pipeline.of_spec
         (Option.get (Hlsb_designs.Suite.find "Pattern Matching")))
      ~recipe:Hlsb_ctrl.Style.original
  in
  let v = Export.to_verilog r.Core.Pipeline.fr_design.Hlsb_rtlgen.Design.netlist in
  Alcotest.(check bool) "bram units present" true (contains ~needle:"hlsb_bram18" v);
  Alcotest.(check bool) "nontrivial" true (String.length v > 10_000)

let test_deterministic () =
  let a = Export.to_verilog (sample ()) in
  let b = Export.to_verilog (sample ()) in
  Alcotest.(check string) "stable output" a b

let suite =
  [
    Alcotest.test_case "dot shape" `Quick test_dot_shape;
    Alcotest.test_case "dot threshold" `Quick test_dot_threshold;
    Alcotest.test_case "verilog shape" `Quick test_verilog_shape;
    Alcotest.test_case "verilog full design" `Quick test_verilog_full_design;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
  ]
