open Hlsb_ir
module Pool = Hlsb_util.Pool
module Device = Hlsb_device.Device
module Netlist = Hlsb_netlist.Netlist
module Structs = Hlsb_netlist.Structs
module Placement = Hlsb_physical.Placement
module Timing = Hlsb_physical.Timing

type point = {
  factor : int;
  measured : float;
}

let comb_time (d : Device.t) (r : Timing.report) =
  r.Timing.critical_ns -. d.Device.t_clk_q -. d.Device.t_setup

let arith (d : Device.t) op dt ~factor =
  if factor < 1 then invalid_arg "Characterize.arith: factor < 1";
  let w = Dtype.width dt in
  let nl =
    Netlist.create
      ~name:(Printf.sprintf "skel_%s_%s_f%d" (Op.to_string op) (Dtype.to_string dt) factor)
  in
  let src = Structs.add_register nl ~name:"src" ~width:w in
  let logic = Oplib.stage_delay d op dt in
  let res = Oplib.resources op dt in
  let named stem i =
    Netlist.name_str nl stem;
    Netlist.name_int nl i
  in
  let ops =
    List.init factor (fun i ->
      named "op" i;
      Netlist.add_cell nl ~kind:Netlist.Comb ~delay:logic ~res)
  in
  (* Per-instance second operand and output register, as in the paper's
     64-adder skeleton. *)
  List.iteri
    (fun i opc ->
      named "b" i;
      let opnd = Structs.add_register nl ~width:w in
      named "q" i;
      let out = Structs.add_register nl ~width:w in
      named "opnd" i;
      ignore (Netlist.add_net nl ~driver:opnd ~sinks:[ opc ] ~width:w ());
      named "out" i;
      ignore (Netlist.add_net nl ~driver:opc ~sinks:[ out ] ~width:w ()))
    ops;
  ignore
    (Netlist.add_net nl ~cls:Netlist.Data_broadcast ~name:"bcast" ~driver:src
       ~sinks:ops ~width:w ());
  let report = Timing.analyze d nl (Placement.place d nl) in
  (* Operator delay as HLS accounts for it: everything from the source
     register's output up to and including the operator's own logic — its
     input net (the broadcast) but not its output net, which belongs to the
     next operator in a chain. *)
  List.fold_left
    (fun acc opc ->
      max acc (report.Timing.arrivals.(opc) -. d.Device.t_clk_q))
    0. ops

(* Every grid point is an independent netlist build + placement + STA run,
   so curves fan the points out across the Pool; ordering (and therefore
   the result) is identical at any job count. *)
let arith_curve d op dt ~factors =
  Pool.map
    (fun f -> { factor = f; measured = arith d op dt ~factor:f })
    factors

(* One BRAM18 holds 512 words of 36 bits; a [units]-unit skeleton is a
   36-bit buffer deep enough to span exactly that many units. *)
let mem_skeleton (d : Device.t) ~units ~read =
  if units < 1 then invalid_arg "Characterize.mem_skeleton: units < 1";
  let width = 36 and depth = units * 512 in
  let nl =
    Netlist.create
      ~name:
        (Printf.sprintf "skel_mem_%s_u%d" (if read then "rd" else "wr") units)
  in
  let mb = Structs.add_membank d nl ~name:"buf" ~width ~depth () in
  if read then begin
    let out = Structs.add_register nl ~name:"capture" ~width in
    ignore
      (Netlist.add_net nl ~name:"rdata" ~driver:mb.Structs.mb_read_out
         ~sinks:[ out ] ~width ())
  end
  else begin
    let src = Structs.add_register nl ~name:"src" ~width in
    ignore (Structs.connect_write nl ~name:"wdata" ~driver:src mb ~width)
  end;
  let report = Timing.analyze d nl (Placement.place d nl) in
  (comb_time d report, mb.Structs.mb_n_units)

let mem_curve d ~units ~read =
  Pool.map
    (fun u ->
      let measured, n = mem_skeleton d ~units:u ~read in
      { factor = n; measured })
    units

let mem_write_curve d ~units = mem_curve d ~units ~read:false
let mem_read_curve d ~units = mem_curve d ~units ~read:true
