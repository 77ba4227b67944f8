open Hlsb_ir
module Device = Hlsb_device.Device
module Macro = Hlsb_netlist.Macro
module Netlist = Hlsb_netlist.Netlist

(* Reference logic delays on UltraScale+; other devices scale by their LUT
   speed. Values track the orders of magnitude in Vivado's datasheets and
   the paper (int sub predicted at 0.78 ns in section 5.2). *)

let f32_or_f64 dt = match dt with Dtype.Float64 -> `F64 | _ -> `F32

(* Full combinational delay of each macro (UltraScale+ reference); the
   intrinsic pipeline registers divide it into per-stage delays. *)
(* [base_logic] and [logic_delay] are inlined into their callers in this
   module; a call would box the float it returns (lowering asks for one
   delay per operator cell). *)
let[@inline] base_logic op dt =
  let w = Dtype.width dt in
  let fw = float_of_int w in
  match op with
  | Op.Add | Op.Sub -> 0.10 +. (0.007 *. fw)
  | Op.Mul -> 2.60 +. (0.01 *. fw)
  | Op.Div -> 1.50 +. (0.42 *. fw)
  | Op.Fadd | Op.Fsub -> ( match f32_or_f64 dt with `F32 -> 4.30 | `F64 -> 7.50)
  | Op.Fmul -> (match f32_or_f64 dt with `F32 -> 3.60 | `F64 -> 6.50)
  | Op.Fdiv -> (match f32_or_f64 dt with `F32 -> 14.0 | `F64 -> 31.0)
  | Op.And_ | Op.Or_ | Op.Xor | Op.Not -> 0.12
  | Op.Shl | Op.Shr -> 0.24 +. (0.002 *. fw)
  | Op.Icmp _ -> 0.10 +. (0.005 *. fw)
  | Op.Fcmp _ -> 1.10
  | Op.Select -> 0.13
  | Op.Min | Op.Max | Op.Abs -> 0.22 +. (0.009 *. fw)
  | Op.Log2 -> 0.30 +. (0.005 *. fw)
  | Op.Concat | Op.Slice _ -> 0.02

let[@inline] logic_delay (d : Device.t) op dt =
  base_logic op dt *. (d.Device.t_lut /. 0.12)

let rec stage_delay d op dt =
  logic_delay d op dt /. float_of_int (latency_cycles op dt + 1)

(* HLS prediction (per stage) = logic + a fixed "typical small net" routing
   allowance. For floating point the tool is deliberately conservative
   (Fig. 9, multiplication panel). *)
and predicted op dt =
  let stage = base_logic op dt /. float_of_int (latency_cycles op dt + 1) in
  match op with
  | Op.Fmul -> stage *. 2.6
  | Op.Fadd | Op.Fsub | Op.Fdiv -> stage *. 1.9
  | Op.Add | Op.Sub | Op.Mul | Op.Div | Op.And_ | Op.Or_ | Op.Xor | Op.Not
  | Op.Shl | Op.Shr | Op.Icmp _ | Op.Fcmp _ | Op.Select | Op.Min | Op.Max
  | Op.Abs | Op.Log2 | Op.Concat | Op.Slice _ ->
    stage +. 0.45

and latency_cycles op dt =
  match op with
  | Op.Fadd | Op.Fsub -> ( match f32_or_f64 dt with `F32 -> 4 | `F64 -> 7)
  | Op.Fmul -> (match f32_or_f64 dt with `F32 -> 3 | `F64 -> 6)
  | Op.Fdiv -> (match f32_or_f64 dt with `F32 -> 12 | `F64 -> 28)
  | Op.Fcmp _ -> 1
  | Op.Mul -> if Dtype.width dt <= 18 then 1 else 2
  | Op.Div -> max 2 (Dtype.width dt / 4)
  | Op.Add | Op.Sub | Op.And_ | Op.Or_ | Op.Xor | Op.Not | Op.Shl | Op.Shr
  | Op.Icmp _ | Op.Select | Op.Min | Op.Max | Op.Abs | Op.Log2 | Op.Concat
  | Op.Slice _ ->
    0

let resources op dt : Netlist.resources =
  let w = Dtype.width dt in
  match op with
  | Op.Add | Op.Sub -> Macro.int_add w
  | Op.Mul -> Macro.int_mul w
  | Op.Div -> Macro.int_div w
  | Op.Fadd | Op.Fsub -> Macro.float_add (f32_or_f64 dt)
  | Op.Fmul -> Macro.float_mul (f32_or_f64 dt)
  | Op.Fdiv -> Macro.float_div (f32_or_f64 dt)
  | Op.And_ | Op.Or_ | Op.Xor | Op.Not -> Macro.logic w
  | Op.Shl | Op.Shr -> Macro.shifter w
  | Op.Icmp _ -> Macro.compare_ w
  | Op.Fcmp _ -> Macro.compare_ 32
  | Op.Select -> Macro.mux2 w
  | Op.Min | Op.Max | Op.Abs ->
    Netlist.add_res (Macro.compare_ w) (Macro.mux2 w)
  | Op.Log2 -> Macro.priority_encoder w
  | Op.Concat | Op.Slice _ -> Netlist.zero_res

let mem_read_predicted = 2.32
let mem_write_predicted = 1.85
