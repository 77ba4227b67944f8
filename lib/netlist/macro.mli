(** Resource footprints of the macro cells HLS instantiates, following
    7-series/UltraScale mapping conventions (LUT6 + carry chains, DSP48,
    BRAM18). Logic *delays* live in the delay library; this module only
    answers "how big is it". *)

open Netlist

val int_add : int -> resources
(** Ripple/carry adder of the given width. *)

val int_mul : int -> resources
(** DSP-mapped integer multiplier: ceil(w/27) x ceil(w/18) DSP48 blocks. *)

val int_div : int -> resources
(** LUT-based radix-2 divider (HLS default for variable divisors). *)

val float_add : [ `F32 | `F64 ] -> resources
val float_mul : [ `F32 | `F64 ] -> resources
val float_div : [ `F32 | `F64 ] -> resources

val compare_ : int -> resources
val logic : int -> resources
(** Bitwise and/or/xor/not of the given width. *)

val mux2 : int -> resources
(** 2:1 mux (a C ternary / select). *)

val shifter : int -> resources
(** Barrel shifter. *)

val priority_encoder : int -> resources
(** The [log2] if-else chain. *)

val register : int -> resources

val fifo : width:int -> depth:int -> resources
(** Small/shallow FIFOs map to LUTRAM + control; deep or wide ones to
    BRAM. The threshold (depth > 64 or width*depth > 1024 bits) follows the
    usual HLS implementation choice. *)

val fsm : states:int -> resources
(** One-hot FSM state register + next-state logic. *)
