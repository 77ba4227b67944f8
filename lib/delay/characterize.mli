(** Skeleton-design characterization (§4.1): "we implement skeleton
    broadcast structures on an empty FPGA to obtain the post-routed delay".

    For arithmetic, one source register feeds [factor] operator instances
    (e.g. 64 adders with a common first operand); for memories, one source
    register writes a buffer that spans many physical BRAM units. The
    skeleton is placed and timed by the physical backend, and the measured
    delay is the register-to-register combinational time — what the HLS
    scheduler *should* have budgeted for the operator at that broadcast
    factor. *)

open Hlsb_ir

type point = {
  factor : int;  (** broadcast factor (arith) or BRAM-unit count (mem) *)
  measured : float;  (** post-route delay, ns *)
}

val arith : Hlsb_device.Device.t -> Op.t -> Dtype.t -> factor:int -> float
(** Measured delay of one operator at the given broadcast factor. *)

val arith_curve :
  Hlsb_device.Device.t ->
  Op.t ->
  Dtype.t ->
  factors:int array ->
  point array
(** Per-factor skeleton runs are independent and fan out across the
    {!Hlsb_util.Pool} (default job count); results are index-ordered, so the
    curve is identical for every job count. *)

val mem_write_curve : Hlsb_device.Device.t -> units:int array -> point array
(** Measured delay of a register -> every-BRAM-unit store, per buffer
    spanning that many physical BRAM18 units. The unit count — not the
    logical width/depth split — is what determines the broadcast cost, so
    curves are characterized once per device over unit counts. *)

val mem_read_curve : Hlsb_device.Device.t -> units:int array -> point array
(** Measured delay of a BRAM-units -> cascade-mux -> register load. *)
