(** A kernel is one pipelined loop nest after unrolling: the scheduling unit.
    It corresponds to what Vivado HLS reports per [#pragma HLS pipeline]
    region. *)

type t = {
  name : string;
  dag : Dag.t;
  ii : int;  (** target initiation interval (the paper's designs use 1) *)
  trip_count : int;  (** iterations of the pipelined loop, for simulation *)
}

val create : name:string -> ?ii:int -> ?trip_count:int -> Dag.t -> t
(** Raises [Invalid_argument] if [ii < 1], [trip_count < 1], or the DAG
    fails {!Dag.validate}. Builds the DAG's consumer table
    ({!Dag.index_consumers}), so the passes that read it do not pay for it. *)

val data_width_out : t -> int
(** Total bit width of FIFO writes + outputs — the w_beta of §4.3. *)
