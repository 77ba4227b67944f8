(** Broadcast classification (the paper's contribution #2): given a design,
    report every timing-relevant broadcast structure it contains, sorted
    into the paper's taxonomy — data broadcasts (§3.1), synchronization
    broadcasts (§3.2) and pipeline-control broadcasts (§3.3) — before any
    netlist is generated (source-level, from the IR). After lowering, each
    netlist net carries its class ({!Hlsb_netlist.Netlist.net_class}). *)

open Hlsb_ir

type source_broadcast = {
  b_kernel : string;
  b_node : int;
  b_what : string;  (** producer description *)
  b_reads : int;  (** how many instructions read the value *)
}

type mem_broadcast = {
  m_kernel : string;
  m_buffer : string;
  m_units : int;  (** physical BRAM units the access fans out to *)
}

type report = {
  data_broadcasts : source_broadcast list;  (** reads >= 8, desc *)
  mem_broadcasts : mem_broadcast list;  (** units >= 8, desc *)
  sync_domains : (int * int) list;
      (** per sync group: (members, reduce+broadcast fanout) *)
  pipeline_domains : (string * int) list;
      (** per kernel: sequential elements a stall net would have to reach *)
}

val analyze : Dataflow.t -> report
(** A value read by at least 8 instructions is a data broadcast, and a
    buffer spanning at least 8 BRAM units a memory broadcast. *)

val to_string : report -> string
