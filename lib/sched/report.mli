(** The schedule report — the analogue of the HLS [.rpt] files the paper's
    tool parses (§4.1: "we parse the HLS scheduling reports, which include
    the LLVM instructions annotated with scheduled state/cycle, estimated
    delay"). Downstream passes consume it: synchronization pruning reads
    kernel latencies, and the min-area skid-buffer DP reads the per-stage
    live data widths. *)

val to_string : Schedule.t -> string
(** Human-readable per-cycle listing: node, op, delay, broadcast factor. *)

val stage_widths : Schedule.t -> int array
(** [stage_widths s].(b) is the total bit width of values live across the
    boundary after cycle [b] (length = depth - 1). This is the w_alpha /
    w_beta profile of §4.3 (Fig. 17), extracted exactly as the paper does:
    from each value's definition and last-use cycles in the schedule. *)

val chain_delays : Schedule.t -> float array
(** Worst chained delay per cycle (ns); max over this array is the
    scheduler's own estimate of the critical path (Fig. 15a "our tool"
    series). *)

val chain_delays_calibrated :
  Hlsb_delay.Calibrate.t -> Schedule.t -> float array
(** Re-evaluate each cycle's chain with *calibrated* delays at the
    schedule's own broadcast factors: what the chains will really cost
    post-route. For a baseline schedule this exposes the violations the
    HLS tool cannot see; for a broadcast-aware schedule it stays within
    target. *)

val violations :
  Hlsb_delay.Calibrate.t -> Schedule.t -> (int * float) list
(** Cycles whose calibrated chain delay exceeds the target, with the
    excess delay (ns). *)
