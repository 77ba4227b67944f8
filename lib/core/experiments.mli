(** Drivers that regenerate every table and figure of the paper's
    evaluation (§5). Each [run_*] returns typed rows; each [render_*]
    formats them in the paper's layout. The bench executable calls these;
    EXPERIMENTS.md records their output against the paper's numbers. *)

type table1_row = {
  t1_name : string;
  t1_broadcast : string;
  t1_device : string;
  t1_orig : Pipeline.result;
  t1_opt : Pipeline.result;
  t1_paper : Hlsb_designs.Spec.paper_numbers;
}

val run_table1 : ?subset:string list -> ?jobs:int -> unit -> table1_row list
(** All nine benchmarks (or the named subset), original vs optimized.
    Benchmarks compile independently and fan out across the
    {!Hlsb_util.Pool}; rows come back in benchmark order regardless of the
    job count. *)

val improvement_pct : orig:Pipeline.result -> opt:Pipeline.result -> float
(** Relative Fmax gain in percent, the paper's "Diff" column. Returns
    [0.] when the baseline Fmax is zero or non-finite (a degenerate
    compile) instead of letting [inf]/[nan] reach the report tables. *)

val render_table1 : table1_row list -> string

type variant_row = {
  vr_label : string;
  vr_result : Pipeline.result;
  vr_paper_mhz : int option;
}

val run_table2 : ?width:int -> unit -> variant_row list
(** 512-wide vector product: stall / skid / min-area skid (§5.4). *)

val run_table3 : unit -> variant_row list
(** Pattern matching: original / data-opt / data+ctrl-opt (§5.5). *)

val render_variants : title:string -> variant_row list -> string

type fig9_series = {
  f9_label : string;
  f9_rows : Hlsb_delay.Calibrate.curve_row list;
}

val run_fig9 :
  ?device:Hlsb_device.Device.t -> ?jobs:int -> unit -> fig9_series list
(** Delay vs broadcast factor: int add, BRAM write (by depth), float mul. *)

val render_fig9 : fig9_series list -> string

type fig15_row = {
  f15_unroll : int;
  f15_hls_est_ns : float;  (** the HLS tool's view of the worst chain *)
  f15_our_est_ns : float;  (** same chain under calibrated delays *)
  f15_actual_ns : float;  (** post-route critical path of that schedule *)
  f15_orig_mhz : float;  (** Fig. 15b: baseline schedule *)
  f15_opt_mhz : float;  (** Fig. 15b: broadcast-aware schedule *)
}

val run_fig15 : ?factors:int list -> ?jobs:int -> unit -> fig15_row list
val render_fig15 : fig15_row list -> string

type fig16_row = {
  f16_iterations : int;
  f16_stages : int;
  f16_stall_mhz : float;
  f16_skid_mhz : float;
}

val run_fig16 : ?iterations:int list -> ?jobs:int -> unit -> fig16_row list
val render_fig16 : fig16_row list -> string

type fig17_result = {
  f17_widths : int array;  (** live bits at each stage boundary *)
  f17_out_width : int;
  f17_end_only_bits : int;
  f17_min_area_bits : int;
  f17_cuts : int list;
}

val run_fig17 : ?width:int -> unit -> fig17_result
val render_fig17 : fig17_result -> string

type fig19_row = {
  f19_words : int;
  f19_bram_pct : float;
  f19_orig_mhz : float;
  f19_data_opt_mhz : float;
  f19_full_opt_mhz : float;
}

val run_fig19 : ?sizes:int list -> ?jobs:int -> unit -> fig19_row list
val render_fig19 : fig19_row list -> string

type ablation_row = {
  ab_label : string;
  ab_value : float;
  ab_unit : string;
}

val run_ablations : unit -> ablation_row list
(** The DESIGN.md §8 design-choice ablations: smoothing window, skid
    placement strategy, sync pruning granularity. *)

val render_ablations : ablation_row list -> string

type scale_row = {
  sc_label : string;
  sc_bits : int;  (** operand width per lane *)
  sc_limb : int;
  sc_lanes : int;
  sc_cells : int;
  sc_nets : int;
  sc_fmax_mhz : float;
  sc_stage_ms : (string * float) list;
      (** wall-clock of each pipeline stage that actually ran *)
  sc_total_ms : float;  (** elaborate -> report, sum of the above *)
  sc_cells_per_sec : float;  (** cells / total compile seconds *)
  sc_sta_full_ms : float;
      (** a context-free {!Hlsb_physical.Timing.analyze} query: rebuild
          the arrays, re-time every net, propagate *)
  sc_sta_refresh_ms : float;
      (** re-time + re-propagate after a 4-cell ECO nudge *)
  sc_refreshed_nets : int;  (** net delays recomputed by that refresh *)
}

val run_scale :
  ?points:(string * (int * int * int)) list -> ?jobs:int -> unit -> scale_row list
(** Compile the {!Hlsb_designs.Bigmul} wide-arithmetic sweep (default
    [Bigmul.sweep]: ~7k, ~29k and ~104k cells) end to end, recording
    per-stage wall-clock and compile throughput, then exercise the
    incremental-STA path ({!Hlsb_physical.Timing.prepare} /
    [refresh] / [analyze_ctx]) against a small placement nudge. Each
    [points] element is [(label, (bits, limb, lanes))]. *)

val render_scale : scale_row list -> string
