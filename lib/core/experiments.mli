(** Drivers that regenerate every table and figure of the paper's
    evaluation (§5). Each [run_*] returns typed rows; {!sections} renders
    them in the paper's layout, with the shape claims computed from the
    same rows. *)

type table1_row = {
  t1_name : string;
  t1_broadcast : string;
  t1_device : string;
  t1_orig : Pipeline.result;
  t1_opt : Pipeline.result;
  t1_paper : Hlsb_designs.Spec.paper_numbers;
}

val run_table1 : ?subset:string list -> ?jobs:int -> unit -> table1_row list
(** Every {!Hlsb_designs.Suite} benchmark (or the named subset), original
    vs optimized.
    Benchmarks compile independently and fan out across the
    {!Hlsb_util.Pool}; rows come back in benchmark order regardless of the
    job count. *)

val improvement_pct : orig:Pipeline.result -> opt:Pipeline.result -> float
(** Relative Fmax gain in percent, the paper's "Diff" column. Returns
    [0.] when the baseline Fmax is zero or non-finite (a degenerate
    compile) instead of letting [inf]/[nan] reach the report tables. *)

type variant_row = {
  vr_label : string;
  vr_result : Pipeline.result;
  vr_paper_mhz : int option;
}

val run_table2 : ?width:int -> unit -> variant_row list
(** 512-wide vector product: stall / skid / min-area skid (§5.4). *)

type fig9_series = {
  f9_label : string;
  f9_rows : Hlsb_delay.Calibrate.curve_row list;
}

val run_fig9 : unit -> fig9_series list
(** Delay vs broadcast factor on UltraScale+: int add, BRAM write (by
    depth), float mul. *)

type fig15_row = {
  f15_unroll : int;
  f15_hls_est_ns : float;  (** the HLS tool's view of the worst chain *)
  f15_our_est_ns : float;  (** same chain under calibrated delays *)
  f15_actual_ns : float;  (** post-route critical path of that schedule *)
  f15_orig_mhz : float;  (** Fig. 15b: baseline schedule *)
  f15_opt_mhz : float;  (** Fig. 15b: broadcast-aware schedule *)
}

val run_fig15 : ?factors:int list -> unit -> fig15_row list

type fig16_row = {
  f16_iterations : int;
  f16_stages : int;
  f16_stall_mhz : float;
  f16_skid_mhz : float;
}

val run_fig16 : ?iterations:int list -> unit -> fig16_row list

type fig17_result = {
  f17_widths : int array;  (** live bits at each stage boundary *)
  f17_out_width : int;
  f17_end_only_bits : int;
  f17_min_area_bits : int;
  f17_cuts : int list;
}

val run_fig17 : ?width:int -> unit -> fig17_result

type fig19_row = {
  f19_words : int;
  f19_bram_pct : float;
  f19_orig_mhz : float;
  f19_data_opt_mhz : float;
  f19_full_opt_mhz : float;
}

val run_fig19 : ?sizes:int list -> unit -> fig19_row list

(** {1 Sections}

    The one list every experiment driver reads: each [hlsbc] table and
    figure subcommand, [hlsbc experiments], and the generated blocks of
    EXPERIMENTS.md. *)

type shape = { claim : string; holds : bool }
(** One of the paper's shape claims, checked on the section's own rows. *)

type section = {
  name : string;  (** the [hlsbc] subcommand, e.g. ["table1"] *)
  title : string;
  render : unit -> string * shape list;
      (** the paper-layout text [hlsbc NAME] prints, and the shape
          claims computed from the same rows *)
}

val sections : section list
(** table1, table2, table3, fig9, fig15, fig16, fig17, fig19, ablation. *)

val block : section -> string
(** The section as EXPERIMENTS.md carries it: a marker line
    [<!-- experiments:NAME -->], then a fenced block holding the rendered
    text followed by one [shape: CLAIM holds] (or [FAILS]) line per
    claim. *)
