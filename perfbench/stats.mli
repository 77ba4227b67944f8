(** The arithmetic behind every figure the benchmark reports, kept free
    of I/O so the tests in [test/] can pin it down. *)

val median : float array -> float
(** Median of a non-empty sample (mean of the two middle values for an
    even count). Infinite values sort last. *)

type tail = {
  tl_value : float;
  tl_percentile : float;  (** the percentile [tl_value] sits at, 0-100 *)
  tl_beyond : int;  (** samples ranked above it *)
}

val tail : float array -> tail
(** The highest percentile with at least 10 samples ranked above it:
    with [n > 10] samples sorted ascending, the sample at rank [n - 10]
    (1-based), i.e. the nearest-rank percentile [100 * (n - 10) / n].
    With [n <= 10] samples no percentile qualifies, and the maximum is
    returned with [tl_beyond = 0]. Raises [Invalid_argument] on an empty
    sample. *)

val geomean : float list -> float
(** Geometric mean of positive values; [nan] for an empty list. *)

val fail_ratio : attempted:int -> failed:int -> float
(** [failed / attempted]; [Invalid_argument] unless
    [0 <= failed <= attempted] and [attempted >= 1]. *)

val latencies : (float * bool) list -> float array
(** Op latencies with each failed op ([false]) replaced by [infinity]: a
    failed op misses every latency figure. *)

type span = { sp_id : int; sp_parent : int; sp_start : float; sp_stop : float }
(** An interval with its parent's id ([-1] for a root). *)

val covered : lo:float -> hi:float -> (float * float) list -> float
(** Length of the union of the intervals, each clipped to [\[lo, hi\]]. *)

val self_times : span list -> (int * float) list
(** Each span's self time: its length minus the part of it covered by
    its direct children's intervals (overlapping children count once).
    In input order. *)
