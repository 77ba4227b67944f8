(** Calibrated delay model (§4.1): for each (operator, datatype) the
    measured broadcast-delay curve is sampled on a log-spaced factor grid,
    each point is averaged with its neighbours to suppress backend noise,
    and the calibrated delay is

      max(HLS-predicted, smoothed measurement)

    — matching the paper's choice ("we choose the maximum between the
    HLS-predicted delay and our experimented results"), which keeps the
    tool conservative where the vendor model already is (float multiply)
    and fixes it where it is blind (large broadcasts). *)

open Hlsb_ir

type t

val create : ?window:int -> ?cache_dir:string -> Hlsb_device.Device.t -> t
(** [window] is the neighbour-smoothing half-width (default 1). Curves are
    characterized lazily and cached per (op, dtype). When [cache_dir] is
    given, each raw curve is also persisted as one {!Hlsb_util.Store}
    entry rooted there (namespace ["cal"], keyed on
    {!Hlsb_device.Device.fingerprint}, the curve name and its grid, plus
    the build id every store key carries) and reloaded on later runs
    instead of being re-characterized. Smoothing is applied in memory: it
    depends on the window, which is deliberately not part of the key. A
    store that cannot be written costs only persistence; answers still
    come from memory; the first failed write in a process prints one
    [warning[store]] line, and every one counts
    [calibrate.persist_errors]. *)

val smooth_neighbors : window:int -> float array -> float array
(** [smooth_neighbors ~window xs] averages each point with up to [window]
    neighbours on each side (a centered moving average, truncated at the
    boundaries): the smoothing {!create} applies to every raw curve.
    [window = 0] is the identity. Raises [Invalid_argument] if
    [window < 0]. *)

val ambient_dir : unit -> string option
(** [$HLSB_CACHE_DIR], else [$XDG_CACHE_HOME/hlsb], else
    [$HOME/.cache/hlsb]; [None] when [HLSB_CACHE_DIR] is the empty
    string or no base directory can be resolved. *)

val device : t -> Hlsb_device.Device.t

val factor_grid : int array
(** The log-spaced broadcast factors at which curves are sampled. *)

val unit_grid : int array
(** BRAM18 unit counts at which memory curves are sampled (once per device
    — the unit count, not the width/depth split, sets the broadcast cost). *)

type resolved
(** One (op, dtype) curve, looked up once: for schedulers that read the
    same operator's delay at many factors. *)

val resolve : t -> Op.t -> Dtype.t -> resolved
(** Find (building or loading on first use) the (op, dtype) curve. *)

val resolved_delay : resolved -> factor:int -> float
(** Calibrated delay at any factor >= 1 (log-interpolated between grid
    points, clamped beyond). Raises [Invalid_argument] on [factor < 1]. *)

val mem_write_delay : t -> width:int -> depth:int -> float
(** Calibrated store delay for a buffer of the given geometry. *)

val mem_read_delay : t -> width:int -> depth:int -> float

type curve_row = {
  cr_factor : int;
  cr_predicted : float;
  cr_measured : float;
  cr_calibrated : float;
}

val op_curve : t -> Op.t -> Dtype.t -> curve_row list
(** The Fig. 9 series for one operator. *)

val mem_curve : t -> width:int -> curve_row list
(** The Fig. 9 BRAM-access series; [cr_factor] is the equivalent 36-bit
    buffer depth in words. Uses the write path (the harsher of the two). *)

val warm : ?ops:(Op.t * Dtype.t) list -> ?mem:bool -> t -> unit
(** Force characterization (or cache load) of the given operator curves and,
    when [mem] is true (default), the memory curves — used by
    [hlsbc calibrate --warm] to populate the persistent cache ahead of
    time. *)

val shared : ?window:int -> Hlsb_device.Device.t -> t
(** A process-wide memoized instance per (device, window): characterization
    curves are expensive, and every design on the same device can reuse
    them. Shared instances persist to the ambient cache directory
    ({!ambient_dir}) when one is available. Thread-safe. *)
