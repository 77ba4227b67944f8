open Hlsb_ir
module Device = Hlsb_device.Device
module Metrics = Hlsb_telemetry.Metrics
module Store = Hlsb_util.Store
module Diag = Hlsb_util.Diag

type curves = {
  raw : float array;
  smoothed : float array;
}

(* Thread-safe via immutable snapshots: the op curves live in one
   immutable assoc list behind an [Atomic] and each memory curve in an
   [Atomic] of its own, so warm lookups are a plain [Atomic.get] (plus an
   assoc scan for ops) — no lock, no allocation, no serialization across
   domains. Inserts copy-and-CAS; a same-key race wastes one rebuild but
   both results are identical (characterization is deterministic), so
   whichever insert wins is indistinguishable and the loser adopts it.

   Persistence is one {!Store} entry per raw curve under namespace "cal",
   keyed on the device fingerprint, the curve name and its grid (and,
   through [Store.key], the build id). A put is synchronous and
   idempotent — the same key always gets the same bytes — so concurrent
   builders in any process need no coordination, and a fresh process
   over the same directory starts warm. *)
type t = {
  dev : Device.t;
  window : int;
  disk : Store.t option;
  ops : (string * curves) list Atomic.t;  (* "op/dtype" -> curves *)
  mem_rd : curves option Atomic.t;
  mem_wr : curves option Atomic.t;
}

let factor_grid = [| 1; 2; 4; 8; 16; 32; 64; 128; 256; 512 |]
let unit_grid = [| 1; 4; 16; 64; 256; 1024; 4096 |]
let depth_grid = Array.map (fun u -> u * 512) unit_grid

(* $HLSB_CACHE_DIR ("" disables caching entirely), else
   $XDG_CACHE_HOME/hlsb, else $HOME/.cache/hlsb, else disabled. *)
let ambient_dir () =
  let non_empty v =
    match Sys.getenv_opt v with Some d when d <> "" -> Some d | _ -> None
  in
  match Sys.getenv_opt "HLSB_CACHE_DIR" with
  | Some "" -> None
  | Some d -> Some d
  | None ->
    Option.map
      (fun b -> Filename.concat b "hlsb")
      (match non_empty "XDG_CACHE_HOME" with
      | Some d -> Some d
      | None -> Option.map (fun h -> Filename.concat h ".cache") (non_empty "HOME"))

let create ?(window = 1) ?cache_dir dev =
  if window < 0 then invalid_arg "Calibrate.create: negative window";
  {
    dev;
    window;
    disk = Option.map (fun root -> Store.open_ ~root ()) cache_dir;
    ops = Atomic.make [];
    mem_rd = Atomic.make None;
    mem_wr = Atomic.make None;
  }

let device t = t.dev

let op_key op dt = Op.to_string op ^ "/" ^ Dtype.to_string dt

(* Exact text for a raw curve: [%h] round-trips every float bit for bit. *)
let encode raw =
  String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") raw))

let decode ~len text =
  let vals =
    List.filter_map float_of_string_opt (String.split_on_char ' ' text)
  in
  if List.length vals = len then Some (Array.of_list vals) else None

(* A curve that cannot be persisted is still answered from memory, but
   every later process pays to re-characterize it: say so once per
   process, and count every failure. *)
let persist_warned = Atomic.make false

let persist_failed msg =
  Metrics.incr "calibrate.persist_errors";
  if not (Atomic.exchange persist_warned true) then
    prerr_endline
      (Diag.to_string
         (Diag.warning ~stage:"store"
            ("calibration curves are not persisted: " ^ msg)))

(* The raw curve from the store, or built and published. *)
let raw_curve t ~name ~grid build =
  let key =
    Store.key
      ~parts:
        [
          Device.fingerprint t.dev;
          name;
          String.concat "," (Array.to_list (Array.map string_of_int grid));
        ]
  in
  let stored =
    Option.bind t.disk (fun st ->
      Option.bind (Store.find st ~ns:"cal" ~key) (decode ~len:(Array.length grid)))
  in
  match stored with
  | Some raw ->
    Metrics.incr "calibrate.cache_hits";
    raw
  | None ->
    Metrics.incr "calibrate.curve_builds";
    let raw = Array.map (fun p -> p.Characterize.measured) (build ()) in
    Option.iter
      (fun st ->
        Metrics.incr "calibrate.cache_misses";
        match Store.put st ~ns:"cal" ~key (encode raw) with
        | Ok () -> Metrics.incr "calibrate.cache_writes"
        | Error msg -> persist_failed msg)
      t.disk;
    raw

let smooth_neighbors ~window xs =
  if window < 0 then invalid_arg "Calibrate.smooth_neighbors: negative window";
  let n = Array.length xs in
  Array.init n (fun i ->
    let lo = max 0 (i - window) and hi = min (n - 1) (i + window) in
    let sum = ref 0. in
    for j = lo to hi do
      sum := !sum +. xs.(j)
    done;
    !sum /. float_of_int (hi - lo + 1))

let load t ~name ~grid build =
  let raw = raw_curve t ~name ~grid build in
  { raw; smoothed = smooth_neighbors ~window:t.window raw }

let rec insert_op t key c =
  let tbl = Atomic.get t.ops in
  match List.assoc_opt key tbl with
  | Some c' -> c'
  | None ->
    if Atomic.compare_and_set t.ops tbl ((key, c) :: tbl) then c
    else insert_op t key c

let op_curves t op dt =
  let key = op_key op dt in
  match List.assoc_opt key (Atomic.get t.ops) with
  | Some c -> c
  | None ->
    insert_op t key
      (load t ~name:key ~grid:factor_grid (fun () ->
         Characterize.arith_curve t.dev op dt ~factors:factor_grid))

let mem_curves t ~read =
  let slot = if read then t.mem_rd else t.mem_wr in
  match Atomic.get slot with
  | Some c -> c
  | None ->
    let c =
      load t
        ~name:(if read then "mem/read" else "mem/write")
        ~grid:unit_grid
        (fun () ->
          if read then Characterize.mem_read_curve t.dev ~units:unit_grid
          else Characterize.mem_write_curve t.dev ~units:unit_grid)
    in
    if Atomic.compare_and_set slot None (Some c) then c
    else Option.get (Atomic.get slot)

(* Log-linear interpolation over a positive grid. Clamp outside. *)
let interp grid values x =
  let n = Array.length grid in
  if x <= grid.(0) then values.(0)
  else if x >= grid.(n - 1) then values.(n - 1)
  else begin
    let i = ref 0 in
    while grid.(!i + 1) < x do
      incr i
    done;
    let i = !i in
    let x0 = log (float_of_int grid.(i)) and x1 = log (float_of_int grid.(i + 1)) in
    let fx = log (float_of_int x) in
    let frac = (fx -. x0) /. (x1 -. x0) in
    (values.(i) *. (1. -. frac)) +. (values.(i + 1) *. frac)
  end

(* [Stdlib.max]'s semantics without its polymorphic compare. *)
let fmax (a : float) b = if a >= b then a else b

type resolved = {
  r_predicted : float;
  r_smoothed : float array;
}

let resolve t op dt =
  let c = op_curves t op dt in
  { r_predicted = Oplib.predicted op dt; r_smoothed = c.smoothed }

let resolved_delay r ~factor =
  if factor < 1 then invalid_arg "Calibrate.resolved_delay: factor < 1";
  Metrics.incr "calibrate.lookups";
  fmax r.r_predicted (interp factor_grid r.r_smoothed factor)

let units_of ~width ~depth = Device.bram18_for ~width ~depth

let mem_write_delay t ~width ~depth =
  Metrics.incr "calibrate.lookups";
  let c = mem_curves t ~read:false in
  let u = units_of ~width ~depth in
  fmax Oplib.mem_write_predicted (interp unit_grid c.smoothed u)

let mem_read_delay t ~width ~depth =
  Metrics.incr "calibrate.lookups";
  let c = mem_curves t ~read:true in
  let u = units_of ~width ~depth in
  fmax Oplib.mem_read_predicted (interp unit_grid c.smoothed u)

type curve_row = {
  cr_factor : int;
  cr_predicted : float;
  cr_measured : float;
  cr_calibrated : float;
}

let op_curve t op dt =
  let c = op_curves t op dt in
  let pred = Oplib.predicted op dt in
  Array.to_list
    (Array.mapi
       (fun i f ->
         {
           cr_factor = f;
           cr_predicted = pred;
           cr_measured = c.raw.(i);
           cr_calibrated = max pred c.smoothed.(i);
         })
       factor_grid)

let mem_curve t ~width =
  ignore width;
  let c = mem_curves t ~read:false in
  Array.to_list
    (Array.mapi
       (fun i depth ->
         {
           cr_factor = depth;
           cr_predicted = Oplib.mem_write_predicted;
           cr_measured = c.raw.(i);
           cr_calibrated = max Oplib.mem_write_predicted c.smoothed.(i);
         })
       depth_grid)

(* Build (or load) every curve a set of designs is likely to touch. *)
let warm ?(ops = []) ?(mem = true) t =
  List.iter (fun (op, dt) -> ignore (op_curves t op dt)) ops;
  if mem then begin
    ignore (mem_curves t ~read:false);
    ignore (mem_curves t ~read:true)
  end

let shared_table : (string * int, t) Hashtbl.t = Hashtbl.create 4
let shared_lock = Mutex.create ()

let shared ?(window = 1) dev =
  Mutex.lock shared_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock shared_lock)
    (fun () ->
      let key = (dev.Device.name, window) in
      match Hashtbl.find_opt shared_table key with
      | Some t -> t
      | None ->
        let t = create ~window ?cache_dir:(ambient_dir ()) dev in
        Hashtbl.add shared_table key t;
        t)
