(* Delay library tests: the Fig. 9 properties of the HLS prediction, the
   skeleton characterization, and the calibration rule. *)

open Hlsb_ir
module Oplib = Hlsb_delay.Oplib
module Characterize = Hlsb_delay.Characterize
module Calibrate = Hlsb_delay.Calibrate
module Store = Hlsb_util.Store
module Device = Hlsb_device.Device
module Metrics = Hlsb_telemetry.Metrics
module Pool = Hlsb_util.Pool

let dev = Device.ultrascale_plus
let i32 = Dtype.Int 32

let test_predicted_fanout_blind () =
  (* the defining limitation of the HLS model (section 2): the same number
     no matter the environment — it does not even take a fanout argument,
     and must be strictly positive for datapath ops *)
  List.iter
    (fun op ->
      Alcotest.(check bool)
        (Op.to_string op ^ " positive")
        true
        (Oplib.predicted op i32 > 0.))
    [ Op.Add; Op.Mul; Op.Icmp Op.Lt; Op.Select; Op.Log2 ]

let test_predicted_magnitudes () =
  (* the paper quotes sub at 0.78 ns on UltraScale+ *)
  let sub = Oplib.predicted Op.Sub i32 in
  Alcotest.(check bool) "sub ~ 0.78ns" true (sub > 0.6 && sub < 0.95);
  (* wider adders are slower *)
  Alcotest.(check bool) "width matters" true
    (Oplib.predicted Op.Add (Dtype.Int 64) > Oplib.predicted Op.Add (Dtype.Int 8))

let test_float_conservative () =
  (* Fig. 9: the vendor model is deliberately conservative for fmul: the
     prediction exceeds the measured delay at small factors *)
  let pred = Oplib.predicted Op.Fmul Dtype.Float32 in
  let measured = Characterize.arith dev Op.Fmul Dtype.Float32 ~factor:1 in
  Alcotest.(check bool) "prediction above reality" true (pred > measured)

let test_int_prediction_matches_small_factor () =
  (* Fig. 9: "the delay values obtained by our experiments perfectly match
     with the Vivado-HLS-predicted values when the broadcast factor is
     small" *)
  let pred = Oplib.predicted Op.Add i32 in
  let measured = Characterize.arith dev Op.Add i32 ~factor:1 in
  Alcotest.(check bool) "within 20%" true
    (abs_float (measured -. pred) /. pred < 0.2)

let test_measured_grows_with_factor () =
  let m1 = Characterize.arith dev Op.Add i32 ~factor:1 in
  let m64 = Characterize.arith dev Op.Add i32 ~factor:64 in
  let m512 = Characterize.arith dev Op.Add i32 ~factor:512 in
  Alcotest.(check bool) "64 > 1" true (m64 > m1 *. 1.3);
  Alcotest.(check bool) "512 > 64" true (m512 > m64)

let test_latency_cycles () =
  Alcotest.(check int) "add comb" 0 (Oplib.latency_cycles Op.Add i32);
  Alcotest.(check bool) "fadd pipelined" true
    (Oplib.latency_cycles Op.Fadd Dtype.Float32 >= 3);
  Alcotest.(check bool) "f64 deeper" true
    (Oplib.latency_cycles Op.Fadd Dtype.Float64
    > Oplib.latency_cycles Op.Fadd Dtype.Float32)

let test_stage_delay_divides () =
  let full = Oplib.logic_delay dev Op.Fmul Dtype.Float32 in
  let stage = Oplib.stage_delay dev Op.Fmul Dtype.Float32 in
  let lat = Oplib.latency_cycles Op.Fmul Dtype.Float32 in
  Alcotest.(check (float 1e-9)) "stage = full / (lat+1)"
    (full /. float_of_int (lat + 1))
    stage

let test_mem_measured_grows_with_units () =
  match Characterize.mem_write_curve dev ~units:[| 1; 256 |] with
  | [| m1; m256 |] ->
    Alcotest.(check bool) "grows" true
      (m256.Characterize.measured > m1.Characterize.measured *. 2.)
  | _ -> Alcotest.fail "one point per unit count"

let test_mem_read_grows () =
  match Characterize.mem_read_curve dev ~units:[| 1; 256 |] with
  | [| r1; r256 |] ->
    Alcotest.(check bool) "grows" true
      (r256.Characterize.measured > r1.Characterize.measured)
  | _ -> Alcotest.fail "one point per unit count"

(* The calibrated delay of a 32-bit add at a broadcast factor. *)
let add_delay cal ~factor =
  Calibrate.resolved_delay (Calibrate.resolve cal Op.Add i32) ~factor

let test_calibrated_at_least_predicted () =
  let cal = Calibrate.create dev in
  List.iter
    (fun factor ->
      let c = add_delay cal ~factor in
      Alcotest.(check bool)
        (Printf.sprintf "factor %d" factor)
        true
        (c >= Oplib.predicted Op.Add i32 -. 1e-9))
    [ 1; 3; 17; 100; 512; 2000 ]

let test_calibrated_monotone_smoothed () =
  let cal = Calibrate.create dev in
  let big = add_delay cal ~factor:512 in
  let small = add_delay cal ~factor:1 in
  Alcotest.(check bool) "more broadcast, more delay" true (big > small)

let test_calibrated_interpolation () =
  (* a factor between grid points must land between the grid values *)
  let cal = Calibrate.create dev in
  let f32v = add_delay cal ~factor:32 in
  let f64v = add_delay cal ~factor:64 in
  let f48 = add_delay cal ~factor:48 in
  let lo = min f32v f64v -. 1e-9 and hi = max f32v f64v +. 1e-9 in
  Alcotest.(check bool) "between neighbours" true (f48 >= lo && f48 <= hi)

let test_calibrated_clamps () =
  let cal = Calibrate.create dev in
  let at_max = add_delay cal ~factor:512 in
  let beyond = add_delay cal ~factor:100000 in
  Alcotest.(check (float 1e-9)) "clamped beyond grid" at_max beyond

let test_mem_calibrated_floor () =
  let cal = Calibrate.create dev in
  let tiny = Calibrate.mem_write_delay cal ~width:8 ~depth:16 in
  Alcotest.(check bool) "floor is the HLS prediction" true
    (tiny >= Oplib.mem_write_predicted -. 1e-9)

let test_mem_calibrated_grows () =
  let cal = Calibrate.create dev in
  let small = Calibrate.mem_write_delay cal ~width:32 ~depth:1024 in
  let big = Calibrate.mem_write_delay cal ~width:512 ~depth:131072 in
  Alcotest.(check bool) "big buffer slower" true (big > small)

let test_curve_rows_shape () =
  let cal = Calibrate.create dev in
  let rows = Calibrate.op_curve cal Op.Add i32 in
  Alcotest.(check int) "one row per grid point"
    (Array.length Calibrate.factor_grid)
    (List.length rows);
  List.iter
    (fun (r : Calibrate.curve_row) ->
      Alcotest.(check bool) "calibrated >= predicted" true
        (r.Calibrate.cr_calibrated >= r.Calibrate.cr_predicted -. 1e-9))
    rows

let test_shared_cache () =
  let a = Calibrate.shared dev in
  let b = Calibrate.shared dev in
  Alcotest.(check bool) "same instance" true (a == b)

let test_invalid_factor () =
  let cal = Calibrate.create dev in
  Alcotest.check_raises "factor 0"
    (Invalid_argument "Calibrate.resolved_delay: factor < 1") (fun () ->
      ignore (add_delay cal ~factor:0))

let test_device_scaling () =
  (* the same op is slower on the older, slower fabric *)
  let us = Oplib.logic_delay Device.ultrascale_plus Op.Add i32 in
  let z = Oplib.logic_delay Device.zynq_7z045 Op.Add i32 in
  Alcotest.(check bool) "zynq slower" true (z > us)

(* ---- Persistent calibration cache ---- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let with_temp_dir f =
  let base = Filename.temp_file "hlsb-cal" "" in
  Sys.remove base;
  Sys.mkdir base 0o755;
  Fun.protect ~finally:(fun () -> rm_rf base) (fun () -> f base)

(* The store key of one raw curve, as [Calibrate.create] documents it. *)
let curve_key d name grid =
  Store.key
    ~parts:
      [
        Device.fingerprint d;
        name;
        String.concat "," (Array.to_list (Array.map string_of_int grid));
      ]

let curve_entry dir d name grid =
  Store.find (Store.open_ ~root:dir ()) ~ns:"cal" ~key:(curve_key d name grid)

let builds_of f =
  let reg = Metrics.create () in
  Metrics.with_registry reg f;
  Metrics.counter_value reg "calibrate.curve_builds"

let test_cache_round_trip () =
  with_temp_dir (fun dir ->
      let cold = Calibrate.create ~cache_dir:dir dev in
      let curve_cold = Calibrate.op_curve cold Op.Add i32 in
      let mem_cold = Calibrate.mem_write_delay cold ~width:512 ~depth:131072 in
      (* a fresh calibrator over the same directory must reload identical
         curves without a single rebuild *)
      let reg = Metrics.create () in
      let warm = Calibrate.create ~cache_dir:dir dev in
      let curve_warm, mem_warm =
        Metrics.with_registry reg (fun () ->
            ( Calibrate.op_curve warm Op.Add i32,
              Calibrate.mem_write_delay warm ~width:512 ~depth:131072 ))
      in
      Alcotest.(check bool) "op curve bit-identical" true (curve_cold = curve_warm);
      Alcotest.(check (float 0.)) "mem delay bit-identical" mem_cold mem_warm;
      Alcotest.(check int) "no rebuild on warm load" 0
        (Metrics.counter_value reg "calibrate.curve_builds");
      Alcotest.(check bool) "cache hits recorded" true
        (Metrics.counter_value reg "calibrate.cache_hits" >= 2))

let test_cache_fingerprint_invalidation () =
  with_temp_dir (fun dir ->
      let c = Calibrate.create ~cache_dir:dir dev in
      ignore (Calibrate.op_curve c Op.Add i32);
      (* same device name, different timing numbers: a different key *)
      let retimed = { dev with Device.t_lut = dev.Device.t_lut *. 2. } in
      Alcotest.(check bool) "original device has an entry" true
        (curve_entry dir dev "add/i32" Calibrate.factor_grid <> None);
      Alcotest.(check bool) "retimed device misses" true
        (curve_entry dir retimed "add/i32" Calibrate.factor_grid = None);
      Alcotest.(check int) "retimed device re-characterizes" 1
        (builds_of (fun () ->
           ignore (Calibrate.op_curve (Calibrate.create ~cache_dir:dir retimed) Op.Add i32)));
      Alcotest.(check int) "original device still hits" 0
        (builds_of (fun () ->
           ignore (Calibrate.op_curve (Calibrate.create ~cache_dir:dir dev) Op.Add i32))))

let test_cache_grid_invalidation () =
  with_temp_dir (fun dir ->
      (* a curve stored under another grid is another key *)
      (match
         Store.put (Store.open_ ~root:dir ()) ~ns:"cal"
           ~key:(curve_key dev "add/i32" [| 1; 2 |]) "0x1p+0 0x1p+1"
       with
      | Ok () -> ()
      | Error m -> Alcotest.fail m);
      Alcotest.(check bool) "different grid misses" true
        (curve_entry dir dev "add/i32" Calibrate.factor_grid = None);
      Alcotest.(check int) "different grid re-characterizes" 1
        (builds_of (fun () ->
           ignore (Calibrate.op_curve (Calibrate.create ~cache_dir:dir dev) Op.Add i32))))

let test_cache_bytes_order_independent () =
  (* Each raw curve is its own store entry with an exact encoding, so the
     entry bytes are independent of the order — and the number of
     domains — the curves were built with. Warm one directory
     sequentially and another with the ops reversed and fanned out across
     a real multi-domain pool, and require identical entries. *)
  let ops = [ (Op.Add, i32); (Op.Sub, i32); (Op.Mul, i32) ] in
  let warm_in dir order ~jobs =
    let cal = Calibrate.create ~cache_dir:dir dev in
    Pool.iter ~jobs
      (fun (op, dt) ->
        ignore (Calibrate.resolved_delay (Calibrate.resolve cal op dt) ~factor:4))
      (Array.of_list order);
    List.map
      (fun (op, dt) ->
        match
          curve_entry dir dev
            (Op.to_string op ^ "/" ^ Dtype.to_string dt)
            Calibrate.factor_grid
        with
        | Some bytes -> bytes
        | None -> Alcotest.fail "curve entry missing")
      ops
  in
  with_temp_dir (fun d1 ->
      with_temp_dir (fun d2 ->
          let seq = warm_in d1 ops ~jobs:1 in
          let par = warm_in d2 (List.rev ops) ~jobs:4 in
          Alcotest.(check (list string)) "curve entries byte-identical" seq par))

let test_jobs_deterministic () =
  (* the acceptance bar: curves bit-identical at any job count, and equal
     to their points measured one at a time *)
  let at jobs f =
    let saved = Hlsb_util.Pool.default_jobs () in
    Hlsb_util.Pool.set_default_jobs jobs;
    Fun.protect ~finally:(fun () -> Hlsb_util.Pool.set_default_jobs saved) f
  in
  let arith () =
    Characterize.arith_curve dev Op.Add i32 ~factors:Calibrate.factor_grid
  in
  let seq = at 1 arith and par = at 4 arith in
  Alcotest.(check bool) "arith curve bit-identical" true (seq = par);
  Alcotest.(check bool) "arith curve = its points" true
    (seq
    = Array.map
        (fun f ->
          { Characterize.factor = f; measured = Characterize.arith dev Op.Add i32 ~factor:f })
        Calibrate.factor_grid);
  let mem () = Characterize.mem_write_curve dev ~units:Calibrate.unit_grid in
  let mseq = at 1 mem and mpar = at 4 mem in
  Alcotest.(check bool) "mem curve bit-identical" true (mseq = mpar);
  Alcotest.(check bool) "mem curve = its points" true
    (mseq
    = Array.map
        (fun u -> (Characterize.mem_write_curve dev ~units:[| u |]).(0))
        Calibrate.unit_grid)

let suite =
  [
    Alcotest.test_case "prediction fanout-blind" `Quick test_predicted_fanout_blind;
    Alcotest.test_case "prediction magnitudes" `Quick test_predicted_magnitudes;
    Alcotest.test_case "float conservative" `Quick test_float_conservative;
    Alcotest.test_case "int matches at small factor" `Quick
      test_int_prediction_matches_small_factor;
    Alcotest.test_case "measured grows with factor" `Quick
      test_measured_grows_with_factor;
    Alcotest.test_case "latency cycles" `Quick test_latency_cycles;
    Alcotest.test_case "stage delay divides" `Quick test_stage_delay_divides;
    Alcotest.test_case "mem write grows" `Quick test_mem_measured_grows_with_units;
    Alcotest.test_case "mem read grows" `Quick test_mem_read_grows;
    Alcotest.test_case "calibrated >= predicted" `Quick
      test_calibrated_at_least_predicted;
    Alcotest.test_case "calibrated monotone" `Quick test_calibrated_monotone_smoothed;
    Alcotest.test_case "calibrated interpolates" `Quick test_calibrated_interpolation;
    Alcotest.test_case "calibrated clamps" `Quick test_calibrated_clamps;
    Alcotest.test_case "mem floor" `Quick test_mem_calibrated_floor;
    Alcotest.test_case "mem grows" `Quick test_mem_calibrated_grows;
    Alcotest.test_case "curve rows" `Quick test_curve_rows_shape;
    Alcotest.test_case "shared cache" `Quick test_shared_cache;
    Alcotest.test_case "invalid factor" `Quick test_invalid_factor;
    Alcotest.test_case "device scaling" `Quick test_device_scaling;
    Alcotest.test_case "cache round trip" `Quick test_cache_round_trip;
    Alcotest.test_case "cache fingerprint invalidation" `Quick
      test_cache_fingerprint_invalidation;
    Alcotest.test_case "cache grid invalidation" `Quick test_cache_grid_invalidation;
    Alcotest.test_case "jobs deterministic" `Quick test_jobs_deterministic;
    Alcotest.test_case "cache bytes order-independent" `Quick
      test_cache_bytes_order_independent;
  ]
