(* Device model tests: capacities, grids, BRAM sizing. *)

module Device = Hlsb_device.Device

let test_known_devices () =
  Alcotest.(check int) "four devices" 4 (List.length Device.all);
  List.iter
    (fun (d : Device.t) ->
      Alcotest.(check bool) (d.Device.name ^ " luts") true (d.Device.luts > 0);
      Alcotest.(check bool) (d.Device.name ^ " grid") true
        (d.Device.cols > 0 && d.Device.rows > 0);
      (* the grid covers at least the slice count *)
      Alcotest.(check bool) (d.Device.name ^ " fabric area") true
        (Device.n_slices d * d.Device.lut_per_slice >= d.Device.luts))
    Device.all

let test_find () =
  Alcotest.(check bool) "vu9p" true (Device.find "xcvu9p" <> None);
  Alcotest.(check bool) "unknown" true (Device.find "xc7nope" = None)

let test_vu9p_magnitudes () =
  let d = Device.ultrascale_plus in
  Alcotest.(check int) "luts" 1_182_240 d.Device.luts;
  Alcotest.(check int) "bram18" 4_320 d.Device.bram18;
  Alcotest.(check int) "dsps" 6_840 d.Device.dsps

let test_bram18_for_bits () =
  (* 32 x 512 = 16 kbit fits one unit *)
  Alcotest.(check int) "one unit" 1 (Device.bram18_for ~width:32 ~depth:512);
  (* 32 x 1024 = 32 kbit -> 2 units *)
  Alcotest.(check int) "two units" 2 (Device.bram18_for ~width:32 ~depth:1024)

let test_bram18_for_width () =
  (* 512-bit words need width/36 = 15 units in parallel regardless of depth *)
  Alcotest.(check int) "wide word" 15 (Device.bram18_for ~width:512 ~depth:16);
  (* deep AND wide: bits dominate *)
  Alcotest.(check bool) "deep wide" true
    (Device.bram18_for ~width:512 ~depth:131072 > 3000)

let test_bram18_invalid () =
  Alcotest.check_raises "bad" (Invalid_argument "Device.bram18_for") (fun () ->
    ignore (Device.bram18_for ~width:0 ~depth:4))

let test_timing_constants_sane () =
  List.iter
    (fun (d : Device.t) ->
      Alcotest.(check bool) "clk_q > 0" true (d.Device.t_clk_q > 0.);
      Alcotest.(check bool) "lut delay sane" true
        (d.Device.t_lut > 0.05 && d.Device.t_lut < 0.5);
      Alcotest.(check bool) "dist per unit small" true
        (d.Device.t_net_dist > 0. && d.Device.t_net_dist < 0.1))
    Device.all

let test_7series_slower_than_usplus () =
  (* older parts have slower fabric: this ordering drives the per-board MHz
     differences in Table 1 *)
  let us = Device.ultrascale_plus and z = Device.zynq_7z045 in
  Alcotest.(check bool) "zynq slower" true (z.Device.t_lut > us.Device.t_lut)

(* A device built at run time with [{ dev with ... }] and one timing
   field nudged by one ulp times differently, so it must not share a
   calibration or store key with the original. *)
let test_fingerprint_sees_one_ulp () =
  let d = Device.ultrascale_plus in
  let fp = Device.fingerprint d in
  List.iter
    (fun (field, nudged) ->
      Alcotest.(check bool) field true (Device.fingerprint nudged <> fp))
    [
      ("t_clk_q", { d with Device.t_clk_q = Float.succ d.Device.t_clk_q });
      ("t_setup", { d with Device.t_setup = Float.succ d.Device.t_setup });
      ("t_lut", { d with Device.t_lut = Float.succ d.Device.t_lut });
      ("t_net_base", { d with Device.t_net_base = Float.succ d.Device.t_net_base });
      ( "t_net_fanout",
        { d with Device.t_net_fanout = Float.succ d.Device.t_net_fanout } );
      ("t_net_dist", { d with Device.t_net_dist = Float.succ d.Device.t_net_dist });
    ]

let suite =
  [
    Alcotest.test_case "known devices" `Quick test_known_devices;
    Alcotest.test_case "find" `Quick test_find;
    Alcotest.test_case "vu9p magnitudes" `Quick test_vu9p_magnitudes;
    Alcotest.test_case "bram by bits" `Quick test_bram18_for_bits;
    Alcotest.test_case "bram by width" `Quick test_bram18_for_width;
    Alcotest.test_case "bram invalid" `Quick test_bram18_invalid;
    Alcotest.test_case "timing constants" `Quick test_timing_constants_sane;
    Alcotest.test_case "7-series slower" `Quick test_7series_slower_than_usplus;
    Alcotest.test_case "fingerprint sees one ulp" `Quick
      test_fingerprint_sees_one_ulp;
  ]
