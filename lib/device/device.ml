type t = {
  name : string;
  family : string;
  board : string;
  luts : int;
  ffs : int;
  bram18 : int;
  dsps : int;
  cols : int;
  rows : int;
  lut_per_slice : int;
  ff_per_slice : int;
  bram_col_every : int;
  dsp_col_every : int;
  t_clk_q : float;
  t_setup : float;
  t_lut : float;
  t_net_base : float;
  t_net_fanout : float;
  t_net_dist : float;
}

(* Grid dimensions cover the whole fabric in slice-sized tiles: slices plus
   the area of the DSP and BRAM columns (~3 and ~5 tiles per site), so a
   design legal on the real part also fits the model. The placer never
   needs the exact die aspect ratio, only a plausible area. *)

let ultrascale_plus =
  {
    name = "xcvu9p";
    family = "UltraScale+";
    board = "AWS F1";
    luts = 1_182_240;
    ffs = 2_364_480;
    bram18 = 4_320;
    dsps = 6_840;
    cols = 435;
    rows = 436;
    lut_per_slice = 8;
    ff_per_slice = 16;
    bram_col_every = 12;
    dsp_col_every = 9;
    t_clk_q = 0.10;
    t_setup = 0.06;
    t_lut = 0.12;
    t_net_base = 0.25;
    t_net_fanout = 0.12;
    t_net_dist = 0.013;
  }

let zynq_7z045 =
  {
    name = "xc7z045";
    family = "Zynq-7000";
    board = "ZC706";
    luts = 218_600;
    ffs = 437_200;
    bram18 = 1_090;
    dsps = 900;
    cols = 189;
    rows = 190;
    lut_per_slice = 8;
    ff_per_slice = 16;
    bram_col_every = 12;
    dsp_col_every = 10;
    t_clk_q = 0.15;
    t_setup = 0.08;
    t_lut = 0.17;
    t_net_base = 0.36;
    t_net_fanout = 0.15;
    t_net_dist = 0.019;
  }

let virtex7_690t =
  {
    name = "xc7vx690t";
    family = "Virtex-7";
    board = "Alpha-Data ADM-PCIE-7V3";
    luts = 433_200;
    ffs = 866_400;
    bram18 = 2_940;
    dsps = 3_600;
    cols = 283;
    rows = 284;
    lut_per_slice = 8;
    ff_per_slice = 16;
    bram_col_every = 12;
    dsp_col_every = 10;
    t_clk_q = 0.14;
    t_setup = 0.08;
    t_lut = 0.16;
    t_net_base = 0.34;
    t_net_fanout = 0.14;
    t_net_dist = 0.017;
  }

let alveo_u50 =
  {
    name = "xcu50";
    family = "UltraScale+ (HBM)";
    board = "Alveo U50";
    luts = 872_000;
    ffs = 1_743_000;
    bram18 = 2_688;
    dsps = 5_952;
    cols = 375;
    rows = 376;
    lut_per_slice = 8;
    ff_per_slice = 16;
    bram_col_every = 12;
    dsp_col_every = 9;
    t_clk_q = 0.10;
    t_setup = 0.06;
    t_lut = 0.12;
    t_net_base = 0.26;
    t_net_fanout = 0.12;
    t_net_dist = 0.014;
  }

let all = [ ultrascale_plus; zynq_7z045; virtex7_690t; alveo_u50 ]

let n_slices t = t.cols * t.rows

let bram18_bits = 18 * 1024

let bram18_for ~width ~depth =
  if width <= 0 || depth <= 0 then invalid_arg "Device.bram18_for";
  let by_bits = ((width * depth) + bram18_bits - 1) / bram18_bits in
  (* A BRAM18 exposes at most 36 data bits per port: wide words need
     width/36 units in parallel regardless of total bits. *)
  let by_width = (width + 35) / 36 in
  max by_bits by_width

let find name = List.find_opt (fun d -> d.name = name) all

let fingerprint d =
  (* [%h] spells each float exactly: a one-ulp retiming changes the key *)
  Printf.sprintf "%s|%s|%dx%d|s%d.%d|b%d|d%d|%h|%h|%h|%h|%h|%h" d.name d.family
    d.cols d.rows d.lut_per_slice d.ff_per_slice d.bram_col_every
    d.dsp_col_every d.t_clk_q d.t_setup d.t_lut d.t_net_base d.t_net_fanout
    d.t_net_dist

let pp fmt t =
  Format.fprintf fmt "%s (%s, %s): %d LUT / %d FF / %d BRAM18 / %d DSP"
    t.name t.family t.board t.luts t.ffs t.bram18 t.dsps
