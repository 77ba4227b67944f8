(* Placement and static-timing tests — the properties the paper's analysis
   rests on: locality of packed cells, sqrt-area growth of broadcast nets,
   waypoint refinement of register chains, and STA correctness. *)

module Netlist = Hlsb_netlist.Netlist
module Structs = Hlsb_netlist.Structs
module Placement = Hlsb_physical.Placement
module Timing = Hlsb_physical.Timing
module Device = Hlsb_device.Device
module Rng = Hlsb_util.Rng
module Design = Hlsb_rtlgen.Design
module Style = Hlsb_ctrl.Style
module Spec = Hlsb_designs.Spec

let dev = Device.ultrascale_plus

(* Place, then analyze. *)
let sta ?jitter ?seed d nl =
  Timing.analyze ?jitter ?seed d nl (Placement.place d nl)

let reg ?(w = 32) nl name = Structs.add_register nl ~name ~width:w

let test_place_inside_die () =
  let nl = Netlist.create ~name:"t" in
  for i = 0 to 499 do
    ignore (reg nl (Printf.sprintf "r%d" i))
  done;
  let pl = Placement.place dev nl in
  Alcotest.(check bool) "within die" true
    (Placement.max_extent pl < float_of_int (max dev.Device.cols dev.Device.rows))

let test_place_too_big () =
  let nl = Netlist.create ~name:"t" in
  ignore
    (Netlist.add_cell nl ~name:"huge" ~kind:Netlist.Comb ~delay:0.
       ~res:{ Netlist.zero_res with Netlist.r_luts = dev.Device.luts * 3 });
  (* a structured diagnostic naming the stage, design, and device — not a
     bare Failure that kills a fuzz campaign without context *)
  match Placement.place dev nl with
  | _ -> Alcotest.fail "oversized design placed"
  | exception Hlsb_util.Diag.Diagnostic d ->
    let msg = Hlsb_util.Diag.to_string d in
    let has needle =
      let nn = String.length needle and nm = String.length msg in
      let rec at i = i + nn <= nm && (String.sub msg i nn = needle || at (i + 1)) in
      at 0
    in
    Alcotest.(check bool) "names the stage" true (has "place");
    Alcotest.(check bool) "names the device" true (has dev.Device.name)

let test_adjacent_cells_close () =
  (* consecutively created cells land physically adjacent *)
  let nl = Netlist.create ~name:"t" in
  let a = reg nl "a" in
  let b = reg nl "b" in
  (* connect so refinement does not treat them as floating *)
  ignore (Netlist.add_net nl ~name:"n" ~driver:a ~sinks:[ b ] ~width:32 ());
  let pl = Placement.place dev nl in
  let ax, ay = Placement.position pl a and bx, by = Placement.position pl b in
  let dist = abs_float (ax -. bx) +. abs_float (ay -. by) in
  Alcotest.(check bool) "adjacent" true (dist < 8.)

let test_footprint_scales () =
  let nl = Netlist.create ~name:"t" in
  let small = reg nl "s" in
  let big =
    Netlist.add_cell nl ~name:"big" ~kind:Netlist.Comb ~delay:0.
      ~res:{ Netlist.zero_res with Netlist.r_luts = 8000 }
  in
  let pl = Placement.place dev nl in
  Alcotest.(check bool) "bigger footprint" true
    (Placement.footprint_slices pl big > Placement.footprint_slices pl small)

(* The load-bearing property: the star length of a one-to-N net, the wire
   model STA uses, grows sublinearly (sqrt-like) but definitely grows,
   when the N sinks are contiguous. *)
let broadcast_star n_sinks =
  let nl = Netlist.create ~name:(Printf.sprintf "b%d" n_sinks) in
  let src = reg nl "src" in
  let sinks = List.init n_sinks (fun i -> reg nl (Printf.sprintf "s%d" i)) in
  let net = Netlist.add_net nl ~name:"bc" ~driver:src ~sinks ~width:32 () in
  let pl = Placement.place dev nl in
  Placement.star_length pl net

let test_star_grows_with_fanout () =
  let h16 = broadcast_star 16 in
  let h256 = broadcast_star 256 in
  Alcotest.(check bool) "grows" true (h256 > h16 *. 1.5);
  (* sublinear: 16x the sinks should cost well under 16x the wire *)
  Alcotest.(check bool) "sublinear" true (h256 < h16 *. 10.)

let test_register_chain_waypoints () =
  (* a chain of registers between two anchors settles at spaced waypoints:
     the largest hop is far below the end-to-end distance *)
  let nl = Netlist.create ~name:"t" in
  let src = reg nl "src" in
  (* separate the endpoints with bulk cells *)
  for i = 0 to 63 do
    ignore
      (Netlist.add_cell nl ~name:(Printf.sprintf "bulk%d" i) ~kind:Netlist.Comb
         ~delay:0. ~res:{ Netlist.zero_res with Netlist.r_luts = 800 })
  done;
  let dst = reg nl "dst" in
  let hops = Structs.add_reg_chain nl ~name:"chain" ~width:32 ~length:4 in
  ignore (Netlist.add_net nl ~name:"in" ~driver:src ~sinks:[ List.hd hops ] ~width:32 ());
  ignore
    (Netlist.add_net nl ~name:"out"
       ~driver:(List.nth hops 3)
       ~sinks:[ dst ] ~width:32 ());
  let pl = Placement.place dev nl in
  let pos c = Placement.position pl c in
  let dist (ax, ay) (bx, by) = abs_float (ax -. bx) +. abs_float (ay -. by) in
  let total = dist (pos src) (pos dst) in
  let chain = src :: hops @ [ dst ] in
  let max_hop = ref 0. in
  List.iteri
    (fun i c ->
      if i > 0 then
        max_hop := max !max_hop (dist (pos (List.nth chain (i - 1))) (pos c)))
    chain;
  Alcotest.(check bool) "endpoints separated" true (total > 20.);
  Alcotest.(check bool) "waypoints split the route" true
    (!max_hop < total /. 2.)

(* The wire-length kernel reads the netlist's sink CSR directly; this pins
   it, bit for bit, to the straightforward list-based definition it
   replaced (spread = mean cell radius over driver-then-sinks; star =
   farthest sink + spread), net by net and in the one-pass bulk fill. *)

let ref_sinks nl nid = List.init (Netlist.fanout nl nid) (Netlist.sink nl nid)
let ref_pins nl nid = Netlist.driver nl nid :: ref_sinks nl nid

let ref_spread pl nl nid =
  let pins = ref_pins nl nid in
  List.fold_left
    (fun acc c -> acc +. sqrt (float_of_int (Placement.footprint_slices pl c)))
    0. pins
  /. float_of_int (List.length pins)

let ref_star pl nl nid =
  if Netlist.fanout nl nid = 0 then 0.
  else begin
    let dx, dy = Placement.position pl (Netlist.driver nl nid) in
    let far =
      List.fold_left
        (fun acc s ->
          let x, y = Placement.position pl s in
          max acc (abs_float (x -. dx) +. abs_float (y -. dy)))
        0. (ref_sinks nl nid)
    in
    far +. ref_spread pl nl nid
  end

(* Random cells and nets: sinks drawn with repeats (a sink listed twice is
   two pins), some nets sinkless, a few wide broadcasts. *)
let test_wirelength_matches_list_reference () =
  let rng = Rng.create 90125 in
  let nl = Netlist.create ~name:"wl" in
  let cells =
    Array.init 160 (fun i ->
        if Rng.int rng 2 = 0 then reg nl (Printf.sprintf "r%d" i)
        else
          Netlist.add_cell nl ~name:(Printf.sprintf "c%d" i) ~kind:Netlist.Comb
            ~delay:0.1
            ~res:
              {
                Netlist.zero_res with
                Netlist.r_luts = 1 + Rng.int rng 400;
              })
  in
  for i = 0 to 139 do
    let driver = cells.(Rng.int rng 160) in
    let n_sinks =
      match i mod 20 with 0 -> 0 | 1 -> 100 + Rng.int rng 60 | _ -> 1 + Rng.int rng 20
    in
    let sinks = List.init n_sinks (fun _ -> cells.(Rng.int rng 160)) in
    ignore
      (Netlist.add_net nl ~name:(Printf.sprintf "n%d" i) ~driver ~sinks ~width:8 ())
  done;
  let pl = Placement.place dev nl in
  let xs, ys = Placement.coords pl in
  let radius =
    Array.init (Netlist.n_cells nl) (fun c ->
        sqrt (float_of_int (Placement.footprint_slices pl c)))
  in
  let bulk = Array.make (Netlist.n_nets nl) nan in
  Placement.star_lengths pl bulk;
  let kernel = Array.make (Netlist.n_nets nl) nan in
  Netlist.star_lengths nl ~xs ~ys ~radius kernel;
  let same a b = Int64.bits_of_float a = Int64.bits_of_float b in
  for nid = 0 to Netlist.n_nets nl - 1 do
    let want = ref_star pl nl nid in
    List.iter
      (fun (what, got) ->
        if not (same want got) then
          Alcotest.failf "net %d (fanout %d): %s %h <> reference %h" nid
            (Netlist.fanout nl nid) what got want)
      [
        ("Placement.star_length", Placement.star_length pl nid);
        ("Placement.star_lengths", bulk.(nid));
        ("Netlist.star_length", Netlist.star_length nl ~xs ~ys ~radius nid);
        ("Netlist.star_lengths", kernel.(nid));
      ]
  done

(* ---- Timing ---- *)

let simple_pipe () =
  (* r1 -> logic(1ns) -> r2 *)
  let nl = Netlist.create ~name:"pipe" in
  let r1 = reg nl "r1" in
  let c =
    Netlist.add_cell nl ~name:"logic" ~kind:Netlist.Comb ~delay:1.0
      ~res:{ Netlist.zero_res with Netlist.r_luts = 8 }
  in
  let r2 = reg nl "r2" in
  ignore (Netlist.add_net nl ~name:"a" ~driver:r1 ~sinks:[ c ] ~width:32 ());
  ignore (Netlist.add_net nl ~name:"b" ~driver:c ~sinks:[ r2 ] ~width:32 ());
  nl

let test_sta_simple () =
  let nl = simple_pipe () in
  let r = sta ~jitter:0. dev nl in
  (* path = clk_q + net + logic + net + setup: at least logic + overheads *)
  Alcotest.(check bool) "lower bound" true (r.Timing.critical_ns > 1.1);
  Alcotest.(check bool) "upper bound" true (r.Timing.critical_ns < 2.5);
  Alcotest.(check (float 1e-6)) "fmax consistent"
    (1000. /. r.Timing.critical_ns) r.Timing.fmax_mhz

let test_sta_empty_netlist () =
  let nl = Netlist.create ~name:"empty" in
  let r = sta ~jitter:0. dev nl in
  (* clock floor: clk_q + setup *)
  Alcotest.(check (float 1e-6)) "floor"
    (dev.Device.t_clk_q +. dev.Device.t_setup)
    r.Timing.critical_ns

let test_sta_deterministic () =
  let nl = simple_pipe () in
  let a = sta dev nl in
  let b = sta dev nl in
  Alcotest.(check (float 1e-9)) "same" a.Timing.critical_ns b.Timing.critical_ns

let test_sta_jitter_seeded () =
  let nl = simple_pipe () in
  let a = sta ~seed:1 dev nl in
  let b = sta ~seed:2 dev nl in
  Alcotest.(check bool) "different seeds differ" true
    (a.Timing.critical_ns <> b.Timing.critical_ns)

let test_sta_chain_adds () =
  (* two logic cells chained in one cycle cost more than one *)
  let build n =
    let nl = Netlist.create ~name:"chain" in
    let r1 = reg nl "r1" in
    let prev = ref r1 in
    for i = 1 to n do
      let c =
        Netlist.add_cell nl ~name:(Printf.sprintf "c%d" i) ~kind:Netlist.Comb
          ~delay:0.5 ~res:{ Netlist.zero_res with Netlist.r_luts = 4 }
      in
      ignore
        (Netlist.add_net nl ~name:(Printf.sprintf "n%d" i) ~driver:!prev
           ~sinks:[ c ] ~width:8 ());
      prev := c
    done;
    let r2 = reg nl "r2" in
    ignore (Netlist.add_net nl ~name:"end" ~driver:!prev ~sinks:[ r2 ] ~width:8 ());
    (sta ~jitter:0. dev nl).Timing.critical_ns
  in
  let one = build 1 and three = build 3 in
  Alcotest.(check bool) "chaining accumulates" true (three > one +. 0.9)

let test_sta_broadcast_slower () =
  let build fanout =
    let nl = Netlist.create ~name:"bc" in
    let src = reg nl "src" in
    let sinks = List.init fanout (fun i -> reg nl (Printf.sprintf "s%d" i)) in
    ignore (Netlist.add_net nl ~name:"net" ~driver:src ~sinks ~width:32 ());
    (sta ~jitter:0. dev nl).Timing.critical_ns
  in
  Alcotest.(check bool) "fanout 256 slower than 2" true (build 256 > build 2 +. 0.3)

let test_sta_cycle_fails () =
  let nl = Netlist.create ~name:"cyc" in
  let c1 = Netlist.add_cell nl ~name:"c1" ~kind:Netlist.Comb ~delay:0.1 ~res:Netlist.zero_res in
  let c2 = Netlist.add_cell nl ~name:"c2" ~kind:Netlist.Comb ~delay:0.1 ~res:Netlist.zero_res in
  ignore (Netlist.add_net nl ~name:"a" ~driver:c1 ~sinks:[ c2 ] ~width:1 ());
  ignore (Netlist.add_net nl ~name:"b" ~driver:c2 ~sinks:[ c1 ] ~width:1 ());
  Alcotest.(check bool) "cycle raises" true
    (try ignore (sta dev nl); false
     with Failure _ -> true)

let test_sta_deep_chain () =
  (* A pipeline tens of thousands of cells deep is a legitimate netlist;
     the recursive DFS that [analyze] replaced overflowed the OCaml stack
     on exactly this shape. The critical path must come out as the plain
     arithmetic sum of the chain's net and cell delays, computed here by a
     linear walk. *)
  let k = 50_000 in
  let nl = Netlist.create ~name:"deep" in
  let r1 = reg ~w:1 nl "r1" in
  let cells = Array.make k 0 in
  let nets = Array.make (k + 1) 0 in
  let prev = ref r1 in
  for i = 0 to k - 1 do
    let c =
      Netlist.add_cell nl ~name:(Printf.sprintf "c%d" i) ~kind:Netlist.Comb
        ~delay:0.01 ~res:{ Netlist.zero_res with Netlist.r_luts = 1 }
    in
    cells.(i) <- c;
    nets.(i) <-
      Netlist.add_net nl ~name:(Printf.sprintf "n%d" i) ~driver:!prev
        ~sinks:[ c ] ~width:1 ();
    prev := c
  done;
  let r2 = reg ~w:1 nl "r2" in
  nets.(k) <-
    Netlist.add_net nl ~name:"end" ~driver:!prev ~sinks:[ r2 ] ~width:1 ();
  let pl = Placement.place dev nl in
  let r = Timing.analyze ~jitter:0. ~seed:0 dev nl pl in
  let nd = Timing.net_delay dev nl pl ~jitter:0. ~seed:0 in
  let arr = ref (dev.Device.t_clk_q +. Netlist.delay nl r1) in
  for i = 0 to k - 1 do
    arr := !arr +. nd nets.(i) +. Netlist.delay nl cells.(i)
  done;
  let expected = !arr +. nd nets.(k) +. dev.Device.t_setup in
  Alcotest.(check (float 1e-9)) "critical = chain sum" expected
    r.Timing.critical_ns;
  Alcotest.(check int) "path spans the whole chain" (k + 2)
    (List.length r.Timing.path)

let test_sta_path_realizable () =
  (* re-walking the reported critical path reproduces the arrival times *)
  let nl = simple_pipe () in
  let pl = Placement.place dev nl in
  let r = Timing.analyze ~jitter:0. dev nl pl in
  let path = r.Timing.path in
  Alcotest.(check bool) "path nonempty" true (List.length path >= 2);
  let arrivals = List.map (fun s -> s.Timing.ps_arrival) path in
  let sorted = List.sort compare arrivals in
  Alcotest.(check (list (float 1e-9))) "monotone arrivals" sorted arrivals

let test_sta_ports_not_endpoints () =
  (* a slow path into an output port must not constrain the clock *)
  let nl = Netlist.create ~name:"p" in
  let r1 = reg nl "r1" in
  let c =
    Netlist.add_cell nl ~name:"slow" ~kind:Netlist.Comb ~delay:50.
      ~res:Netlist.zero_res
  in
  let port =
    Netlist.add_cell nl ~name:"o" ~kind:Netlist.Port_out ~delay:0.
      ~res:Netlist.zero_res
  in
  ignore (Netlist.add_net nl ~name:"a" ~driver:r1 ~sinks:[ c ] ~width:1 ());
  ignore (Netlist.add_net nl ~name:"b" ~driver:c ~sinks:[ port ] ~width:1 ());
  let r = sta ~jitter:0. dev nl in
  Alcotest.(check bool) "port path ignored" true (r.Timing.critical_ns < 1.)

let test_net_delay_monotone_fanout () =
  let nl = Netlist.create ~name:"m" in
  let src = reg nl "s" in
  let s1 = reg nl "a" in
  let s2 = reg nl "b" in
  let n1 = Netlist.add_net nl ~name:"one" ~driver:src ~sinks:[ s1 ] ~width:8 () in
  let n2 = Netlist.add_net nl ~name:"two" ~driver:src ~sinks:[ s1; s2 ] ~width:8 () in
  let pl = Placement.place dev nl in
  let d1 = Timing.net_delay dev nl pl ~jitter:0. ~seed:0 n1 in
  let d2 = Timing.net_delay dev nl pl ~jitter:0. ~seed:0 n2 in
  Alcotest.(check bool) "more sinks, more delay" true (d2 > d1)

(* Test-local per-slice reference packer, built on [Placement.hilbert_d2xy]:
   cell k takes the next [fp.(k)] on-die points of the curve and sits at
   their float-accumulated mean; also returns the largest coordinate used.
   [Placement.place] walks the same curve in aligned blocks and must agree
   bit for bit. *)
let ref_pack (d : Device.t) fp =
  let side =
    let rec grow k = if k >= d.Device.cols && k >= d.Device.rows then k else grow (2 * k) in
    grow 1
  in
  let cursor = ref 0 and ext = ref 0 in
  let rec next () =
    let h = Placement.hilbert_d2xy side !cursor in
    incr cursor;
    let x = h / side and y = h mod side in
    if x < d.Device.cols && y < d.Device.rows then (x, y) else next ()
  in
  let pos =
    Array.map
      (fun s ->
        let sx = ref 0. and sy = ref 0. in
        for _ = 1 to s do
          let x, y = next () in
          sx := !sx +. float_of_int x;
          sy := !sy +. float_of_int y;
          ext := max !ext (max x y)
        done;
        (!sx /. float_of_int s, !sy /. float_of_int s))
      fp
  in
  (pos, float_of_int !ext)

(* Test-local reference refinement: one general formula per movable cell
   (degree divisions, [sqrt] weights), all 24 sweeps with no convergence
   gate, from [ref_pack]'s packing. [Placement.place] picks cheaper exact
   arithmetic per cell and stops at a fixpoint; it must agree bit for bit. *)
let ref_relax (d : Device.t) nl fp =
  let pos, _ = ref_pack d fp in
  let xs = Array.map fst pos and ys = Array.map snd pos in
  let slot_x = Array.copy xs and slot_y = Array.copy ys in
  let { Netlist.fanin = { Netlist.in_off; in_driver; _ }; out_off; out_sink } =
    Netlist.arcs nl
  in
  let relax id =
    let ki = in_off.(id + 1) - in_off.(id) and ko = out_off.(id + 1) - out_off.(id) in
    let kind = Netlist.kind nl id in
    if fp.(id) <= 64 && ki > 0 && ko > 0 && (kind = Netlist.Seq || kind = Netlist.Comb)
    then begin
      let isx = ref 0. and isy = ref 0. and osx = ref 0. and osy = ref 0. in
      for k = in_off.(id) to in_off.(id + 1) - 1 do
        isx := !isx +. xs.(in_driver.(k));
        isy := !isy +. ys.(in_driver.(k))
      done;
      for k = out_off.(id) to out_off.(id + 1) - 1 do
        osx := !osx +. xs.(out_sink.(k));
        osy := !osy +. ys.(out_sink.(k))
      done;
      let ki = float_of_int ki and ko = float_of_int ko in
      let ix = !isx /. ki and iy = !isy /. ki in
      let ox = !osx /. ko and oy = !osy /. ko in
      if kind = Netlist.Seq then begin
        let wi = sqrt ki and wo = sqrt ko in
        xs.(id) <- ((ix *. wi) +. (ox *. wo)) /. (wi +. wo);
        ys.(id) <- ((iy *. wi) +. (oy *. wo)) /. (wi +. wo)
      end
      else begin
        let cx = (0.65 *. ix) +. (0.35 *. ox) and cy = (0.65 *. iy) +. (0.35 *. oy) in
        xs.(id) <- (0.1 *. slot_x.(id)) +. (0.9 *. cx);
        ys.(id) <- (0.1 *. slot_y.(id)) +. (0.9 *. cy)
      end
    end
  in
  let n = Netlist.n_cells nl in
  for sweep = 1 to 24 do
    if sweep mod 2 = 1 then for id = 0 to n - 1 do relax id done
    else for id = n - 1 downto 0 do relax id done
  done;
  (xs, ys)

(* [place] against [ref_relax], by the bits of every coordinate. *)
let check_matches_relax (d : Device.t) nl =
  let pl = Placement.place d nl in
  let fp = Array.init (Netlist.n_cells nl) (Placement.footprint_slices pl) in
  let rx, ry = ref_relax d nl fp in
  let xs, ys = Placement.coords pl in
  let same a b = Int64.bits_of_float a = Int64.bits_of_float b in
  Array.iteri
    (fun c x ->
      if not (same x rx.(c) && same ys.(c) ry.(c)) then
        Alcotest.failf "%s cell %d: placed (%h,%h) <> reference relax (%h,%h)"
          (Netlist.name nl) c x ys.(c) rx.(c) ry.(c))
    xs;
  pl

let test_place_early_exit_equivalence () =
  (* characterize-style skeleton: movable registers between fixed ports
     settle after one sweep, so the convergence gate fires well before
     24 sweeps — and must produce bit-identical positions to the full
     fixed-count reference *)
  let build () =
    let nl = Netlist.create ~name:"skel" in
    for i = 0 to 99 do
      let p_in =
        Netlist.add_cell nl ~name:(Printf.sprintf "i%d" i)
          ~kind:Netlist.Port_in ~delay:0. ~res:Netlist.zero_res
      in
      let r = reg nl (Printf.sprintf "r%d" i) in
      let p_out =
        Netlist.add_cell nl ~name:(Printf.sprintf "o%d" i)
          ~kind:Netlist.Port_out ~delay:0. ~res:Netlist.zero_res
      in
      ignore
        (Netlist.add_net nl ~name:(Printf.sprintf "a%d" i) ~driver:p_in
           ~sinks:[ r ] ~width:32 ());
      ignore
        (Netlist.add_net nl ~name:(Printf.sprintf "b%d" i) ~driver:r
           ~sinks:[ p_out ] ~width:32 ())
    done;
    nl
  in
  let pl = check_matches_relax dev (build ()) in
  Alcotest.(check bool) "gate fired" true (Placement.relaxes pl < 100 * 24);
  (* one cell of each relax rule, whatever the random netlists below draw:
     registers of degree (in/out) 1/1, 1/2, 2/4, 2/3 and 3/1, comb cells
     of 2/1, 2/3 and 3/2, and fixed cells (Mem, ports, a register over 64
     slices, a comb cell with no fanout, a register with no fanin) *)
  let nl = Netlist.create ~name:"modes" in
  let cell kind luts name =
    Netlist.add_cell nl ~name ~kind ~delay:0.1
      ~res:{ Netlist.zero_res with Netlist.r_luts = luts }
  in
  (* unconnected padding moves the ports off the curve's first few
     slices, so pin sums are not small integers that every rounding of a
     division by 3 agrees on *)
  for k = 0 to 36 do
    ignore (cell Netlist.Comb 8 (Printf.sprintf "pad%d" k))
  done;
  let i = Array.init 3 (fun k -> cell Netlist.Port_in 0 (Printf.sprintf "i%d" k)) in
  let o = Array.init 4 (fun k -> cell Netlist.Port_out 0 (Printf.sprintf "o%d" k)) in
  let mem = cell Netlist.Mem 0 "mem" and c_end = cell Netlist.Comb 8 "c_end" in
  let big = reg ~w:(65 * dev.Device.ff_per_slice) nl "big" and r_src = reg nl "r_src" in
  let r11 = reg nl "r11" and r12 = reg nl "r12" in
  let r24 = reg nl "r24" and r31 = reg nl "r31" and r23 = reg nl "r23" in
  let c21 = cell Netlist.Comb 8 "c21" and c32 = cell Netlist.Comb 8 "c32" in
  let c23 = cell Netlist.Comb 8 "c23" in
  let net driver sinks = ignore (Netlist.add_net nl ~driver ~sinks ~width:8 ()) in
  net i.(0) [ r11; r24; r31; c32; big; r23 ];
  net i.(1) [ r24; r31; c21; r12; c23 ];
  net i.(2) [ r31; c21; mem; r23; c23 ];
  net r11 [ c32 ];
  net r24 [ o.(0); o.(1); o.(2); mem ];
  net r31 [ o.(3) ];
  net r12 [ o.(3); c_end ];
  net c21 [ c32 ];
  net c32 [ mem; o.(0) ];
  net mem [ o.(1) ];
  net big [ o.(2) ];
  net r_src [ o.(3) ];
  net r23 [ o.(0); o.(1); o.(2) ];
  net c23 [ o.(1); o.(2); o.(3) ];
  let pl = check_matches_relax dev nl in
  (* the eight movable cells, sweep after sweep *)
  Alcotest.(check int) "relaxes" 0 (Placement.relaxes pl mod 8)

(* Degrees (fanin arcs, fanout arcs) planted on fresh registers and comb
   cells: each straight-line relax shape, each one's general-loop
   neighbours one degree past it, degrees that are no power of two, and
   degrees above 64. *)
let planted_degrees =
  [
    (* straight-line bodies *)
    (`Reg, 1, 1); (`Reg, 2, 1); (`Reg, 2, 3); (`Comb, 2, 1); (`Comb, 1, 1);
    (* one degree past them *)
    (`Reg, 1, 2); (`Reg, 3, 1); (`Reg, 2, 2); (`Reg, 3, 3); (`Reg, 2, 4);
    (`Comb, 3, 1); (`Comb, 2, 2); (`Comb, 1, 2);
    (* no power of two, and above 64 *)
    (`Reg, 5, 3); (`Comb, 3, 5); (`Reg, 65, 1); (`Reg, 1, 128); (`Comb, 1, 65);
    (`Comb, 128, 2);
  ]

(* The relax shapes the property's netlists reached; the property's test
   case fails unless every one was. *)
let shapes_seen = Array.make Placement.n_shapes false

(* Random netlists that reach every relax shape: registers and light comb
   cells of small in/out degree (1 to 5 and over), fixed cells (Mem,
   ports, macros over 64 slices), cells with no fanin or no fanout, and
   two hubs whose fanin and fanout exceed 64. The hub nets stay among
   cells 0-3, so they leave the other cells' degrees alone. Then up to a
   dozen cells of [planted_degrees], made last and wired by nets of their
   own, so nothing else changes their degrees. *)
let prop_place_matches_relax =
  let gen =
    QCheck.Gen.(
      let* kinds =
        list_size (int_range 2 60)
          (frequencyl
             [ (4, `Reg); (4, `Comb); (1, `Mem); (1, `In); (1, `Out); (1, `Macro); (1, `Big_reg) ])
      in
      let n = List.length kinds + 2 in
      let sinks =
        list_size (frequency [ (3, return 1); (1, int_range 2 5) ]) (int_bound (n - 1))
      in
      let* nets = list_size (int_range 1 80) (pair (int_bound (n - 1)) sinks) in
      let* hub = list_size (int_range 65 70) (int_bound 3) in
      let* planted =
        list_size (int_bound 12)
          (let* kind, ki, ko = oneofl planted_degrees in
           let* ins = list_repeat ki (int_bound (n - 1)) in
           let* outs = list_repeat ko (int_bound (n - 1)) in
           return (kind, ins, outs))
      in
      return (kinds, nets, hub, planted))
  in
  let print (kinds, nets, hub, planted) =
    Printf.sprintf "%d cells, %d nets, hub degree %d, planted %s" (List.length kinds + 2)
      (List.length nets) (List.length hub)
      (String.concat " "
         (List.map
            (fun (k, ins, outs) ->
              Printf.sprintf "%s(%d,%d)"
                (match k with `Reg -> "reg" | `Comb -> "comb")
                (List.length ins) (List.length outs))
            planted))
  in
  QCheck.Test.make ~count:100 ~name:"place = reference relax"
    (QCheck.make ~print gen)
    (fun (kinds, nets, hub, planted) ->
      let nl = Netlist.create ~name:"relax" in
      let cell kind luts =
        Netlist.add_cell nl ~kind ~delay:0.1
          ~res:{ Netlist.zero_res with Netlist.r_luts = luts }
      in
      (* cells 0 and 1: the hubs, a register and a comb cell *)
      ignore (reg nl "hub_r");
      ignore (cell Netlist.Comb 8);
      List.iter
        (fun k ->
          ignore
            (match k with
            | `Reg -> reg nl "r"
            | `Comb -> cell Netlist.Comb 8
            | `Mem -> cell Netlist.Mem 0
            | `In -> cell Netlist.Port_in 0
            | `Out -> cell Netlist.Port_out 0
            | `Macro -> cell Netlist.Comb (65 * dev.Device.lut_per_slice)
            | `Big_reg -> reg ~w:(65 * dev.Device.ff_per_slice) nl "big"))
        kinds;
      let net driver sinks =
        let driver = if Netlist.kind nl driver = Netlist.Port_out then 0 else driver in
        ignore (Netlist.add_net nl ~driver ~sinks ~width:8 ())
      in
      List.iter (fun (drv, sinks) -> net drv sinks) nets;
      List.iter (fun drv -> net drv [ 0; 1 ]) hub;
      net 0 hub;
      net 1 hub;
      List.iter
        (fun (kind, ins, outs) ->
          let c = match kind with `Reg -> reg nl "p" | `Comb -> cell Netlist.Comb 8 in
          List.iter (fun drv -> net drv [ c ]) ins;
          net c outs)
        planted;
      let pl = check_matches_relax dev nl in
      for c = 0 to Netlist.n_cells nl - 1 do
        shapes_seen.(Placement.shape pl c) <- true
      done;
      true)

let place_matches_relax_case =
  let name, speed, run = QCheck_alcotest.to_alcotest prop_place_matches_relax in
  ( name,
    speed,
    fun () ->
      Array.fill shapes_seen 0 Placement.n_shapes false;
      run ();
      Array.iteri
        (fun s seen -> if not seen then Alcotest.failf "no netlist reached relax shape %d" s)
        shapes_seen )

(* Every Suite design's netlist under both recipes, and the ~104k-cell
   bm420x2 point's, each handed to [f] with its device. *)
let iter_design_netlists f =
  let each (device : Device.t) name build =
    List.iter
      (fun recipe ->
        let df = build () in
        let scheds = Design.schedule_processes ~device ~recipe df in
        let dp = Design.lower_processes ~device ~recipe ~name df scheds in
        f device (Design.emit_sync ~device ~recipe df dp).Design.netlist)
      [ Style.original; Style.optimized ]
  in
  List.iter
    (fun (spec : Spec.t) -> each spec.Spec.sp_device spec.Spec.sp_name spec.Spec.sp_build)
    Hlsb_designs.Suite.all;
  each Device.ultrascale_plus "bm420x2"
    (Hlsb_designs.Bigmul.build_point ~bits:420 ~limb:7 ~lanes:2)

(* [place] against [ref_relax] on every design netlist. *)
let test_place_matches_relax_designs () =
  iter_design_netlists (fun device nl -> ignore (check_matches_relax device nl))

(* [Timing.prepare]'s one-pass delay fill against [Timing.net_delay], net
   by net and bit for bit, on every design netlist, with and without
   jitter. *)
let test_net_delays_match_designs () =
  iter_design_netlists (fun device nl ->
      let pl = Placement.place device nl in
      List.iter
        (fun jitter ->
          let bulk = Timing.net_delays (Timing.prepare ~jitter ~seed:7 device nl pl) in
          Array.iteri
            (fun nid got ->
              let want = Timing.net_delay device nl pl ~jitter ~seed:7 nid in
              if Int64.bits_of_float got <> Int64.bits_of_float want then
                Alcotest.failf "%s net %d (fanout %d, jitter %g): prepare %h <> net_delay %h"
                  (Netlist.name nl) nid (Netlist.fanout nl nid) jitter got want)
            bulk)
        [ 0.; 0.02 ])

(* Unconnected cells of the given slice footprints: every cell is fixed, so
   [place]'s result is the packing alone. *)
let footprint_netlist (d : Device.t) fp =
  let nl = Netlist.create ~name:"pack" in
  Array.iteri
    (fun i s ->
      ignore
        (Netlist.add_cell nl ~name:(Printf.sprintf "c%d" i) ~kind:Netlist.Comb
           ~delay:0.
           ~res:{ Netlist.zero_res with Netlist.r_luts = s * d.Device.lut_per_slice }))
    fp;
  nl

let check_matches_ref (d : Device.t) fp =
  let pl = Placement.place d (footprint_netlist d fp) in
  let pos, ext = ref_pack d fp in
  let xs, ys = Placement.coords pl in
  let same a b = Int64.bits_of_float a = Int64.bits_of_float b in
  Array.iteri
    (fun i (rx, ry) ->
      if not (same xs.(i) rx && same ys.(i) ry) then
        Alcotest.failf "%s cell %d (%d slices): packed (%h,%h) <> reference (%h,%h)"
          d.Device.name i fp.(i) xs.(i) ys.(i) rx ry)
    pos;
  if not (same (Placement.max_extent pl) ext) then
    Alcotest.failf "%s: max_extent %g <> reference %g" d.Device.name
      (Placement.max_extent pl) ext;
  true

(* Random footprints on every device: mostly small cells with the odd
   macro and footprints either side of one and two 16x16 blocks (255-257,
   511-513) in random order, with a run of up to 600 unit cells (enough to
   cross a block) put in at a random place; optionally topped up by one cell that fills the die to
   within [slack] slices of capacity (so the walk crosses every die edge
   and off-die block). Without the top-up the last cell mostly ends
   mid-block, so the extent of a partly claimed block is compared too. *)
let prop_pack_matches_reference =
  let gen =
    QCheck.Gen.(
      let* dev_i = int_bound (List.length Device.all - 1) in
      let* small = list_size (int_range 1 60) (int_range 1 9) in
      let* macros = list_size (int_bound 3) (int_range 10 5000) in
      let* blocks = list_size (int_bound 4) (oneofl [ 255; 256; 257; 511; 512; 513 ]) in
      let* body = shuffle_l (small @ macros @ blocks) in
      let* at = int_bound (List.length body) in
      let* units = int_bound 600 in
      let fps =
        List.filteri (fun i _ -> i < at) body
        @ List.init units (fun _ -> 1)
        @ List.filteri (fun i _ -> i >= at) body
      in
      let* fill = bool in
      let* slack = int_bound 5 in
      return (dev_i, fps, fill, slack))
  in
  let print (i, fps, fill, slack) =
    Printf.sprintf "device %d, %d cells, fill=%b slack=%d" i (List.length fps) fill slack
  in
  QCheck.Test.make ~count:40 ~name:"block packer = per-slice reference"
    (QCheck.make ~print gen)
    (fun (dev_i, fps, fill, slack) ->
      let d = List.nth Device.all dev_i in
      let used = List.fold_left ( + ) 0 fps in
      let top = Device.n_slices d - used - slack in
      let fps = if fill && top > 0 then fps @ [ top ] else fps in
      check_matches_ref d (Array.of_list fps))

let test_pack_fills_die () =
  (* one unit cell per slice: every on-die slot is taken exactly once, in
     reference order, and one more slice overflows. Each die's sides leave
     a different remainder mod 16, so each has its own edge blocks. *)
  List.iter
    (fun (d : Device.t) ->
      let cap = Device.n_slices d in
      ignore (check_matches_ref d (Array.make cap 1));
      match Placement.place d (footprint_netlist d (Array.make (cap + 1) 1)) with
      | _ -> Alcotest.failf "%s: placed one slice past capacity" d.Device.name
      | exception Hlsb_util.Diag.Diagnostic _ -> ())
    Device.all

let test_place_overflow_text () =
  (* overflow mid-way: the diagnostic names the cell that does not fit,
     what remains, and the grid *)
  let d = Device.zynq_7z045 in
  match Placement.place d (footprint_netlist d [| 20000; 10000; 6000; 1 |]) with
  | _ -> Alcotest.fail "over-capacity design placed"
  | exception Hlsb_util.Diag.Diagnostic diag ->
    Alcotest.(check string) "diagnostic"
      "error[place] design pack: design does not fit device xc7z045: cell c2 \
       needs 6000 slice(s) but only 5910 of 35910 remain (189 x 190 slice \
       grid)"
      (Hlsb_util.Diag.to_string diag)

let test_jitter_matches_rng_reference () =
  (* the allocation-free hash-mix must reproduce the Rng-based factor
     bit-for-bit for every (seed, net) the flow can produce *)
  let reference ~jitter ~seed nid =
    let rng = Rng.create ((seed * 1_000_003) + nid) in
    let f = 1. +. Rng.gaussian rng ~mu:0. ~sigma:jitter in
    max 0.5 f
  in
  List.iter
    (fun seed ->
      for nid = 0 to 999 do
        List.iter
          (fun jitter ->
            let want = reference ~jitter ~seed nid in
            let got = Timing.jitter_factor ~jitter ~seed nid in
            if Int64.bits_of_float want <> Int64.bits_of_float got then
              Alcotest.failf "seed=%d nid=%d jitter=%g: %h <> %h" seed nid
                jitter want got)
          [ 0.; 0.02; 0.3 ]
      done)
    [ 0; 1; 42; 0xFFFFFF; -7 ]

let test_incremental_sta_equivalence () =
  (* prepare + refresh after moves must match a fresh analyze of the same
     positions, bit for bit *)
  let nl = Netlist.create ~name:"inc" in
  let n_stages = 64 in
  let regs = Array.init n_stages (fun i -> reg nl (Printf.sprintf "r%d" i)) in
  for i = 0 to n_stages - 2 do
    let c =
      Netlist.add_cell nl ~name:(Printf.sprintf "c%d" i) ~kind:Netlist.Comb
        ~delay:0.2 ~res:{ Netlist.zero_res with Netlist.r_luts = 8 }
    in
    ignore
      (Netlist.add_net nl ~name:(Printf.sprintf "n%d" i) ~driver:regs.(i)
         ~sinks:[ c ] ~width:32 ());
    ignore
      (Netlist.add_net nl ~name:(Printf.sprintf "m%d" i) ~driver:c
         ~sinks:[ regs.(i + 1) ] ~width:32 ())
  done;
  let pl = Placement.place dev nl in
  let ctx = Timing.prepare dev nl pl in
  let check_matches label =
    let inc = Timing.analyze_ctx ctx in
    let fresh = Timing.analyze dev nl pl in
    Alcotest.(check bool)
      (label ^ ": critical bit-identical")
      true
      (Int64.bits_of_float inc.Timing.critical_ns
      = Int64.bits_of_float fresh.Timing.critical_ns);
    Array.iteri
      (fun c a ->
        if Int64.bits_of_float a <> Int64.bits_of_float fresh.Timing.arrivals.(c)
        then Alcotest.failf "%s: arrival of cell %d diverges" label c)
      inc.Timing.arrivals
  in
  Alcotest.(check int) "nothing moved, nothing recomputed" 0 (Timing.refresh ctx);
  check_matches "initial";
  (* ECO-style nudge: move a handful of cells and re-time *)
  List.iter
    (fun c ->
      let x, y = Placement.position pl c in
      Placement.set_position pl c (x +. 7.5, y +. 3.25))
    [ 3; 10; 11; 50 ];
  let recomputed = Timing.refresh ctx in
  Alcotest.(check bool) "moved cells dirty some nets" true (recomputed > 0);
  Alcotest.(check bool) "but far fewer than all nets" true
    (recomputed < Netlist.n_nets nl / 2);
  check_matches "after move";
  Alcotest.(check int) "second refresh is a no-op" 0 (Timing.refresh ctx)

let prop_sta_monotone_in_cell_delay =
  QCheck.Test.make ~count:30 ~name:"critical path monotone in logic delay"
    QCheck.(float_range 0.1 3.0)
    (fun d ->
      let build delay =
        let nl = Netlist.create ~name:"mono" in
        let r1 = Structs.add_register nl ~name:"r1" ~width:8 in
        let c =
          Netlist.add_cell nl ~name:"c" ~kind:Netlist.Comb ~delay
            ~res:Netlist.zero_res
        in
        let r2 = Structs.add_register nl ~name:"r2" ~width:8 in
        ignore (Netlist.add_net nl ~name:"a" ~driver:r1 ~sinks:[ c ] ~width:8 ());
        ignore (Netlist.add_net nl ~name:"b" ~driver:c ~sinks:[ r2 ] ~width:8 ());
        (sta ~jitter:0. dev nl).Timing.critical_ns
      in
      build (d +. 0.5) > build d)

let suite =
  [
    Alcotest.test_case "place inside die" `Quick test_place_inside_die;
    Alcotest.test_case "place too big" `Quick test_place_too_big;
    Alcotest.test_case "place overflow text" `Quick test_place_overflow_text;
    Alcotest.test_case "pack fills die" `Quick test_pack_fills_die;
    Alcotest.test_case "adjacent cells close" `Quick test_adjacent_cells_close;
    Alcotest.test_case "footprint scales" `Quick test_footprint_scales;
    Alcotest.test_case "star length grows with fanout" `Quick test_star_grows_with_fanout;
    Alcotest.test_case "register chain waypoints" `Quick test_register_chain_waypoints;
    Alcotest.test_case "wirelength matches list reference" `Quick
      test_wirelength_matches_list_reference;
    Alcotest.test_case "sta deep chain" `Slow test_sta_deep_chain;
    Alcotest.test_case "sta simple pipe" `Quick test_sta_simple;
    Alcotest.test_case "sta empty netlist" `Quick test_sta_empty_netlist;
    Alcotest.test_case "sta deterministic" `Quick test_sta_deterministic;
    Alcotest.test_case "sta jitter seeded" `Quick test_sta_jitter_seeded;
    Alcotest.test_case "sta chain adds" `Quick test_sta_chain_adds;
    Alcotest.test_case "sta broadcast slower" `Quick test_sta_broadcast_slower;
    Alcotest.test_case "sta cycle fails" `Quick test_sta_cycle_fails;
    Alcotest.test_case "sta path realizable" `Quick test_sta_path_realizable;
    Alcotest.test_case "sta ports not endpoints" `Quick test_sta_ports_not_endpoints;
    Alcotest.test_case "net delay monotone" `Quick test_net_delay_monotone_fanout;
    Alcotest.test_case "place early-exit equivalence" `Quick
      test_place_early_exit_equivalence;
    Alcotest.test_case "place = reference relax on designs" `Slow
      test_place_matches_relax_designs;
    Alcotest.test_case "net delays = net_delay on designs" `Slow
      test_net_delays_match_designs;
    Alcotest.test_case "jitter matches rng reference" `Quick
      test_jitter_matches_rng_reference;
    Alcotest.test_case "incremental sta equivalence" `Quick
      test_incremental_sta_equivalence;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_sta_monotone_in_cell_delay; prop_pack_matches_reference ]
  @ [ place_matches_relax_case ]
