(* RTL generation tests: lowered netlist structure, control styles, sync
   controllers. *)

open Hlsb_ir
module Netlist = Hlsb_netlist.Netlist
module Schedule = Hlsb_sched.Schedule
module Calibrate = Hlsb_delay.Calibrate
module Lower = Hlsb_rtlgen.Lower
module Design = Hlsb_rtlgen.Design
module Style = Hlsb_ctrl.Style
module Device = Hlsb_device.Device

let dev = Device.ultrascale_plus
let i32 = Dtype.Int 32

let streaming_kernel ?(unroll = 8) name =
  let dag = Dag.create () in
  let fin = Dag.add_fifo dag ~name:(name ^ "_in") ~dtype:i32 ~depth:8 in
  let fout = Dag.add_fifo dag ~name:(name ^ "_out") ~dtype:i32 ~depth:8 in
  let x = Dag.fifo_read dag ~fifo:fin in
  let acc = ref [] in
  Transform.unrolled dag ~factor:unroll (fun j ->
    let p = Dag.input dag ~name:(Printf.sprintf "%s_p%d" name j) ~dtype:i32 in
    acc := Dag.op dag Op.Add ~dtype:i32 [ x; p ] :: !acc);
  let sum = Transform.reduce_tree dag ~op:Op.Add ~dtype:i32 !acc in
  ignore (Dag.fifo_write dag ~fifo:fout ~value:sum);
  Kernel.create ~name dag

let lower_one ~pipe ~fanout_trees kernel =
  let nl = Netlist.create ~name:"t" in
  let mode =
    if fanout_trees then Schedule.Broadcast_aware (Calibrate.shared dev)
    else Schedule.Baseline
  in
  let sched = Schedule.run mode kernel in
  let lw, _ = Lower.lower dev nl ~pipe ~fanout_trees sched in
  (nl, lw, sched)

let test_lower_valid_netlist () =
  List.iter
    (fun (pipe, trees) ->
      let nl, _, _ = lower_one ~pipe ~fanout_trees:trees (streaming_kernel "k") in
      match Netlist.validate nl with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    [
      (Style.Stall, false);
      (Style.Skid { min_area = false }, true);
      (Style.Skid { min_area = true }, true);
    ]

(* The kernel's register cells: [lower_one]'s netlist holds only the kernel,
   and the streaming kernel has no buffer (no Mem cells). *)
let seq_cells nl =
  let n = ref 0 in
  for c = 0 to Netlist.n_cells nl - 1 do
    if Netlist.kind nl c = Netlist.Seq then incr n
  done;
  !n

let test_stall_net_fanout () =
  let nl, _, _ =
    lower_one ~pipe:Style.Stall ~fanout_trees:false (streaming_kernel "k")
  in
  (* the stall net reaches every sequential cell of the kernel (Fig. 8) *)
  match Netlist.max_fanout_net nl ~cls:Netlist.Ctrl_pipeline () with
  | None -> Alcotest.fail "no stall net"
  | Some n ->
    Alcotest.(check int) "stall fanout = all seq cells" (seq_cells nl)
      (Netlist.fanout nl n)

let test_skid_has_no_global_stall () =
  let nl, lw, _ =
    lower_one
      ~pipe:(Style.Skid { min_area = true })
      ~fanout_trees:true (streaming_kernel "k")
  in
  (* no single control net reaches a large share of the sequential cells *)
  let seq = seq_cells nl in
  (match Netlist.max_fanout_net nl ~cls:Netlist.Ctrl_pipeline () with
  | None -> ()
  | Some n ->
    Alcotest.(check bool) "control nets local" true
      (Netlist.fanout nl n < max 4 (seq / 4)));
  Alcotest.(check bool) "skid buffer bits allocated" true (lw.Lower.lw_skid_bits > 0)

let test_stall_has_no_skid () =
  let _, lw, _ =
    lower_one ~pipe:Style.Stall ~fanout_trees:false (streaming_kernel "k")
  in
  Alcotest.(check int) "no skid bits" 0 lw.Lower.lw_skid_bits

let test_baseline_raw_broadcast () =
  let nl, _, _ =
    lower_one ~pipe:Style.Stall ~fanout_trees:false
      (streaming_kernel ~unroll:32 "k")
  in
  (* the fifo word feeds all 32 adders on one raw net *)
  match Netlist.max_fanout_net nl ~cls:Netlist.Data_broadcast () with
  | None -> Alcotest.fail "expected a data broadcast net"
  | Some n ->
    Alcotest.(check bool) "raw fanout ~ unroll" true
      (Netlist.fanout nl n >= 32)

let test_aware_bounded_fanout () =
  let nl, _, _ =
    lower_one
      ~pipe:(Style.Skid { min_area = true })
      ~fanout_trees:true
      (streaming_kernel ~unroll:64 "k")
  in
  (* distribution trees cap every net's fanout *)
  match Netlist.max_fanout_net nl () with
  | None -> Alcotest.fail "no nets"
  | Some n ->
    Alcotest.(check bool) "fanout bounded by tree leaves" true
      (Netlist.fanout nl n <= 16)

let test_registers_added_accounting () =
  let _, lw_base, _ =
    lower_one ~pipe:Style.Stall ~fanout_trees:false
      (streaming_kernel ~unroll:64 "k")
  in
  let _, lw_opt, _ =
    lower_one ~pipe:Style.Stall ~fanout_trees:true
      (streaming_kernel ~unroll:64 "k")
  in
  Alcotest.(check int) "baseline adds none" 0 lw_base.Lower.lw_registers_added;
  Alcotest.(check bool) "aware adds some" true (lw_opt.Lower.lw_registers_added > 0)

let test_depth_matches_schedule () =
  let _, lw, sched =
    lower_one ~pipe:Style.Stall ~fanout_trees:false (streaming_kernel "k")
  in
  Alcotest.(check int) "depth" sched.Schedule.depth lw.Lower.lw_depth

let test_fifo_interfaces_reported () =
  let _, lw, _ =
    lower_one ~pipe:Style.Stall ~fanout_trees:false (streaming_kernel "k")
  in
  Alcotest.(check int) "one read iface" 1 (List.length lw.Lower.lw_fifo_read_ifaces);
  Alcotest.(check int) "one write iface" 1 (List.length lw.Lower.lw_fifo_write_ifaces);
  let rname, _, w = List.hd lw.Lower.lw_fifo_read_ifaces in
  Alcotest.(check string) "read name" "k_in" rname;
  Alcotest.(check int) "width" 32 w

(* ---- Design level ---- *)

let two_kernel_df () =
  let df = Dataflow.create () in
  let a = streaming_kernel "ka" in
  let b =
    (* consumer: reads ka_out *)
    let dag = Dag.create () in
    let fin = Dag.add_fifo dag ~name:"ka_out" ~dtype:i32 ~depth:8 in
    let fout = Dag.add_fifo dag ~name:"kb_out" ~dtype:i32 ~depth:8 in
    let x = Dag.fifo_read dag ~fifo:fin in
    let y = Dag.op dag Op.Add ~dtype:i32 [ x; x ] in
    ignore (Dag.fifo_write dag ~fifo:fout ~value:y);
    Kernel.create ~name:"kb" dag
  in
  let pa = Dataflow.add_process df ~name:"ka" ~kernel:a ~latency:9 () in
  let pb = Dataflow.add_process df ~name:"kb" ~kernel:b ~latency:4 () in
  ignore (Dataflow.add_channel df ~name:"ka_in" ~src:(-1) ~dst:pa ~dtype:i32 ());
  ignore (Dataflow.add_channel df ~name:"ka_out" ~src:pa ~dst:pb ~dtype:i32 ());
  ignore (Dataflow.add_channel df ~name:"kb_out" ~src:pb ~dst:(-1) ~dtype:i32 ());
  Dataflow.add_sync_group df [ pa; pb ];
  df

module Pipeline = Core.Pipeline

let compile_df ~recipe ~name df =
  Pipeline.run (Pipeline.create ~device:dev ~name ~build:(fun () -> df) ()) ~recipe

let design_of ~recipe ~name df =
  match compile_df ~recipe ~name df with
  | Ok r -> r.Pipeline.fr_design
  | Error d -> Alcotest.fail (Hlsb_util.Diag.to_string d)

let compile_kernel ~recipe k =
  Pipeline.run_exn (Pipeline.of_kernel ~device:dev k) ~recipe

let test_design_generate () =
  let des = design_of ~recipe:Style.original ~name:"two" (two_kernel_df ()) in
  (match Netlist.validate des.Design.netlist with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "two kernels" 2 (List.length des.Design.kernels);
  Alcotest.(check int) "one sync controller" 1 des.Design.sync_groups_emitted

let test_design_channel_wired () =
  let des = design_of ~recipe:Style.original ~name:"two" (two_kernel_df ()) in
  let found = ref false in
  let nl = des.Design.netlist in
  for n = 0 to Netlist.n_nets nl - 1 do
    if Netlist.net_name nl n = "chan_ka_out" then found := true
  done;
  Alcotest.(check bool) "cross-kernel channel net" true !found

let test_design_missing_fifo_rejected () =
  let df = Dataflow.create () in
  let a = streaming_kernel "ka" in
  let pa = Dataflow.add_process df ~name:"ka" ~kernel:a () in
  ignore
    (Dataflow.add_channel df ~name:"nonexistent" ~src:pa ~dst:(-1) ~dtype:i32 ());
  (* the diagnostic must survive with its structure intact (stage +
     offending entity), not be flattened into an Invalid_argument string *)
  match compile_df ~recipe:Style.original ~name:"x" df with
  | Ok _ -> Alcotest.fail "bad channel accepted"
  | Error d ->
    Alcotest.(check string) "stage" "lower" d.Hlsb_util.Diag.d_stage;
    Alcotest.(check bool) "channel entity carried" true
      (d.Hlsb_util.Diag.d_entity = Some (Hlsb_util.Diag.Channel "nonexistent"))

let test_design_sync_pruned_uses_latency () =
  (* pruned sync reduces the done-reduce inputs *)
  let naive = design_of ~recipe:Style.original ~name:"n" (two_kernel_df ()) in
  let pruned =
    design_of
      ~recipe:{ Style.original with Style.sync = Style.Sync_pruned }
      ~name:"p" (two_kernel_df ())
  in
  let count_sync_nets (d : Design.t) =
    let c = ref 0 in
    let nl = d.Design.netlist in
    for n = 0 to Netlist.n_nets nl - 1 do
      if Netlist.net_class nl n = Netlist.Ctrl_sync then incr c
    done;
    !c
  in
  Alcotest.(check bool) "pruned has fewer sync nets" true
    (count_sync_nets pruned <= count_sync_nets naive)

let test_single_kernel_wrapper () =
  let des =
    (compile_kernel ~recipe:Style.optimized (streaming_kernel "solo"))
      .Pipeline.fr_design
  in
  Alcotest.(check int) "one kernel" 1 (List.length des.Design.kernels);
  match Netlist.validate des.Design.netlist with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* Sink order of the value nets, pinned on a hand-scheduled kernel: x is
   read twice by one consumer and once by another in its own cycle, once a
   cycle later and, as the address of a load from a 2-bank partitioned
   buffer (2 BRAM units per bank), two cycles later. A net lists its
   consumers ascending and, per read, the consumer's input cells in
   reverse; later reads hang off the value's boundary register chain. *)
let test_lower_sink_order () =
  let dag = Dag.create () in
  let fin = Dag.add_fifo dag ~name:"in" ~dtype:i32 ~depth:8 in
  let fout = Dag.add_fifo dag ~name:"out" ~dtype:i32 ~depth:8 in
  let m = Dag.add_buffer dag ~name:"m" ~dtype:i32 ~depth:2048 ~partition:2 in
  let x = Dag.fifo_read dag ~fifo:fin in
  let a = Dag.op dag Op.Add ~dtype:i32 [ x; x ] in
  let e = Dag.op dag Op.Xor ~dtype:i32 [ x; a ] in
  let b = Dag.op dag Op.Sub ~dtype:i32 [ x; e ] in
  let ld = Dag.load dag ~buffer:m ~index:x in
  let c = Dag.op dag Op.Add ~dtype:i32 [ ld; b ] in
  ignore (Dag.fifo_write dag ~fifo:fout ~value:c);
  let entry cycle latency =
    {
      Schedule.e_cycle = cycle;
      e_start = 0.;
      e_delay = 0.;
      e_latency = latency;
      e_added_pipe = 0;
      e_bcast_levels = 0;
      e_factor = 1;
    }
  in
  let sched =
    {
      Schedule.kernel = Kernel.create ~name:"so" dag;
      mode_label = "hand";
      target_ns = 3.;
      entries =
        (* x, a, e at 0; b at 1; the load at 2 (one cycle); c, write at 3 *)
        [|
          entry 0 0; entry 0 0; entry 0 0; entry 1 0; entry 2 1; entry 3 0; entry 3 0;
        |];
      depth = 4;
    }
  in
  let nl = Netlist.create ~name:"t" in
  ignore (Lower.lower dev nl ~pipe:Style.Stall ~fanout_trees:false sched);
  let cell_name = Netlist.cell_name nl in
  let value_nets = ref [] in
  for n = 0 to Netlist.n_nets nl - 1 do
    let name = Netlist.net_name nl n in
    if String.length name > 4 && String.sub name 0 4 = "so.v" then
      value_nets :=
        ( name,
          cell_name (Netlist.driver nl n),
          List.init (Netlist.fanout nl n) (fun k -> cell_name (Netlist.sink nl n k)) )
        :: !value_nets
  done;
  let units = [ "so.m_bk1_u1"; "so.m_bk1_u0"; "so.m_bk0_u1"; "so.m_bk0_u0" ] in
  Alcotest.(check (list (triple string string (list string))))
    "value nets: name, driver, sinks"
    [
      ("so.v0_c0", "so.fifo_in", [ "so.add_1"; "so.add_1"; "so.xor_2" ]);
      ("so.v0_sn1", "so.fifo_in", [ "so.v0_s1" ]);
      ("so.v0_c1", "so.v0_s1", [ "so.sub_3" ]);
      ("so.v0_sn2", "so.v0_s1", [ "so.v0_s2" ]);
      ("so.v0_c2", "so.v0_s2", units);
      ("so.v1_c0", "so.add_1", [ "so.xor_2" ]);
      ("so.v2_sn1", "so.xor_2", [ "so.v2_s1" ]);
      ("so.v2_c1", "so.v2_s1", [ "so.sub_3" ]);
      ("so.v3_sn1", "so.sub_3", [ "so.v3_s1" ]);
      ("so.v3_sn2", "so.v3_s1", [ "so.v3_s2" ]);
      ("so.v3_c2", "so.v3_s2", [ "so.add_5" ]);
      ("so.v4_c0", "so.ld4_q", [ "so.add_5" ]);
      ("so.v5_c0", "so.add_5", [ "so.wr_out" ]);
    ]
    (List.rev !value_nets)

(* ---- stamping: a member copied from its representative equals its own
   lowering ---- *)

(* One random kernel shape per seed, spelled with [pre]'s symbol names:
   calls with one seed build kernels of one class, whatever [pre] is. It
   reaches every lowering path that writes a symbol into a name: inputs,
   outputs, FIFO reads and writes (and their stall nets), monolithic and
   partitioned buffers (some large enough for read pipelines and address
   trees). *)
let named_kernel ~seed ~name ~pre =
  let module Rng = Hlsb_util.Rng in
  let rng = Rng.create seed in
  let dag = Dag.create () in
  let sym s i = Printf.sprintf "%s%s%d" pre s i in
  let fifo s i = Dag.add_fifo dag ~name:(sym s i) ~dtype:i32 ~depth:(1 + Rng.int rng 16) in
  let fins = Array.init (1 + Rng.int rng 2) (fifo "in") in
  let fout = fifo "out" 0 in
  let bufs =
    Array.init (Rng.int rng 3) (fun i ->
      Dag.add_buffer dag ~name:(sym "buf" i) ~dtype:i32
        ~depth:(64 lsl Rng.int rng 11)
        ~partition:(1 + Rng.int rng 3))
  in
  let pool = ref (Array.to_list (Array.map (fun f -> Dag.fifo_read dag ~fifo:f) fins)) in
  let pick () = List.nth !pool (Rng.int rng (List.length !pool)) in
  for i = 0 to 5 + Rng.int rng 40 do
    let node =
      match Rng.int rng 8 with
      | 0 | 1 | 2 ->
        Dag.op dag (if Rng.bool rng then Op.Add else Op.Mul) ~dtype:i32 [ pick (); pick () ]
      | 3 -> Dag.input dag ~name:(sym "x" i) ~dtype:i32
      | 4 when Array.length bufs > 0 ->
        Dag.load dag ~buffer:bufs.(Rng.int rng (Array.length bufs)) ~index:(pick ())
      | 5 when Array.length bufs > 0 ->
        ignore
          (Dag.store dag ~buffer:bufs.(Rng.int rng (Array.length bufs))
             ~index:(pick ()) ~value:(pick ()));
        pick ()
      | 6 ->
        ignore (Dag.output dag ~name:(sym "o" i) ~value:(pick ()));
        pick ()
      | _ -> Dag.fifo_read dag ~fifo:fins.(Rng.int rng (Array.length fins))
    in
    pool := node :: !pool
  done;
  ignore (Dag.fifo_write dag ~fifo:fout ~value:(pick ()));
  Kernel.create ~name dag

(* Every field of every cell and net, names and sinks included. *)
let netlist_dump nl =
  let cells =
    List.init (Netlist.n_cells nl) (fun c ->
      Printf.sprintf "c %s %h %d %d %d %d %s" (Netlist.cell_name nl c)
        (Netlist.delay nl c) (Netlist.luts nl c) (Netlist.ffs nl c)
        (Netlist.bram18 nl c) (Netlist.dsps nl c)
        (match Netlist.kind nl c with
        | Netlist.Comb -> "comb"
        | Netlist.Seq -> "seq"
        | Netlist.Mem -> "mem"
        | Netlist.Port_in -> "in"
        | Netlist.Port_out -> "out"))
  in
  let nets =
    List.init (Netlist.n_nets nl) (fun n ->
      Printf.sprintf "n %s %d %d %s [%s]" (Netlist.net_name nl n)
        (Netlist.driver nl n) (Netlist.width nl n)
        (match Netlist.net_class nl n with
        | Netlist.Data -> "data"
        | Netlist.Data_broadcast -> "bcast"
        | Netlist.Ctrl_sync -> "sync"
        | Netlist.Ctrl_pipeline -> "pipe")
        (String.concat ","
           (List.init (Netlist.fanout nl n) (fun k ->
              string_of_int (Netlist.sink nl n k)))))
  in
  cells @ nets

let prop_stamp_equals_lower =
  QCheck.Test.make ~count:60
    ~name:"stamped member equals its own lowering, names included"
    QCheck.(triple small_nat (int_bound 2) bool)
    (fun (seed, pipe_i, aware) ->
      let pipe =
        match pipe_i with
        | 0 -> Style.Stall
        | 1 -> Style.Skid { min_area = false }
        | _ -> Style.Skid { min_area = true }
      in
      let mode =
        if aware then Schedule.Broadcast_aware (Calibrate.shared dev)
        else Schedule.Baseline
      in
      (* symbol and kernel names of different lengths, the member's
         containing the representative's *)
      let rep = named_kernel ~seed ~name:"k" ~pre:"p" in
      let member = named_kernel ~seed ~name:"pe_k12" ~pre:"lane_p7_" in
      if not (Dag.same_structure rep.Kernel.dag member.Kernel.dag) then
        QCheck.Test.fail_report "the two spellings fall into different classes";
      let rep_sched = Schedule.run mode rep in
      let member_sched = Schedule.rebind rep_sched member in
      (* an unrelated kernel first, so the slices start past cell 0 *)
      let head = streaming_kernel ~unroll:2 "head" in
      let build lower_member =
        let nl = Netlist.create ~name:"t" in
        ignore (Lower.lower dev nl ~pipe ~fanout_trees:aware (Schedule.run mode head));
        let _, tp = Lower.lower dev nl ~pipe ~fanout_trees:aware rep_sched in
        let lw = lower_member nl tp in
        (netlist_dump nl, lw)
      in
      let got, got_lw = build (fun nl tp -> Lower.stamp nl tp member_sched) in
      let want, want_lw =
        build (fun nl _ ->
          fst (Lower.lower dev nl ~pipe ~fanout_trees:aware member_sched))
      in
      if got <> want then
        QCheck.Test.fail_reportf "netlists differ:\n%s"
          (String.concat "\n"
             (List.filteri (fun i _ -> i < 10)
                (List.filter (fun l -> not (List.mem l want)) got)));
      got_lw = want_lw)

(* A stamp reserves its whole slice up front, and a stamp of a kernel from
   another class's template is refused. *)
let test_stamp_rejects_unshared () =
  let k = streaming_kernel "a" in
  let sched = Schedule.run Schedule.Baseline k in
  let nl = Netlist.create ~name:"t" in
  let _, tp = Lower.lower dev nl ~pipe:Style.Stall ~fanout_trees:false sched in
  let fresh = Schedule.run Schedule.Baseline (streaming_kernel "b") in
  Alcotest.check_raises "a schedule of its own"
    (Invalid_argument "Lower.stamp: the schedule is not the representative's")
    (fun () -> ignore (Lower.stamp nl tp fresh))

let suite =
  [
    Alcotest.test_case "lowered netlists validate" `Quick test_lower_valid_netlist;
    Alcotest.test_case "stall net fanout" `Quick test_stall_net_fanout;
    Alcotest.test_case "skid has no global stall" `Quick test_skid_has_no_global_stall;
    Alcotest.test_case "stall has no skid" `Quick test_stall_has_no_skid;
    Alcotest.test_case "baseline raw broadcast" `Quick test_baseline_raw_broadcast;
    Alcotest.test_case "aware bounded fanout" `Quick test_aware_bounded_fanout;
    Alcotest.test_case "registers-added accounting" `Quick
      test_registers_added_accounting;
    Alcotest.test_case "depth matches schedule" `Quick test_depth_matches_schedule;
    Alcotest.test_case "fifo interfaces" `Quick test_fifo_interfaces_reported;
    Alcotest.test_case "design generate" `Quick test_design_generate;
    Alcotest.test_case "design channel wired" `Quick test_design_channel_wired;
    Alcotest.test_case "missing fifo rejected" `Quick test_design_missing_fifo_rejected;
    Alcotest.test_case "sync pruned smaller" `Quick test_design_sync_pruned_uses_latency;
    Alcotest.test_case "single kernel wrapper" `Quick test_single_kernel_wrapper;
    Alcotest.test_case "value-net sink order" `Quick test_lower_sink_order;
    Alcotest.test_case "stamp refuses an unshared schedule" `Quick
      test_stamp_rejects_unshared;
    QCheck_alcotest.to_alcotest prop_stamp_equals_lower;
  ]

(* ---- end-to-end fuzz: random kernels survive the whole flow ---- *)

let random_kernel seed =
  let rng = Hlsb_util.Rng.create seed in
  let dag = Dag.create () in
  let fin = Dag.add_fifo dag ~name:"fz_in" ~dtype:i32 ~depth:8 in
  let fout = Dag.add_fifo dag ~name:"fz_out" ~dtype:i32 ~depth:8 in
  let pool = ref [ Dag.fifo_read dag ~fifo:fin ] in
  let pick () =
    List.nth !pool (Hlsb_util.Rng.int rng (List.length !pool))
  in
  (* maybe a buffer *)
  let buf =
    if Hlsb_util.Rng.bool rng then
      Some
        (Dag.add_buffer dag ~name:"fz_buf" ~dtype:i32
           ~depth:(256 lsl Hlsb_util.Rng.int rng 8)
           ~partition:1)
    else None
  in
  let n_ops = 10 + Hlsb_util.Rng.int rng 120 in
  for i = 0 to n_ops - 1 do
    let choice = Hlsb_util.Rng.int rng 10 in
    let node =
      if choice < 5 then
        let op =
          match Hlsb_util.Rng.int rng 5 with
          | 0 -> Op.Add
          | 1 -> Op.Sub
          | 2 -> Op.Min
          | 3 -> Op.Xor
          | _ -> Op.Mul
        in
        Dag.op dag op ~dtype:i32 [ pick (); pick () ]
      else if choice < 7 then
        Dag.op dag Op.Select ~dtype:i32
          [ Dag.op dag (Op.Icmp Op.Lt) ~dtype:Dtype.Bool [ pick (); pick () ];
            pick (); pick () ]
      else if choice < 8 then
        Dag.input dag ~name:(Printf.sprintf "fz_x%d" i) ~dtype:i32
      else
        match buf with
        | Some b when choice = 8 -> Dag.load dag ~buffer:b ~index:(pick ())
        | Some b ->
          ignore (Dag.store dag ~buffer:b ~index:(pick ()) ~value:(pick ()));
          pick ()
        | None -> Dag.op dag Op.Abs ~dtype:i32 [ pick () ]
    in
    pool := node :: !pool
  done;
  ignore (Dag.fifo_write dag ~fifo:fout ~value:(pick ()));
  Kernel.create ~name:(Printf.sprintf "fuzz%d" seed) dag

let prop_flow_fuzz =
  QCheck.Test.make ~count:40
    ~name:"random kernels: schedule, lower, validate, place, STA"
    QCheck.(pair small_nat bool)
    (fun (seed, optimized) ->
      let recipe =
        if optimized then Style.optimized else Style.original
      in
      let r = compile_kernel ~recipe (random_kernel seed) in
      (match Netlist.validate r.Pipeline.fr_design.Design.netlist with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "invalid netlist: %s" e);
      r.Pipeline.fr_fmax_mhz > 10. && r.Pipeline.fr_fmax_mhz < 2000.)

let prop_opt_never_much_worse =
  QCheck.Test.make ~count:15
    ~name:"optimized flow within 25% of baseline on random kernels"
    QCheck.small_nat
    (fun seed ->
      let fmax recipe =
        (compile_kernel ~recipe (random_kernel seed)).Pipeline.fr_fmax_mhz
      in
      fmax Style.optimized >= 0.75 *. fmax Style.original)

let suite =
  suite
  @ List.map QCheck_alcotest.to_alcotest [ prop_flow_fuzz; prop_opt_never_much_worse ]
