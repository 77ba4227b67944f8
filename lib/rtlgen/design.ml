open Hlsb_ir
module Device = Hlsb_device.Device
module Netlist = Hlsb_netlist.Netlist
module Structs = Hlsb_netlist.Structs
module Calibrate = Hlsb_delay.Calibrate
module Schedule = Hlsb_sched.Schedule
module Style = Hlsb_ctrl.Style
module Sync = Hlsb_ctrl.Sync
module Diag = Hlsb_util.Diag
module Trace = Hlsb_telemetry.Trace
module Metrics = Hlsb_telemetry.Metrics

type kernel_info = {
  ki_name : string;
  ki_depth : int;
  ki_registers_added : int;
  ki_skid_bits : int;
}

type t = {
  netlist : Netlist.t;
  device : Device.t;
  recipe : Style.recipe;
  kernels : kernel_info list;
  sync_groups_emitted : int;
  max_sync_fanout : int;
}

type datapath = {
  dp_netlist : Netlist.t;
  dp_lowered : Lower.t option array;
}

let schedule_mode device (recipe : Style.recipe) =
  match recipe.Style.sched with
  | Style.Sched_hls -> Schedule.Baseline
  | Style.Sched_aware -> Schedule.Broadcast_aware (Calibrate.shared device)

(* ---- stage: schedule ---- *)

let schedule_processes ?(target_mhz = Schedule.default_target_mhz) ?inject
    ~device ~recipe (df : Dataflow.t) =
  let mode = schedule_mode device recipe in
  let classes = Dataflow.kernel_classes df in
  let scheds = Array.make (Dataflow.n_processes df) None in
  (* A class representative precedes its members, so its schedule is
     already there to share. *)
  Array.iteri
    (fun p rep ->
      scheds.(p) <-
        Option.map
          (fun kernel ->
            if rep = p then Schedule.run ~target_mhz ?inject mode kernel
            else Schedule.rebind (Option.get scheds.(rep)) kernel)
          (Dataflow.process df p).Dataflow.p_kernel)
    classes;
  scheds

(* ---- stage: lower (kernels to macro cells, then channel wiring) ---- *)

let lower_processes ~device ~recipe ~name (df : Dataflow.t)
    (scheds : Schedule.t option array) =
  let nl = Netlist.create ~name in
  let fanout_trees = recipe.Style.sched = Style.Sched_aware in
  let n_procs = Dataflow.n_processes df in
  let lowered = Array.make n_procs None in
  let classes = Dataflow.kernel_classes df in
  let templates = Array.make n_procs None in
  let shares q (sched : Schedule.t) =
    match scheds.(q) with
    | Some s -> s.Schedule.entries == sched.Schedule.entries
    | None -> false
  in
  (* Lower kernels process-by-process so placement clusters each process.
     A class representative is lowered; each later member sharing its
     schedule is stamped from it in the member's own turn, into room
     reserved for them all at once. *)
  for p = 0 to n_procs - 1 do
    match scheds.(p) with
    | None -> ()
    | Some sched ->
      let rep = classes.(p) in
      let lw =
        match templates.(rep) with
        | Some tp when shares rep sched -> Lower.stamp nl tp sched
        | Some _ | None ->
          let lw, tp =
            Lower.lower device nl ~pipe:recipe.Style.pipe ~fanout_trees sched
          in
          let members = ref [] in
          for q = n_procs - 1 downto p + 1 do
            match scheds.(q) with
            | Some s when classes.(q) = p && shares p s -> members := s :: !members
            | Some _ | None -> ()
          done;
          if !members <> [] then begin
            templates.(p) <- Some tp;
            Lower.reserve_stamps nl tp !members
          end;
          lw
      in
      lowered.(p) <- Some lw
  done;
  (* Wire channels: writer interface -> reader FIFO cell, matched by name. *)
  Trace.with_span "wire_channels" (fun () ->
  Array.iter
    (fun (c : Dataflow.channel) ->
      let find_iface p ifaces =
        List.find_opt (fun (n, _, _) -> n = c.Dataflow.c_name) (ifaces p)
      in
      let proc_name p = (Dataflow.process df p).Dataflow.p_name in
      let missing_fifo ~side p =
        Diag.fail ~stage:"lower"
          ~entity:(Diag.Channel c.Dataflow.c_name)
          "channel %s has no matching FIFO %s interface in kernel %s"
          c.Dataflow.c_name side (proc_name p)
      in
      let wr =
        if c.Dataflow.c_src < 0 then None
        else
          Option.bind lowered.(c.Dataflow.c_src) (fun lw ->
            find_iface lw (fun lw -> lw.Lower.lw_fifo_write_ifaces))
      in
      let rd =
        if c.Dataflow.c_dst < 0 then None
        else
          Option.bind lowered.(c.Dataflow.c_dst) (fun lw ->
            find_iface lw (fun lw -> lw.Lower.lw_fifo_read_ifaces))
      in
      match (wr, rd) with
      | Some (_, wcell, width), Some (_, rcell, _) ->
        Netlist.name_str nl "chan_";
        ignore
          (Netlist.add_net nl ~name:c.Dataflow.c_name ~driver:wcell
             ~sinks:[ rcell ] ~width ())
      | Some (_, wcell, width), None when c.Dataflow.c_dst < 0 ->
        Netlist.name_str nl "port_";
        let port =
          Netlist.add_cell nl ~name:c.Dataflow.c_name ~kind:Netlist.Port_out
            ~delay:0. ~res:Netlist.zero_res
        in
        Netlist.name_str nl "chan_";
        ignore
          (Netlist.add_net nl ~name:c.Dataflow.c_name ~driver:wcell
             ~sinks:[ port ] ~width ())
      | None, _ when c.Dataflow.c_src < 0 -> () (* external input: fed by port *)
      | None, _ -> missing_fifo ~side:"write" c.Dataflow.c_src
      | Some _, None -> missing_fifo ~side:"read" c.Dataflow.c_dst)
    (Dataflow.channels df));
  { dp_netlist = nl; dp_lowered = lowered }

(* ---- stage: sync (controllers over the lowered datapath) ---- *)

let emit_sync ~device ~recipe (df : Dataflow.t) (dp : datapath) =
  let nl = dp.dp_netlist in
  let lowered = dp.dp_lowered in
  let n_groups = ref 0 in
  let max_fanout = ref 0 in
  Trace.with_span "sync_controllers" (fun () ->
  let df_sync =
    match recipe.Style.sync with
    | Style.Sync_naive -> df
    | Style.Sync_pruned -> Sync.split_independent df
  in
  List.iter
    (fun group ->
      let members =
        List.filter_map
          (fun p -> Option.map (fun lw -> (p, lw)) lowered.(p))
          group
      in
      if List.length members > 1 then begin
        incr n_groups;
        let wait_procs =
          match recipe.Style.sync with
          | Style.Sync_naive -> List.map fst members
          | Style.Sync_pruned ->
            let bound (p, _) =
              match (Dataflow.process df_sync p).Dataflow.p_latency with
              | Some l -> (p, Sync.Exact l)
              | None -> (p, Sync.Unknown)
            in
            (Sync.prune_with_bounds (List.map bound members)).Sync.waited
        in
        Metrics.incr
          ~by:(max 0 (List.length members - List.length wait_procs))
          "sync.edges_pruned";
        let dones =
          List.filter_map
            (fun p ->
              Option.map (fun lw -> lw.Lower.lw_done)
                (if List.mem p wait_procs then lowered.(p) else None))
            wait_procs
        in
        let root =
          match dones with
          | [] -> None
          | _ ->
            Some
              (Structs.add_and_tree device nl
                 ~name:(Printf.sprintf "sync%d" !n_groups)
                 ~inputs:dones)
        in
        (* FSM state register holding the aggregated condition; its output
           is the broadcast next-start (Fig. 6). *)
        (* controller names are ["sync<group>_<part>"] *)
        let group () =
          Netlist.name_str nl "sync";
          Netlist.name_int nl !n_groups
        in
        match root with
        | None -> ()
        | Some root_cell ->
          group ();
          let fsm =
            Netlist.add_cell nl ~name:"_fsm" ~kind:Netlist.Seq ~delay:0.
              ~res:(Hlsb_netlist.Macro.fsm ~states:4)
          in
          group ();
          ignore
            (Netlist.add_net nl ~cls:Netlist.Ctrl_sync ~name:"_cond"
               ~driver:root_cell ~sinks:[ fsm ] ~width:1 ());
          let n_start =
            List.fold_left
              (fun n (_, lw) -> n + List.length lw.Lower.lw_start_sinks)
              0 members
          in
          max_fanout := max !max_fanout n_start;
          if n_start > 0 then begin
            (* each member kernel registers the incoming start in its own
               controller, so the broadcast takes two registered hops *)
            group ();
            let hop = Structs.add_register nl ~name:"_hop" ~width:1 in
            group ();
            ignore
              (Netlist.add_net nl ~cls:Netlist.Ctrl_sync ~name:"_s0"
                 ~driver:fsm ~sinks:[ hop ] ~width:1 ());
            group ();
            List.iter
              (fun (_, lw) -> List.iter (Netlist.push_sink nl) lw.Lower.lw_start_sinks)
              members;
            ignore
              (Netlist.add_net nl ~cls:Netlist.Ctrl_sync ~name:"_start"
                 ~driver:hop ~sinks:[] ~width:1 ())
          end
      end)
    (Dataflow.sync_groups df_sync));
  let kernels =
    Array.to_list lowered
    |> List.filter_map
         (Option.map (fun lw ->
            {
              ki_name = lw.Lower.lw_name;
              ki_depth = lw.Lower.lw_depth;
              ki_registers_added = lw.Lower.lw_registers_added;
              ki_skid_bits = lw.Lower.lw_skid_bits;
            }))
  in
  if Metrics.enabled () then begin
    Metrics.incr ~by:(Netlist.n_cells nl) "netlist.cells";
    Metrics.incr ~by:(Netlist.n_nets nl) "netlist.nets";
    Metrics.incr ~by:!n_groups "sync.controllers";
    Metrics.set_gauge_int "sync.max_start_fanout" !max_fanout;
    Array.iter
      (fun lw ->
        match lw with
        | None -> ()
        | Some lw ->
          Metrics.incr ~by:lw.Lower.lw_registers_added "lower.registers_added";
          Metrics.incr ~by:lw.Lower.lw_skid_bits "lower.skid_bits")
      lowered
  end;
  {
    netlist = nl;
    device;
    recipe;
    kernels;
    sync_groups_emitted = !n_groups;
    max_sync_fanout = !max_fanout;
  }

let kernel_dataflow kernel =
  let df = Dataflow.create () in
  let p =
    Dataflow.add_process df ~name:kernel.Kernel.name ~kernel ()
  in
  (* Anchor channel so the network validates; external-input channels with
     no matching FIFO are legal and skipped by the wiring pass. *)
  ignore
    (Dataflow.add_channel df
       ~name:(kernel.Kernel.name ^ "_anchor")
       ~src:(-1) ~dst:p ~dtype:(Dtype.Uint 8) ());
  df
