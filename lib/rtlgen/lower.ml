open Hlsb_ir
module Device = Hlsb_device.Device
module Netlist = Hlsb_netlist.Netlist
module Macro = Hlsb_netlist.Macro
module Structs = Hlsb_netlist.Structs
module Oplib = Hlsb_delay.Oplib
module Schedule = Hlsb_sched.Schedule
module Sched_report = Hlsb_sched.Report
module Style = Hlsb_ctrl.Style
module Skid = Hlsb_ctrl.Skid

type t = {
  lw_name : string;
  lw_depth : int;
  lw_done : int;
  lw_start_sinks : int list;
  lw_fifo_write_ifaces : (string * int * int) list;
  lw_fifo_read_ifaces : (string * int * int) list;
  lw_skid_bits : int;
  lw_registers_added : int;
}

(* What a kernel's names spell that differs between members of a class:
   a symbol, looked up by node or by id (which [Dag.same_structure] keeps
   equal across a class), or a cell id (a register chain's link names),
   which a stamp shifts like the cell. *)
type symbol =
  | Input_name of Dag.node
  | Output_name of Dag.node
  | Fifo_name of int
  | Buffer_name of int
  | Cell_id of int

let spell dag ~shift = function
  | Input_name v | Output_name v -> (
    match Dag.kind dag v with
    | Dag.Input s | Dag.Output s -> s
    | _ -> invalid_arg "Lower: not a port node")
  | Fifo_name f -> (Dag.fifo dag f).Dag.f_name
  | Buffer_name b -> (Dag.buffer dag b).Dag.b_name
  | Cell_id c -> string_of_int (c + shift)

(* The names of cells (or nets) [lo .. hi - 1], counted from the kernel's
   first, spell [sym] at their tail or right after the prefix. *)
type spot = {
  sym : symbol;
  net : bool;
  lo : int;
  hi : int;
  tail : bool;
}

type template = {
  tp_kernel : Kernel.t;
  tp_entries : Schedule.entry array;
  tp_from : Netlist.mark;
  tp_upto : Netlist.mark;
  tp_spots : spot list;  (* in the order recorded: each kind sorted by id *)
  tp_fifo_wr : int list;  (* the fifo of each write interface *)
  tp_fifo_rd : int list;
  tp_lowered : t;
}

let big_fanout = 8

let lower_body (d : Device.t) nl ~pipe ~fanout_trees (sched : Schedule.t) =
  let k = sched.Schedule.kernel in
  let dag = k.Kernel.dag in
  let kname = k.Kernel.name in
  let n = Dag.n_nodes dag in
  let entries = sched.Schedule.entries in
  let from = Netlist.mark nl in
  (* Where a name spells a symbol: at its tail, or (a memory bank's
     cells and nets) right after the prefix. *)
  let spots = ref [] in
  let splice ~net ~lo ~hi ~tail sym =
    let base = if net then from.Netlist.m_nets else from.Netlist.m_cells in
    spots := { sym; net; lo = lo - base; hi = hi - base; tail } :: !spots
  in
  let tail_cell c sym = splice ~net:false ~lo:c ~hi:(c + 1) ~tail:true sym in
  let tail_net n sym = splice ~net:true ~lo:n ~hi:(n + 1) ~tail:true sym in
  (* Names are written piece by piece into the netlist's arena, and the
     add that follows seals them ({!Netlist.add_cell}): [pre s] writes
     ["<kernel>.<s>"], [vpre stem v] writes ["<kernel>.<stem><v>"] and
     [vpre_i] appends ["<sep><i>"]. A multi-cell structure takes one base
     string ([cname], [vname]). *)
  let prefix = kname ^ "." in
  let put = Netlist.name_str nl and put_int = Netlist.name_int nl in
  let push = Netlist.push_sink nl in
  let pre s =
    put prefix;
    put s
  in
  let vpre stem v =
    pre stem;
    put_int v
  in
  let vpre_i stem v sep i =
    vpre stem v;
    put sep;
    put_int i
  in
  let cname s = prefix ^ s in
  let vname stem v = prefix ^ stem ^ string_of_int v in
  (* Per-node lowering result: the cell whose output carries the node's
     value after its intrinsic/added latency (-1 for Const and value-less
     nodes), plus the cells at which this node's *inputs* arrive (a Load's
     address arrives at every BRAM unit). *)
  let result = Array.make n (-1) and arg_sinks = Array.make n [||] in
  let slot v r sinks =
    result.(v) <- r;
    arg_sinks.(v) <- sinks
  in
  let seq_cells = ref [] in
  let start_sinks = ref [] in
  let fifo_rd = ref [] and fifo_wr = ref [] in
  let registers_added = ref 0 in
  let add_seq c = seq_cells := c :: !seq_cells in
  let new_reg ?name width =
    let c = Structs.add_register ?name nl ~width in
    add_seq c;
    c
  in
  (* Register chain of given length after a producer cell, named
     [vname stem v ^ "_p" ^ i]; returns its last register. *)
  let chain_after producer stem v width length =
    let prev = ref producer in
    for i = 1 to length do
      vpre_i stem v "_p" i;
      let r = new_reg width in
      vpre_i stem v "_pn" i;
      ignore (Netlist.add_net nl ~driver:!prev ~sinks:[ r ] ~width ());
      prev := r
    done;
    !prev
  in
  (* Memory banks are shared across all loads/stores of one buffer. Under
     the broadcast-aware flow, banks spanning many units get their read
     cascade pipelined (the BRAM output registers §4.1's added latency
     enables). *)
  let banks = Hashtbl.create 4 in
  let get_banks b =
    match Hashtbl.find_opt banks b with
    | Some mbs -> mbs
    | None ->
      let buf = Dag.buffer dag b in
      let p = buf.Dag.b_partition in
      let c0 = Netlist.n_cells nl and n0 = Netlist.n_nets nl in
      let mbs =
        if p <= 1 then begin
          let units =
            Device.bram18_for
              ~width:(Dtype.width buf.Dag.b_dtype)
              ~depth:buf.Dag.b_depth
          in
          let read_pipeline = fanout_trees && units > 16 in
          [|
            Structs.add_membank d nl ~read_pipeline
              ~name:(cname buf.Dag.b_name)
              ~width:(Dtype.width buf.Dag.b_dtype)
              ~depth:buf.Dag.b_depth ();
          |]
        end
        else
          (* Cyclic array partitioning (§3.1): [p] independent banks of
             [depth/p] words each. The same data/address source must now
             reach every bank — partitioning multiplies the memories a
             broadcast serves, while each bank's own write net narrows. *)
          Array.init p (fun bk ->
            let depth = (buf.Dag.b_depth + p - 1) / p in
            let units =
              Device.bram18_for ~width:(Dtype.width buf.Dag.b_dtype) ~depth
            in
            let read_pipeline = fanout_trees && units > 16 in
            Structs.add_membank d nl ~read_pipeline
              ~name:(cname (buf.Dag.b_name ^ "_bk" ^ string_of_int bk))
              ~width:(Dtype.width buf.Dag.b_dtype)
              ~depth ())
      in
      splice ~net:false ~lo:c0 ~hi:(Netlist.n_cells nl) ~tail:false (Buffer_name b);
      splice ~net:true ~lo:n0 ~hi:(Netlist.n_nets nl) ~tail:false (Buffer_name b);
      Array.iter (fun mb -> Array.iter add_seq mb.Structs.mb_units) mbs;
      Hashtbl.add banks b mbs;
      mbs
  in
  (* ---- pass 1: cells per node ---- *)
  Dag.iter dag (fun v ->
    let e = entries.(v) in
    let dt = Dag.dtype dag v in
    let w = Dtype.width dt in
    match Dag.kind dag v with
      | Dag.Const _ -> slot v (-1) [||]
      | Dag.Input name ->
        (* Data inputs are loaded by the datapath as it runs; only control
           interfaces (FIFO reads, the iteration counter) listen to the
           controller's start. *)
        pre "in_";
        let c = new_reg ~name w in
        tail_cell c (Input_name v);
        slot v c [||]
      | Dag.Operation o ->
        (* Internal stages: intrinsic pipelining + §4.1 split stages. The
           broadcast-distribution stages are realized in the wiring pass as
           a fanout tree instead. The macro's combinational delay is spread
           across its internal stages (DSP MREG/PREG, float-core stages,
           retiming over the split registers). *)
        let internal = e.Schedule.e_latency - e.Schedule.e_bcast_levels in
        put prefix;
        Op.spell put put_int o;
        put "_";
        put_int v;
        let c =
          Netlist.add_cell nl ~kind:Netlist.Comb
            ~delay:(Oplib.logic_delay d o dt /. float_of_int (internal + 1))
            ~res:(Oplib.resources o dt)
        in
        let result =
          if internal > 0 then begin
            registers_added := !registers_added + e.Schedule.e_added_pipe;
            chain_after c "r" v w internal
          end
          else c
        in
        slot v result [| c |]
      | Dag.Load b when Array.length (get_banks b) > 1 ->
        (* partitioned read: the address reaches every bank's units, a
           bank-select mux funnels the read data back to one register *)
        let mbs = get_banks b in
        let all_units =
          Array.concat
            (Array.to_list (Array.map (fun mb -> mb.Structs.mb_units) mbs))
        in
        vpre "ld" v;
        let mux =
          Netlist.add_cell nl ~name:"_bmux" ~kind:Netlist.Comb ~delay:0.05
            ~res:(Macro.logic w)
        in
        Array.iteri
          (fun bk mb ->
            vpre_i "ld" v "_bk" bk;
            ignore
              (Netlist.add_net nl ~driver:mb.Structs.mb_read_out ~sinks:[ mux ]
                 ~width:w ()))
          mbs;
        vpre "ld" v;
        let out = new_reg ~name:"_q" w in
        vpre "ld" v;
        ignore
          (Netlist.add_net nl ~name:"_d" ~driver:mux ~sinks:[ out ] ~width:w ());
        let extra =
          max 0 (e.Schedule.e_added_pipe - mbs.(0).Structs.mb_read_latency)
        in
        let result =
          if extra > 0 then begin
            registers_added := !registers_added + extra;
            chain_after out "ld" v w extra
          end
          else out
        in
        slot v result all_units
      | Dag.Load b ->
        let mb = (get_banks b).(0) in
        let units = mb.Structs.mb_units in
        (* Synchronous read: one output register, plus any added stages. *)
        vpre "ld" v;
        let out = new_reg ~name:"_q" w in
        vpre "ld" v;
        ignore
          (Netlist.add_net nl ~name:"_d" ~driver:mb.Structs.mb_read_out
             ~sinks:[ out ] ~width:w ());
        let added = e.Schedule.e_added_pipe in
        if fanout_trees && added > 0 && mb.Structs.mb_n_units > 16 then begin
          (* Spend the added latency on pipelining the address broadcast —
             that is where the wire delay lives for big buffers. *)
          registers_added := !registers_added + added;
          vpre "ld" v;
          let addr_root =
            Netlist.add_cell nl ~name:"_addr" ~kind:Netlist.Comb ~delay:0.05
              ~res:(Macro.logic 16)
          in
          ignore
            (Structs.add_fanout_tree nl
               ~name:(vname "ld" v ^ "_atree")
               ~driver:addr_root ~sinks:units ~width:16 ~levels:added
               ~leaf_fanout:16);
          slot v out [| addr_root |]
        end
        else begin
          let extra =
            max 0 (e.Schedule.e_added_pipe - mb.Structs.mb_read_latency)
          in
          let result =
            if extra > 0 then begin
              registers_added := !registers_added + extra;
              chain_after out "ld" v w extra
            end
            else out
          in
          slot v result units
        end
      | Dag.Store b when Array.length (get_banks b) > 1 ->
        (* partitioned write: one bundle source, one write net per bank —
           each net narrower than the unpartitioned broadcast would be *)
        let mbs = get_banks b in
        let bundle_w = w + 16 in
        vpre "st" v;
        let st =
          Netlist.add_cell nl ~kind:Netlist.Comb ~delay:0.10
            ~res:(Macro.logic bundle_w)
        in
        Array.iteri
          (fun bk mb ->
            let cls =
              if mb.Structs.mb_n_units >= big_fanout then
                Netlist.Data_broadcast
              else Netlist.Data
            in
            vpre_i "st" v "_w" bk;
            Array.iter push mb.Structs.mb_units;
            ignore
              (Netlist.add_net nl ~cls ~driver:st ~sinks:[] ~width:bundle_w ()))
          mbs;
        slot v (-1) [| st |]
      | Dag.Store b ->
        let mb = (get_banks b).(0) in
        (* Bundle value+address; the bundle cell is the broadcast source of
           Fig. 4 (a raw mid-chain net under the baseline flow). *)
        let bundle_w = w + 16 in
        vpre "st" v;
        let st =
          Netlist.add_cell nl ~kind:Netlist.Comb ~delay:0.10
            ~res:(Macro.logic bundle_w)
        in
        let units = mb.Structs.mb_units in
        let added = e.Schedule.e_added_pipe in
        if fanout_trees && added > 0 && mb.Structs.mb_n_units > 1 then begin
          registers_added := !registers_added + added;
          ignore
            (Structs.add_fanout_tree nl ~name:(vname "st" v ^ "_tree") ~driver:st
               ~sinks:units ~width:bundle_w ~levels:added
               ~leaf_fanout:16)
        end
        else begin
          let cls =
            if mb.Structs.mb_n_units >= big_fanout then Netlist.Data_broadcast
            else Netlist.Data
          in
          vpre "st" v;
          Array.iter push units;
          ignore
            (Netlist.add_net nl ~cls ~name:"_w" ~driver:st ~sinks:[]
               ~width:bundle_w ())
        end;
        slot v (-1) [| st |]
      | Dag.Fifo_read f ->
        let fd = Dag.fifo dag f in
        pre "fifo_";
        let c =
          Netlist.add_cell nl ~name:fd.Dag.f_name ~kind:Netlist.Seq ~delay:0.2
            ~res:(Macro.fifo ~width:w ~depth:fd.Dag.f_depth)
        in
        tail_cell c (Fifo_name f);
        add_seq c;
        start_sinks := c :: !start_sinks;
        fifo_rd := (f, c, w) :: !fifo_rd;
        slot v c [||]
      | Dag.Fifo_write f ->
        (* The FIFO write interface is registered (the macro's input
           stage), so cross-kernel channel wires start at a register and
           do not extend the producer's datapath cycle. *)
        let fd = Dag.fifo dag f in
        pre "wr_";
        let c =
          Netlist.add_cell nl ~name:fd.Dag.f_name ~kind:Netlist.Seq ~delay:0.2
            ~res:(Netlist.add_res (Macro.logic w) (Macro.register w))
        in
        tail_cell c (Fifo_name f);
        add_seq c;
        fifo_wr := (f, c, w) :: !fifo_wr;
        slot v (-1) [| c |]
      | Dag.Output name ->
        pre "out_";
        let c =
          Netlist.add_cell nl ~name ~kind:Netlist.Port_out ~delay:0.
            ~res:Netlist.zero_res
        in
        tail_cell c (Output_name v);
        slot v (-1) [| c |]);
  (* ---- pass 2: nets (args -> consumers), with cross-cycle registers ---- *)
  (* Cycle at which v's value leaves its internal pipeline; the remaining
     e_bcast_levels stages up to the scheduler's result cycle belong to the
     distribution tree built here. *)
  let internal_done_cycle v =
    Schedule.finish_cycle sched v - entries.(v).Schedule.e_bcast_levels
  in
  (* [groups.(j)]: the readers of one value that read it [j] cycles after
     it leaves its pipeline, ascending (the read slots come descending, one
     per read, and are consed); reset after each value. *)
  let groups =
    Array.make
      (1 + Array.fold_left (fun m e -> max m e.Schedule.e_cycle) 0 entries)
      []
  in
  (* One walk over a value's read slots files each reader under its
     distance; [jmin] and [jmax] bound the groups it filled. *)
  let jmin = ref max_int and jmax = ref (-1) in
  let rec group_reads rcyc = function
    | [] -> ()
    | u :: rest ->
      if Array.length arg_sinks.(u) > 0 then begin
        let j = max 0 (entries.(u).Schedule.e_cycle - rcyc) in
        groups.(j) <- u :: groups.(j);
        if j < !jmin then jmin := j;
        if j > !jmax then jmax := j
      end;
      group_reads rcyc rest
  in
  (* A group's net sinks: its readers in order, each reader's cells in
     reverse (the sink order the golden digests pin). *)
  let count_sinks n u = n + Array.length arg_sinks.(u) in
  let push_reader u =
    let cells = arg_sinks.(u) in
    for k = Array.length cells - 1 downto 0 do
      push cells.(k)
    done
  in
  let sink_array readers =
    let a = Array.make (List.fold_left count_sinks 0 readers) 0 in
    let fill k u =
      let cells = arg_sinks.(u) in
      let n = Array.length cells in
      for i = 0 to n - 1 do
        a.(k + i) <- cells.(n - 1 - i)
      done;
      k + n
    in
    ignore (List.fold_left fill 0 readers);
    a
  in
  (* Group each node's consumers by cycle distance. *)
  Dag.iter dag (fun v ->
    let rc = result.(v) in
    if rc >= 0 then begin
      jmin := max_int;
      jmax := -1;
      group_reads (internal_done_cycle v) (Dag.consumer_slots dag v);
      if !jmax >= 0 then begin
        let w = Dtype.width (Dag.dtype dag v) in
        (* Boundary register chain, extended lazily: [!reg] holds v's value
           [!hops] cycles after its result cycle. *)
        let hops = ref 0 and reg = ref rc in
        for j = !jmin to !jmax do
          match groups.(j) with
          | [] -> ()
          | readers ->
            groups.(j) <- [];
            let n_sinks = List.fold_left count_sinks 0 readers in
            let cls =
              if n_sinks >= big_fanout then Netlist.Data_broadcast
              else Netlist.Data
            in
            if j = 0 then begin
              (* Consumers chained directly to the producer — under the
                 baseline flow this is the raw mid-chain broadcast of §3.1. *)
              vpre "v" v;
              List.iter push_reader readers;
              ignore
                (Netlist.add_net nl ~cls ~name:"_c0" ~driver:rc ~sinks:[]
                   ~width:w ())
            end
            else if fanout_trees && n_sinks > 16 then begin
              registers_added := !registers_added + j;
              ignore
                (Structs.add_fanout_tree nl
                   ~name:(vname "v" v ^ "_ft" ^ string_of_int j)
                   ~driver:rc ~sinks:(sink_array readers) ~width:w ~levels:j
                   ~leaf_fanout:8)
            end
            else begin
              while !hops < j do
                incr hops;
                vpre_i "v" v "_s" !hops;
                let r = new_reg w in
                vpre_i "v" v "_sn" !hops;
                ignore (Netlist.add_net nl ~driver:!reg ~sinks:[ r ] ~width:w ());
                reg := r
              done;
              vpre_i "v" v "_c" j;
              List.iter push_reader readers;
              ignore (Netlist.add_net nl ~cls ~driver:!reg ~sinks:[] ~width:w ())
            end
        done
      end
    end);
  (* Iteration counter feeding the done flag: created before control
     generation so the stall net reaches it too. *)
  pre "iter_cnt";
  let counter = new_reg 16 in
  start_sinks := counter :: !start_sinks;
  (* Link [k] of a register chain is named after register [k]'s cell id. *)
  let reg_chain stem length =
    let n0 = Netlist.n_nets nl in
    let regs = Structs.add_reg_chain nl ~name:(cname stem) ~width:1 ~length in
    List.iteri
      (fun k c -> if n0 + k < Netlist.n_nets nl then tail_net (n0 + k) (Cell_id c))
      regs;
    List.iter add_seq regs;
    regs
  in
  (* ---- pass 3: pipeline control ---- *)
  let depth = sched.Schedule.depth in
  let skid_bits = ref 0 in
  (match pipe with
  | Style.Stall ->
    (* FIFO status -> stall logic -> every sequential element (Fig. 8). *)
    pre "stall_logic";
    let stall =
      Netlist.add_cell nl ~kind:Netlist.Comb
        ~delay:(2. *. d.Device.t_lut)
        ~res:(Macro.logic (4 + List.length !fifo_rd + List.length !fifo_wr))
    in
    List.iter
      (fun (f, c, _) ->
        pre "full_";
        let net =
          Netlist.add_net nl ~cls:Netlist.Ctrl_pipeline
            ~name:(Dag.fifo dag f).Dag.f_name ~driver:c ~sinks:[ stall ]
            ~width:1 ()
        in
        tail_net net (Fifo_name f))
      !fifo_rd;
    let sinks = List.rev !seq_cells in
    if sinks <> [] then begin
      pre "stall";
      ignore
        (Netlist.add_net nl ~cls:Netlist.Ctrl_pipeline ~driver:stall ~sinks
           ~width:1 ())
    end
  | Style.Skid { min_area } ->
    (* Valid-bit chain accompanying the data (always-flowing pipeline). *)
    let valids = reg_chain "valid" (max 1 depth) in
    let widths = Sched_report.stage_widths sched in
    let out_width = max 1 (Kernel.data_width_out k) in
    let plan =
      if min_area then Skid.min_area ~widths ~out_width
      else Skid.end_only ~widths ~out_width
    in
    (* Back-pressure is registered every few stages; the buffers absorb the
       extra in-flight entries. *)
    let ctrl_stages = max 2 (depth / 8) in
    let first_fifo = ref None in
    List.iter
      (fun (pos, depth_entries, width) ->
        (* a zero-width segment still carries its valid bit *)
        let width = max 1 width in
        let entries_total = depth_entries + ctrl_stages in
        vpre "skid_" pos;
        let c =
          Netlist.add_cell nl ~kind:Netlist.Seq ~delay:0.2
            ~res:(Macro.fifo ~width ~depth:entries_total)
        in
        add_seq c;
        skid_bits := !skid_bits + (entries_total * width);
        if !first_fifo = None then first_fifo := Some c;
        (* data entering the skid buffer comes from the nearest valid reg *)
        let src =
          let idx = min (pos - 1) (List.length valids - 1) in
          List.nth valids idx
        in
        vpre "skid_in_" pos;
        ignore (Netlist.add_net nl ~driver:src ~sinks:[ c ] ~width ()))
      plan.Skid.depths;
    (* Occupancy of the first buffer gates upstream reads, through a short
       register pipeline (local nets only — no broadcast). *)
    (match !first_fifo with
    | None -> ()
    | Some f ->
      let hops = reg_chain "bp" ctrl_stages in
      (match hops with
      | first :: _ ->
        pre "bp_src";
        ignore
          (Netlist.add_net nl ~cls:Netlist.Ctrl_pipeline ~driver:f
             ~sinks:[ first ] ~width:1 ())
      | [] -> ());
      pre "read_gate";
      let gate =
        Netlist.add_cell nl ~kind:Netlist.Comb
          ~delay:d.Device.t_lut ~res:(Macro.logic 4)
      in
      let last_hop = List.nth hops (List.length hops - 1) in
      pre "bp_gate";
      ignore
        (Netlist.add_net nl ~cls:Netlist.Ctrl_pipeline ~driver:last_hop
           ~sinks:[ gate ] ~width:1 ());
      let read_sinks = List.map (fun (_, c, _) -> c) !fifo_rd in
      if read_sinks <> [] then begin
        pre "read_en";
        ignore
          (Netlist.add_net nl ~cls:Netlist.Ctrl_pipeline ~driver:gate
             ~sinks:read_sinks ~width:1 ())
      end));
  (* ---- done flag ---- *)
  pre "done";
  let done_cell =
    Netlist.add_cell nl ~kind:Netlist.Comb ~delay:(2. *. d.Device.t_lut)
      ~res:(Macro.logic 16)
  in
  pre "cnt_q";
  ignore
    (Netlist.add_net nl ~cls:Netlist.Ctrl_sync ~driver:counter
       ~sinks:[ done_cell ] ~width:16 ());
  let ifaces l = List.rev_map (fun (f, c, w) -> ((Dag.fifo dag f).Dag.f_name, c, w)) l in
  let lw =
    {
      lw_name = kname;
      lw_depth = depth;
      lw_done = done_cell;
      lw_start_sinks = List.rev !start_sinks;
      lw_fifo_write_ifaces = ifaces !fifo_wr;
      lw_fifo_read_ifaces = ifaces !fifo_rd;
      lw_skid_bits = !skid_bits;
      lw_registers_added = !registers_added;
    }
  in
  let fifo_ids l = List.rev_map (fun (f, _, _) -> f) l in
  ( lw,
    {
      tp_kernel = k;
      tp_entries = entries;
      tp_from = from;
      tp_upto = Netlist.mark nl;
      tp_spots = List.rev !spots;
      tp_fifo_wr = fifo_ids !fifo_wr;
      tp_fifo_rd = fifo_ids !fifo_rd;
      tp_lowered = lw;
    } )

module Trace = Hlsb_telemetry.Trace
module Json = Hlsb_telemetry.Json

let traced ?stamped_from (sched : Schedule.t) body =
  if not (Trace.enabled ()) then body ()
  else
    let from =
      match stamped_from with
      | None -> []
      | Some (r : Kernel.t) -> [ ("stamped_from", Json.Str r.Kernel.name) ]
    in
    Trace.with_span "lower"
      ~attrs:
        (("kernel", Json.Str sched.Schedule.kernel.Kernel.name)
        :: ("depth", Json.Int sched.Schedule.depth)
        :: from)
      body

let lower d nl ~pipe ~fanout_trees sched =
  traced sched (fun () -> lower_body d nl ~pipe ~fanout_trees sched)

(* [Netlist.copy_slice]'s name arguments for a copy of [tp]'s slice
   [shift] cells further on, for kernel [k]. *)
let copy_args tp (k : Kernel.t) ~shift =
  let rep = tp.tp_kernel in
  ( String.length rep.Kernel.name + 1,
    k.Kernel.name ^ ".",
    List.map
      (fun s ->
        {
          Netlist.sp_net = s.net;
          sp_lo = s.lo;
          sp_hi = s.hi;
          sp_tail = s.tail;
          sp_len = String.length (spell rep.Kernel.dag ~shift:0 s.sym);
          sp_with = spell k.Kernel.dag ~shift s.sym;
        })
      tp.tp_spots )

let check_shared tp (sched : Schedule.t) =
  if sched.Schedule.entries != tp.tp_entries then
    invalid_arg "Lower.stamp: the schedule is not the representative's"

let stamp nl tp (sched : Schedule.t) =
  check_shared tp sched;
  traced ~stamped_from:tp.tp_kernel sched (fun () ->
    let k = sched.Schedule.kernel in
    let shift = Netlist.n_cells nl - tp.tp_from.Netlist.m_cells in
    let drop, prefix, splices = copy_args tp k ~shift in
    Netlist.copy_slice nl ~from:tp.tp_from ~upto:tp.tp_upto ~drop ~prefix ~splices;
    Hlsb_telemetry.Metrics.incr "lower.kernels_stamped";
    let mv c = c + shift in
    let ifaces ids l =
      List.map2
        (fun f (_, c, w) -> ((Dag.fifo k.Kernel.dag f).Dag.f_name, mv c, w))
        ids l
    in
    let lw = tp.tp_lowered in
    {
      lw with
      lw_name = k.Kernel.name;
      lw_done = mv lw.lw_done;
      lw_start_sinks = List.map mv lw.lw_start_sinks;
      lw_fifo_write_ifaces = ifaces tp.tp_fifo_wr lw.lw_fifo_write_ifaces;
      lw_fifo_read_ifaces = ifaces tp.tp_fifo_rd lw.lw_fifo_read_ifaces;
    })

let reserve_stamps nl tp scheds =
  let from = tp.tp_from and upto = tp.tp_upto in
  let copies = List.length scheds in
  let slice_cells = upto.Netlist.m_cells - from.Netlist.m_cells in
  (* Name bytes as if the stamps came back to back: the cell ids in link
     names are then exact. *)
  let name_bytes, _ =
    List.fold_left
      (fun (acc, shift) (sched : Schedule.t) ->
        check_shared tp sched;
        let drop, prefix, splices = copy_args tp sched.Schedule.kernel ~shift in
        ( acc + Netlist.copy_name_bytes ~from ~upto ~drop ~prefix ~splices,
          shift + slice_cells ))
      (0, Netlist.n_cells nl - from.Netlist.m_cells)
      scheds
  in
  Netlist.reserve nl
    ~cells:(copies * slice_cells)
    ~nets:(copies * (upto.Netlist.m_nets - from.Netlist.m_nets))
    ~sinks:(copies * (upto.Netlist.m_sinks - from.Netlist.m_sinks))
    ~name_bytes
