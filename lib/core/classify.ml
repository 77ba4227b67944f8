open Hlsb_ir
module Device = Hlsb_device.Device

type source_broadcast = {
  b_kernel : string;
  b_node : int;
  b_what : string;
  b_reads : int;
}

type mem_broadcast = {
  m_kernel : string;
  m_buffer : string;
  m_units : int;
}

type report = {
  data_broadcasts : source_broadcast list;
  mem_broadcasts : mem_broadcast list;
  sync_domains : (int * int) list;
  pipeline_domains : (string * int) list;
}

(* Sequential elements a stall net must reach: a structural estimate from
   the IR (operator pipeline registers + memory units + interface FIFOs). *)
let stall_targets (k : Kernel.t) =
  let dag = k.Kernel.dag in
  let count = ref 0 in
  Dag.iter dag (fun v ->
    match Dag.kind dag v with
    | Dag.Operation o ->
      count := !count + 1 + Hlsb_delay.Oplib.latency_cycles o (Dag.dtype dag v)
    | Dag.Fifo_read _ | Dag.Fifo_write _ | Dag.Input _ -> incr count
    | Dag.Load _ | Dag.Store _ | Dag.Const _ | Dag.Output _ -> ());
  Array.iter
    (fun (b : Dag.buffer) ->
      count :=
        !count
        + Device.bram18_for
            ~width:(Dtype.width b.Dag.b_dtype)
            ~depth:b.Dag.b_depth)
    (Dag.buffers dag);
  !count

(* The minimum read count (or BRAM unit count) that makes a broadcast. *)
let threshold = 8

let analyze (df : Dataflow.t) =
  let data = ref [] and mem = ref [] and pipe = ref [] in
  Array.iter
    (fun (p : Dataflow.process) ->
      match p.Dataflow.p_kernel with
      | None -> ()
      | Some k ->
        let dag = k.Kernel.dag in
        Dag.iter dag (fun v ->
          let reads = Dag.broadcast_factor dag v in
          if reads >= threshold then
            data :=
              {
                b_kernel = k.Kernel.name;
                b_node = v;
                b_what = Dag.node_name dag v;
                b_reads = reads;
              }
              :: !data);
        Array.iter
          (fun (b : Dag.buffer) ->
            let units =
              Device.bram18_for
                ~width:(Dtype.width b.Dag.b_dtype)
                ~depth:b.Dag.b_depth
            in
            if units >= threshold then
              mem :=
                { m_kernel = k.Kernel.name; m_buffer = b.Dag.b_name; m_units = units }
                :: !mem)
          (Dag.buffers dag);
        pipe := (k.Kernel.name, stall_targets k) :: !pipe)
    (Dataflow.processes df);
  let sync =
    List.map
      (fun group ->
        let n = List.length group in
        (n, 2 * n))
      (Dataflow.sync_groups df)
  in
  {
    data_broadcasts =
      List.sort (fun a b -> compare b.b_reads a.b_reads) !data;
    mem_broadcasts = List.sort (fun a b -> compare b.m_units a.m_units) !mem;
    sync_domains = sync;
    pipeline_domains = List.rev !pipe;
  }

let to_string r =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "Broadcast classification (paper section 3):\n";
  Buffer.add_string buf
    (Printf.sprintf "  data broadcasts (>= %d reads): %d\n" threshold
       (List.length r.data_broadcasts));
  List.iteri
    (fun i b ->
      if i < 8 then
        Buffer.add_string buf
          (Printf.sprintf "    %s.%s (node %d): %d readers\n" b.b_kernel
             b.b_what b.b_node b.b_reads))
    r.data_broadcasts;
  Buffer.add_string buf
    (Printf.sprintf "  multi-unit memories: %d\n" (List.length r.mem_broadcasts));
  List.iteri
    (fun i m ->
      if i < 8 then
        Buffer.add_string buf
          (Printf.sprintf "    %s.%s: %d BRAM units\n" m.m_kernel m.m_buffer
             m.m_units))
    r.mem_broadcasts;
  Buffer.add_string buf
    (Printf.sprintf "  sync domains: %s\n"
       (String.concat ", "
          (List.map
             (fun (n, fo) -> Printf.sprintf "%d members (fanout %d)" n fo)
             r.sync_domains)));
  Buffer.add_string buf "  pipeline control domains (stall-net sinks):\n";
  List.iter
    (fun (k, n) -> Buffer.add_string buf (Printf.sprintf "    %s: %d\n" k n))
    r.pipeline_domains;
  Buffer.contents buf
