open Hlsb_ir

let to_string (s : Schedule.t) =
  let dag = s.Schedule.kernel.Kernel.dag in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "schedule %s [%s] target %.2f ns, depth %d\n"
       s.Schedule.kernel.Kernel.name s.Schedule.mode_label s.Schedule.target_ns
       s.Schedule.depth);
  for c = 0 to s.Schedule.depth - 1 do
    let any = ref false in
    Dag.iter dag (fun v ->
      let e = s.Schedule.entries.(v) in
      if e.Schedule.e_cycle = c then begin
        if not !any then begin
          Buffer.add_string buf (Printf.sprintf "cycle %d:\n" c);
          any := true
        end;
        Buffer.add_string buf
          (Printf.sprintf "  %%%-4d %-14s start %5.2f  delay %5.2f  fo %-4d%s\n"
             v (Dag.node_name dag v) e.Schedule.e_start e.Schedule.e_delay
             e.Schedule.e_factor
             (if e.Schedule.e_added_pipe > 0 then
                Printf.sprintf "  (+%d pipe)" e.Schedule.e_added_pipe
              else ""))
      end)
  done;
  Buffer.contents buf

let stage_widths (s : Schedule.t) =
  let dag = s.Schedule.kernel.Kernel.dag in
  let nb = max 0 (s.Schedule.depth - 1) in
  let widths = Array.make nb 0 in
  let entries = s.Schedule.entries in
  let rec latest acc = function
    | [] -> acc
    | u :: rest ->
      let c = entries.(u).Schedule.e_cycle in
      latest (if acc >= c then acc else c) rest
  in
  Dag.iter dag (fun v ->
    let def = entries.(v).Schedule.e_cycle in
    let last_use = latest def (Dag.consumer_slots dag v) in
    let w = Dtype.width (Dag.dtype dag v) in
    (* value occupies pipeline storage across boundaries def..last_use-1
       (including the operator's own internal stages) *)
    for b = def to min (last_use - 1) (nb - 1) do
      if b >= 0 then widths.(b) <- widths.(b) + w
    done);
  widths

let chain_delays (s : Schedule.t) =
  let dag = s.Schedule.kernel.Kernel.dag in
  let delays = Array.make s.Schedule.depth 0. in
  Dag.iter dag (fun v ->
    let e = s.Schedule.entries.(v) in
    let finish = e.Schedule.e_start +. e.Schedule.e_delay in
    if e.Schedule.e_cycle < s.Schedule.depth then
      delays.(e.Schedule.e_cycle) <- max delays.(e.Schedule.e_cycle) finish);
  delays

let chain_delays_calibrated cal (s : Schedule.t) =
  let dag = s.Schedule.kernel.Kernel.dag in
  let entries = s.Schedule.entries in
  let n = Dag.n_nodes dag in
  let finish = Array.make n 0. in
  let delays = Array.make s.Schedule.depth 0. in
  let delay = Schedule.node_delays (Schedule.Broadcast_aware cal) dag in
  (* Input-side factor, mirroring the scheduler: the operator reading a
     broadcast variable is the one whose input net pays for it. *)
  let out_factor = Array.make n 1 in
  Dag.iter dag (fun v ->
    let f = max 1 (Schedule.same_cycle_factor s v) in
    (* tree-distributed values reach readers from leaf registers *)
    let f =
      if entries.(v).Schedule.e_bcast_levels > 0 then min f 8 else f
    in
    out_factor.(v) <- f);
  Dag.iter dag (fun v ->
    let e = entries.(v) in
    let factor =
      List.fold_left (fun acc a -> max acc out_factor.(a)) 1 (Dag.args dag v)
    in
    (* Delay spreads over added pipeline stages if the schedule has them. *)
    let d = delay v ~factor /. float_of_int (e.Schedule.e_added_pipe + 1) in
    let start =
      List.fold_left
        (fun acc a ->
          let ea = entries.(a) in
          if
            ea.Schedule.e_latency = 0
            && ea.Schedule.e_cycle = e.Schedule.e_cycle
          then max acc finish.(a)
          else acc)
        0. (Dag.args dag v)
    in
    finish.(v) <- start +. d;
    if e.Schedule.e_cycle < s.Schedule.depth then
      delays.(e.Schedule.e_cycle) <-
        max delays.(e.Schedule.e_cycle) finish.(v));
  delays

let violations cal (s : Schedule.t) =
  let delays = chain_delays_calibrated cal s in
  let out = ref [] in
  Array.iteri
    (fun c d ->
      if d > s.Schedule.target_ns +. 1e-6 then
        out := (c, d -. s.Schedule.target_ns) :: !out)
    delays;
  List.rev !out
