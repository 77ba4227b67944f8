open Hlsb_ir
module Calibrate = Hlsb_delay.Calibrate
module Oplib = Hlsb_delay.Oplib
module Trace = Hlsb_telemetry.Trace
module Metrics = Hlsb_telemetry.Metrics

type mode =
  | Baseline
  | Broadcast_aware of Calibrate.t

type inject = {
  inj_top : int;
  inj_levels : int;
}

type entry = {
  e_cycle : int;
  e_start : float;
  e_delay : float;
  e_latency : int;
  e_added_pipe : int;
  e_bcast_levels : int;
  e_factor : int;
}

type samples = {
  sm_reads : (int * int) list;
  sm_factors : (int * int) list;
  sm_registers : int;
}

type t = {
  kernel : Kernel.t;
  mode_label : string;
  target_ns : float;
  entries : entry array;
  depth : int;
  samples : samples option;
}

let eps = 1e-9

(* A value read by at least this many instructions gets its own broadcast
   distribution stage(s) under the aware flow — the paper's "insert register
   modules to the source code". *)
let tree_threshold = 16

let leaf_fanout = 8

(* Register levels the RTL generator will spend distributing a broadcast of
   the given read count (pipelined fanout tree). *)
let tree_levels reads =
  if reads <= 64 then 1 else if reads <= 512 then 2 else 3

let intrinsic_latency dag v =
  match Dag.kind dag v with
  | Dag.Operation o -> Oplib.latency_cycles o (Dag.dtype dag v)
  | Dag.Load _ -> 1 (* synchronous BRAM read *)
  | Dag.Input _ | Dag.Const _ | Dag.Store _ | Dag.Fifo_read _
  | Dag.Fifo_write _ | Dag.Output _ ->
    0

let produces_value dag v =
  match Dag.kind dag v with
  | Dag.Store _ | Dag.Fifo_write _ | Dag.Output _ | Dag.Const _ -> false
  | Dag.Input _ | Dag.Operation _ | Dag.Load _ | Dag.Fifo_read _ -> true

let imax (a : int) b = if a >= b then a else b
let imin (a : int) b = if a <= b then a else b

(* [Stdlib.max]'s semantics without its polymorphic compare. *)
let fmax (a : float) b = if a >= b then a else b

(* Each distinct (op, dtype) curve, resolved once per run in node order
   (the order a pass first reads them): [None] off operators and under the
   baseline model. *)
let op_curves mode dag =
  let seen = ref [] in
  Array.init (Dag.n_nodes dag) (fun v ->
    match (mode, Dag.kind dag v) with
    | Broadcast_aware cal, Dag.Operation o -> (
      let key = (o, Dag.dtype dag v) in
      match List.assoc_opt key !seen with
      | Some c -> c
      | None ->
        let c = Some (Calibrate.resolve cal o (snd key)) in
        seen := (key, c) :: !seen;
        c)
    | _ -> None)

(* The operator delay lookup is keyed on the *input-side* broadcast factor:
   the operator reading a widely-shared variable is the one whose input net
   carries the broadcast (Fig. 2: the add after `source`). *)
let node_delay mode curves dag v ~factor =
  let dt = Dag.dtype dag v in
  match Dag.kind dag v with
  | Dag.Input _ | Dag.Const _ -> 0.
  | Dag.Fifo_read _ | Dag.Fifo_write _ -> 0.55 (* FIFO interface logic *)
  | Dag.Output _ -> 0.05
  | Dag.Operation o -> (
    match mode with
    | Baseline -> Oplib.predicted o dt
    | Broadcast_aware _ -> Calibrate.resolved_delay (Option.get curves.(v)) ~factor)
  | Dag.Load b -> (
    let buf = Dag.buffer dag b in
    match mode with
    | Baseline -> Oplib.mem_read_predicted
    | Broadcast_aware cal ->
      Calibrate.mem_read_delay cal
        ~width:(Dtype.width buf.Dag.b_dtype)
        ~depth:buf.Dag.b_depth)
  | Dag.Store b -> (
    let buf = Dag.buffer dag b in
    match mode with
    | Baseline -> Oplib.mem_write_predicted
    | Broadcast_aware cal ->
      Calibrate.mem_write_delay cal
        ~width:(Dtype.width buf.Dag.b_dtype)
        ~depth:buf.Dag.b_depth)

let node_delays mode dag =
  let curves = op_curves mode dag in
  fun v ~factor -> node_delay mode curves dag v ~factor

(* One ASAP pass. [reads.(a)] is the read count used both for the delay
   factor of consumers of [a] and for deciding whether [a]'s value gets
   broadcast-distribution stages. *)
(* [extra.(v)] is forced distribution levels on node [v]'s value beyond
   what the read-count policy decides — the explorer's register-injection
   axis. Zero everywhere reproduces the policy schedule exactly. *)
let pass ~mode ~curves ~target ~extra (k : Kernel.t) reads =
  let dag = k.Kernel.dag in
  let n = Dag.n_nodes dag in
  let aware = match mode with Baseline -> false | Broadcast_aware _ -> true in
  let entries =
    Array.make n
      {
        e_cycle = 0;
        e_start = 0.;
        e_delay = 0.;
        e_latency = 0;
        e_added_pipe = 0;
        e_bcast_levels = 0;
        e_factor = 1;
      }
  in
  let tree'd a = aware && produces_value dag a && reads.(a) >= tree_threshold in
  Dag.iter dag (fun v ->
    (* Input-side broadcast factor: the largest fanout among this node's
       argument nets; tree-distributed arguments arrive from a leaf register
       driving at most [leaf_fanout] readers. *)
    let n_args = Dag.n_args dag v in
    let factor = ref 1 in
    for i = 0 to n_args - 1 do
      let a = Dag.arg dag v i in
      factor := imax !factor (if tree'd a then imin reads.(a) leaf_fanout else reads.(a))
    done;
    let factor = !factor in
    let raw_delay = node_delay mode curves dag v ~factor in
    let intrinsic = intrinsic_latency dag v in
    (* §4.1: an operator whose calibrated delay alone exceeds the target
       gets additional pipelining; downstream retiming (placement
       refinement + fanout trees) spreads the delay over the stages.
       Accesses to buffers spanning many physical BRAM units always get
       distribution stages ("additional pipelining will be added to
       variables interacting with the buffer"). *)
    let mem_units =
      match Dag.kind dag v with
      | Dag.Load b | Dag.Store b ->
        let buf = Dag.buffer dag b in
        Hlsb_device.Device.bram18_for
          ~width:(Dtype.width buf.Dag.b_dtype)
          ~depth:buf.Dag.b_depth
      | Dag.Input _ | Dag.Const _ | Dag.Operation _ | Dag.Fifo_read _
      | Dag.Fifo_write _ | Dag.Output _ ->
        0
    in
    let mem_floor =
      if not aware then 0
      else if mem_units > 1024 then 2
      else if mem_units > 16 then 1
      else 0
    in
    let added_split =
      let by_delay =
        if aware && raw_delay > target then
          int_of_float (ceil (raw_delay /. target)) - 1
        else 0
      in
      imax by_delay mem_floor
    in
    (* Broadcast distribution stages for this node's own value. *)
    let added_bcast =
      (if tree'd v then tree_levels reads.(v) else 0) + extra.(v)
    in
    let delay = raw_delay /. float_of_int (added_split + 1) in
    let latency = intrinsic + added_split + added_bcast in
    let ready = ref 0. in
    for i = 0 to n_args - 1 do
      let ea = entries.(Dag.arg dag v i) in
      let t_avail =
        if ea.e_latency > 0 then float_of_int (ea.e_cycle + ea.e_latency) *. target
        else (float_of_int ea.e_cycle *. target) +. ea.e_start +. ea.e_delay
      in
      ready := fmax !ready t_avail
    done;
    let ready = !ready in
    let cycle = int_of_float ((ready +. eps) /. target) in
    let offset = ready -. (float_of_int cycle *. target) in
    let offset = if offset < 0. then 0. else offset in
    let bump = offset +. delay > target +. eps && offset > eps in
    let cycle = if bump then cycle + 1 else cycle in
    let offset = if bump then 0. else offset in
    entries.(v) <-
      {
        e_cycle = cycle;
        e_start = offset;
        e_delay = delay;
        e_latency = latency;
        e_added_pipe = added_split;
        e_bcast_levels = added_bcast;
        e_factor = factor;
      });
  entries

let result_cycle entries v = entries.(v).e_cycle + entries.(v).e_latency

(* Reads of each node's value by consumers scheduled in its result cycle
   (later consumers read a registered copy, so they do not load the comb
   net). *)
let same_cycle_reads entries dag =
  let n = Dag.n_nodes dag in
  let counts = Array.make n 0 in
  Dag.iter dag (fun u ->
    for i = 0 to Dag.n_args dag u - 1 do
      let a = Dag.arg dag u i in
      if entries.(u).e_cycle = result_cycle entries a then
        counts.(a) <- counts.(a) + 1
    done);
  counts

(* Whether any of [v]'s read slots is scheduled after cycle [rc] / the
   earliest cycle of any of them (at most [acc]). *)
let read_after entries dag v rc =
  let n = Dag.broadcast_factor dag v in
  let rec from i = i < n && (entries.(Dag.consumer dag v i).e_cycle > rc || from (i + 1)) in
  from 0

let first_read entries dag v acc =
  let acc = ref acc in
  for i = 0 to Dag.broadcast_factor dag v - 1 do
    acc := imin !acc entries.(Dag.consumer dag v i).e_cycle
  done;
  !acc

(* The scheduler budgets chains against the target minus a clock
   uncertainty margin, like the commercial tool's default. *)
let clock_uncertainty = 0.18

let label_of_mode = function
  | Baseline -> "baseline"
  | Broadcast_aware _ -> "broadcast-aware"

(* The distinct values among [value i] for [i < n], ascending, each with
   its multiplicity, counted in one pass; negative values are left out. *)
let histogram n value =
  let top = ref (-1) in
  for i = 0 to n - 1 do
    top := imax !top (value i)
  done;
  let counts = Array.make (!top + 1) 0 in
  for i = 0 to n - 1 do
    let x = value i in
    if x >= 0 then counts.(x) <- counts.(x) + 1
  done;
  let h = ref [] in
  for x = !top downto 0 do
    if counts.(x) > 0 then h := (x, counts.(x)) :: !h
  done;
  !h

(* §4.1's quantities: the raw read count of every value and the
   input-side factor the schedule actually budgeted after distribution
   trees capped the leaf fanout. *)
let samples_of dag entries =
  let reads v =
    let r = Dag.broadcast_factor dag v in
    if r > 0 && produces_value dag v then r else -1
  in
  {
    sm_reads = histogram (Dag.n_nodes dag) reads;
    sm_factors = histogram (Array.length entries) (fun v -> entries.(v).e_factor);
    sm_registers =
      Array.fold_left
        (fun acc e -> acc + e.e_added_pipe + e.e_bcast_levels)
        0 entries;
  }

(* Feed the installed telemetry registry, if any, one sample per value
   as (value, multiplicity) pairs: the same histograms for a fraction of
   the registry traffic. The samples are [known] ones when given, else
   counted now; the result is what was fed. *)
let record_samples dag entries known =
  match Metrics.installed () with
  | None -> known
  | Some _ ->
    let s = match known with Some s -> s | None -> samples_of dag entries in
    let observe name = List.iter (fun (x, times) -> Metrics.observe_int ~times name x) in
    observe "sched.broadcast_factor" s.sm_reads;
    observe "sched.fanout_after_split" s.sm_factors;
    Metrics.incr "sched.kernels";
    Metrics.incr ~by:s.sm_registers "sched.registers_inserted";
    Some s

(* The injection set: the [inj_top] widest-read value-producing nodes,
   ties broken by node id so the choice is deterministic. Each selected
   value gets [inj_levels] forced distribution stages — the explorer's
   generalization of the one-shot tree_threshold policy. *)
let injection_levels inject dag n total_reads =
  let extra = Array.make n 0 in
  (match inject with
  | None -> ()
  | Some { inj_top; inj_levels } when inj_top <= 0 || inj_levels <= 0 -> ()
  | Some { inj_top; inj_levels } ->
    let cands = ref [] in
    Dag.iter dag (fun v ->
      if produces_value dag v && total_reads.(v) >= 2 then cands := v :: !cands);
    let sorted =
      List.sort
        (fun a b ->
          match compare total_reads.(b) total_reads.(a) with
          | 0 -> compare a b
          | c -> c)
        !cands
    in
    List.iteri (fun i v -> if i < inj_top then extra.(v) <- inj_levels) sorted);
  extra

let run_body ~target_mhz ~inject mode (k : Kernel.t) =
  if target_mhz <= 0. then invalid_arg "Schedule.run: target <= 0";
  let target = 1000. /. target_mhz *. (1. -. clock_uncertainty) in
  let dag = k.Kernel.dag in
  let n = Dag.n_nodes dag in
  (* Conservative first estimate: every read lands in one cycle. *)
  let total_reads = Array.init n (fun v -> Dag.broadcast_factor dag v) in
  let extra = injection_levels inject dag n total_reads in
  let curves = op_curves mode dag in
  let entries =
    match mode with
    | Baseline -> pass ~mode ~curves ~target ~extra k total_reads
    | Broadcast_aware _ ->
      let e1 = pass ~mode ~curves ~target ~extra k total_reads in
      (* Refine: only same-cycle readers load the net; +1 for the boundary
         register when the value also has later consumers. *)
      let sc = same_cycle_reads e1 dag in
      let refined =
        Array.mapi
          (fun v c ->
            let later = read_after e1 dag v (result_cycle e1 v) in
            (* Values that were given distribution stages keep their full
               read count: the tree still has to reach every reader. *)
            if
              produces_value dag v
              && total_reads.(v) >= tree_threshold
            then total_reads.(v)
            else if later then c + 1
            else imax 1 c)
          sc
      in
      pass ~mode ~curves ~target ~extra k refined
  in
  (* Source nodes (inputs, constants, FIFO reads) are staged as late as
     possible: a value first consumed in cycle c is read/registered in
     cycle c-1, not held live from cycle 0. This is both what the HLS tool
     emits and what gives the Fig. 17 width profile its waist. *)
  Dag.iter dag (fun v ->
    match Dag.kind dag v with
    | Dag.Input _ | Dag.Const _ | Dag.Fifo_read _ ->
      if Dag.broadcast_factor dag v > 0 then begin
        let first_use = first_read entries dag v max_int in
        let e = entries.(v) in
        let late = imax e.e_cycle (first_use - 1 - e.e_latency) in
        entries.(v) <- { e with e_cycle = late; e_start = 0. }
      end
    | Dag.Operation _ | Dag.Load _ | Dag.Store _ | Dag.Fifo_write _
    | Dag.Output _ ->
      ());
  let depth =
    let m = ref 0 in
    Dag.iter dag (fun v -> m := imax !m (result_cycle entries v));
    !m + 1
  in
  let samples = record_samples dag entries None in
  { kernel = k; mode_label = label_of_mode mode; target_ns = target; entries; depth; samples }

let default_target_mhz = 300.

(* One "schedule" span per kernel, scheduled or shared. *)
let traced ?shared_with (k : Kernel.t) mode_label body =
  if not (Trace.enabled ()) then body ()
  else
    let str s = Hlsb_telemetry.Json.Str s in
    let shared =
      match shared_with with
      | None -> []
      | Some (r : Kernel.t) -> [ ("shared_with", str r.Kernel.name) ]
    in
    Trace.with_span "schedule"
      ~attrs:(("kernel", str k.Kernel.name) :: ("mode", str mode_label) :: shared)
      body

let run ?(target_mhz = default_target_mhz) ?inject mode (k : Kernel.t) =
  traced k (label_of_mode mode) (fun () -> run_body ~target_mhz ~inject mode k)

let rebind t (k : Kernel.t) =
  if Dag.n_nodes k.Kernel.dag <> Array.length t.entries then
    invalid_arg "Schedule.rebind: kernel size differs";
  traced ~shared_with:t.kernel k t.mode_label (fun () ->
    let samples = record_samples t.kernel.Kernel.dag t.entries t.samples in
    Metrics.incr "sched.kernels_shared";
    { t with kernel = k; samples })

let finish_cycle t v = result_cycle t.entries v

let chain_ok t =
  Array.for_all
    (fun e -> e.e_start +. e.e_delay <= max t.target_ns e.e_delay +. 1e-6)
    t.entries

let same_cycle_factor t v =
  let dag = t.kernel.Kernel.dag in
  let rc = result_cycle t.entries v in
  let count = ref 0 in
  for i = 0 to Dag.broadcast_factor dag v - 1 do
    if t.entries.(Dag.consumer dag v i).e_cycle = rc then incr count
  done;
  !count

let registers_inserted t =
  Array.fold_left
    (fun acc e -> acc + e.e_added_pipe + e.e_bcast_levels)
    0 t.entries

(* Lowering ([Hlsb_rtlgen.Lower], via [Design.lower_processes]) reads a
   schedule's [kernel], [depth] and each entry's [e_cycle], [e_latency],
   [e_added_pipe] and [e_bcast_levels] — never [target_ns], [mode_label],
   [e_start], [e_delay] or [e_factor]. Two schedules that agree on the
   former lower to the same netlist. The kernel is compared physically:
   schedules of one elaborated network share their kernels, and a false
   "different" only costs a recompile. *)
let lowers_same a b =
  a == b
  || a.kernel == b.kernel
     && a.depth = b.depth
     &&
     let ea = a.entries and eb = b.entries in
     let n = Array.length ea in
     n = Array.length eb
     &&
     let rec go i =
       i = n
       ||
       let x = ea.(i) and y = eb.(i) in
       x.e_cycle = y.e_cycle
       && x.e_latency = y.e_latency
       && x.e_added_pipe = y.e_added_pipe
       && x.e_bcast_levels = y.e_bcast_levels
       && go (i + 1)
     in
     go 0
