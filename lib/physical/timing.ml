module Device = Hlsb_device.Device
module Netlist = Hlsb_netlist.Netlist

type path_step = {
  ps_cell : int;
  ps_cell_name : string;
  ps_arrival : float;
  ps_via_net : int option;
}

type report = {
  critical_ns : float;
  fmax_mhz : float;
  path : path_step list;
  worst_net : int option;
  worst_net_fanout : int;
  worst_net_class : Netlist.net_class option;
  arrivals : float array;
  nets_timed : int;
}

(* Allocation-free splitmix64 step, inlined from [Rng.next_int64]: the
   jitter used to spin up a fresh [Rng.t] per net per analyze, which was
   one short-lived box per net in the hottest loop of the flow. The two
   unit floats below replay the exact draws [Rng.gaussian] would make
   from [Rng.create ((seed * 1_000_003) + nid)] — state + golden, mixed,
   top 53 bits scaled — so every delay in every report stays
   bit-identical to the allocating version (Box-Muller with mu=0 reduces
   to [jitter *. z], and [0. +. x] / [x *. 1.] are float identities). *)
let golden = 0x9E3779B97F4A7C15L

(* The three helpers are inlined into [jitter_factor]: across a call
   boundary each [Int64] argument and result, and [unit_float]'s float, is
   boxed, once per net per analysis. *)
let[@inline] mix64 z =
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] unit_float state =
  Int64.to_float (Int64.shift_right_logical (mix64 state) 11)
  /. 9007199254740992. (* 2^53 *)

(* [Stdlib.max]'s semantics without its polymorphic compare. *)
let[@inline] fmax (a : float) b = if a >= b then a else b

let[@inline] jitter_factor ~jitter ~seed nid =
  if jitter <= 0. then 1.
  else begin
    let s1 = Int64.add (Int64.of_int ((seed * 1_000_003) + nid)) golden in
    let s2 = Int64.add s1 golden in
    let u1 = fmax 1e-12 (unit_float s1) in
    let u2 = unit_float s2 in
    let z = sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2) in
    fmax 0.5 (1. +. (jitter *. z))
  end

(* [log (1. +. f)] for the fanouts up to 64, built with that expression, so
   a read gives the same bits as the call. *)
let log_fanout = Array.init 65 (fun f -> log (1. +. float_of_int f))

(* The delay of a net of fanout [f >= 1] and star length [star]. Inlined,
   with [jitter_factor], into the loops that fill the delay array, so
   nothing is boxed per net there. *)
let[@inline] delay_of (d : Device.t) ~jitter ~seed nid f star =
  let lf = if f <= 64 then Array.unsafe_get log_fanout f else log (1. +. float_of_int f) in
  (d.t_net_base +. (d.t_net_fanout *. lf) +. (d.t_net_dist *. star))
  *. jitter_factor ~jitter ~seed nid

let net_delay (d : Device.t) nl pl ~jitter ~seed nid =
  let f = Netlist.fanout nl nid in
  if f = 0 then 0. else delay_of d ~jitter ~seed nid f (Placement.star_length pl nid)

let default_seed nl = Hashtbl.hash (Netlist.name nl) land 0xFFFFFF

(* ---- incremental STA context ---- *)

type ctx = {
  cx_device : Device.t;
  cx_netlist : Netlist.t;
  cx_pl : Placement.t;
  cx_jitter : float;
  cx_seed : int;
  cx_fanin : Netlist.fanin;  (* the placement's arcs, built once per place *)
  cx_ndelay : float array;
  cx_timed : int;  (* nets with a sink *)
  cx_snap_x : float array;  (* cell positions as of the last ndelay fill *)
  cx_snap_y : float array;
}

let prepare ?(jitter = 0.02) ?seed (d : Device.t) nl pl =
  let seed = match seed with Some s -> s | None -> default_seed nl in
  (* One pass over the sink CSR writes every net's star length; a second
     over the flat array turns each into its delay. A sinkless net's
     length, and delay, is 0. *)
  let n_nets = Netlist.n_nets nl in
  let ndelay = Array.create_float n_nets in
  Placement.star_lengths pl ndelay;
  let timed = ref 0 in
  for nid = 0 to n_nets - 1 do
    let f = Netlist.fanout nl nid in
    if f > 0 then begin
      incr timed;
      Array.unsafe_set ndelay nid (delay_of d ~jitter ~seed nid f (Array.unsafe_get ndelay nid))
    end
  done;
  let xs, ys = Placement.coords pl in
  {
    cx_device = d;
    cx_netlist = nl;
    cx_pl = pl;
    cx_jitter = jitter;
    cx_seed = seed;
    cx_fanin = Placement.fanin pl;
    cx_ndelay = ndelay;
    cx_timed = !timed;
    cx_snap_x = Array.copy xs;
    cx_snap_y = Array.copy ys;
  }

let net_delays ctx = Array.copy ctx.cx_ndelay

let refresh ctx =
  (* Re-time only the nets with an endpoint whose position changed since
     the last fill: a net's delay depends solely on its own endpoints'
     positions (fanout and jitter are placement-independent), so every
     untouched net keeps a bit-identical delay and a full [prepare] after
     the same moves would produce exactly this array. One scan of the
     fanin arcs finds them, since every arc pairs a sink with its net's
     driver; a sinkless net has no arc, and its delay is 0 wherever its
     driver sits. *)
  let nl = ctx.cx_netlist in
  let n = Netlist.n_cells nl in
  let n_nets = Array.length ctx.cx_ndelay in
  let moved = Bytes.make n '\000' in
  let any = ref false in
  let xs, ys = Placement.coords ctx.cx_pl in
  for c = 0 to n - 1 do
    let x = xs.(c) and y = ys.(c) in
    if x <> ctx.cx_snap_x.(c) || y <> ctx.cx_snap_y.(c) then begin
      any := true;
      Bytes.unsafe_set moved c '\001';
      ctx.cx_snap_x.(c) <- x;
      ctx.cx_snap_y.(c) <- y
    end
  done;
  let recomputed = ref 0 in
  if !any then begin
    let { Netlist.in_off; in_driver; in_net } = ctx.cx_fanin in
    let dirty = Bytes.make n_nets '\000' in
    for c = 0 to n - 1 do
      let sink_moved = Bytes.unsafe_get moved c = '\001' in
      for k = in_off.(c) to in_off.(c + 1) - 1 do
        if sink_moved || Bytes.unsafe_get moved in_driver.(k) = '\001' then
          Bytes.unsafe_set dirty in_net.(k) '\001'
      done
    done;
    for nid = 0 to n_nets - 1 do
      if Bytes.unsafe_get dirty nid = '\001' then begin
        ctx.cx_ndelay.(nid) <-
          net_delay ctx.cx_device nl ctx.cx_pl ~jitter:ctx.cx_jitter
            ~seed:ctx.cx_seed nid;
        incr recomputed
      end
    done
  end;
  !recomputed

let analyze_ctx ctx =
  let d = ctx.cx_device in
  let nl = ctx.cx_netlist in
  let { Netlist.in_off = off; in_driver = arc_pred; in_net = arc_net } =
    ctx.cx_fanin
  in
  let ndelay = ctx.cx_ndelay and cdelay = Netlist.delays nl in
  let n = Netlist.n_cells nl in
  let n_arcs = off.(n) in
  (* Arrival at each cell's *output*. Sequential cells and input ports
     launch at t_clk_q; combinational cells add their logic delay on top of
     the worst input arrival. Evaluate in dependence order via DFS with
     cycle detection — iteratively, on an explicit stack: a pipeline chain
     tens of thousands of registers deep is a legitimate netlist, and the
     natural recursive DFS overflows the OCaml stack on exactly the designs
     this tool exists to analyze.

     States: 0 unvisited, 1 on the DFS path (first visit done, inputs
     pending), 2 done. A cell is visited twice: the first visit pushes its
     unresolved predecessors (seeing a state-1 predecessor there means a
     genuine combinational cycle — state-1 cells are precisely the current
     DFS path); the revisit, once everything pushed above it has resolved,
     folds its input arrivals in the same ascending-arc order and with the
     same strict-> tie-breaking as the recursive version, so backpointers
     and arrivals are bit-identical. Duplicate stack entries (a cell
     demanded by several consumers before its first visit) are popped as
     no-ops in state 2. *)
  let arrival = Array.make n nan in
  let bp_pred = Array.make n (-1) in
  let bp_net = Array.make n (-1) in
  let state = Array.make n 0 in
  (* Every arc pushes at most one entry and each [eval] pushes one root. *)
  let stack = Array.make (n + n_arcs + 1) 0 in
  let sp = ref 0 in
  let push c =
    stack.(!sp) <- c;
    incr sp
  in
  let eval root =
    if state.(root) <> 2 then begin
      push root;
      while !sp > 0 do
        let c = stack.(!sp - 1) in
        if state.(c) = 2 then decr sp
        else if state.(c) = 0 then begin
          state.(c) <- 1;
          match Netlist.kind nl c with
          | Netlist.Seq | Netlist.Mem ->
            arrival.(c) <- d.t_clk_q +. cdelay.(c);
            state.(c) <- 2;
            decr sp
          | Netlist.Port_in ->
            arrival.(c) <- 0.;
            state.(c) <- 2;
            decr sp
          | Netlist.Port_out | Netlist.Comb ->
            let pending = ref false in
            for k = off.(c) to off.(c + 1) - 1 do
              let p = arc_pred.(k) in
              if state.(p) = 1 then failwith "Timing: combinational cycle"
              else if state.(p) = 0 then begin
                push p;
                pending := true
              end
            done;
            if not !pending then begin
              (* all inputs already resolved: finalize in place *)
              let worst = ref 0. in
              for k = off.(c) to off.(c + 1) - 1 do
                let t = arrival.(arc_pred.(k)) +. ndelay.(arc_net.(k)) in
                if t > !worst then begin
                  worst := t;
                  bp_pred.(c) <- arc_pred.(k);
                  bp_net.(c) <- arc_net.(k)
                end
              done;
              arrival.(c) <- !worst +. cdelay.(c);
              state.(c) <- 2;
              decr sp
            end
        end
        else begin
          (* revisit: every predecessor pushed above has resolved *)
          let worst = ref 0. in
          for k = off.(c) to off.(c + 1) - 1 do
            let t = arrival.(arc_pred.(k)) +. ndelay.(arc_net.(k)) in
            if t > !worst then begin
              worst := t;
              bp_pred.(c) <- arc_pred.(k);
              bp_net.(c) <- arc_net.(k)
            end
          done;
          arrival.(c) <- !worst +. cdelay.(c);
          state.(c) <- 2;
          decr sp
        end
      done
    end
  in
  let input_arrival pred nid =
    eval pred;
    arrival.(pred) +. ndelay.(nid)
  in
  (* Path endpoints: arrival at the *inputs* of sequential cells and output
     ports, plus setup. *)
  let worst = ref 0. in
  let worst_end = ref None in
  (* I/O port paths are externally constrained (registered at the shell
     boundary), so like a real STA setup they are not clock endpoints. *)
  for c = 0 to n - 1 do
    match Netlist.kind nl c with
    | Netlist.Seq | Netlist.Mem ->
      for k = off.(c) to off.(c + 1) - 1 do
        (* [input_arrival]'s sum, spelled out: its float result would be
           boxed once per endpoint arc *)
        let pred = arc_pred.(k) in
        eval pred;
        let t = arrival.(pred) +. ndelay.(arc_net.(k)) +. d.t_setup in
        if t > !worst then begin
          worst := t;
          worst_end := Some (c, arc_pred.(k), arc_net.(k))
        end
      done
    | Netlist.Comb | Netlist.Port_in | Netlist.Port_out ->
      (* still force evaluation so cycles are reported deterministically *)
      eval c
  done;
  let critical = max !worst (d.t_clk_q +. d.t_setup) in
  (* Reconstruct the critical path by walking best_pred back. *)
  let path =
    match !worst_end with
    | None -> []
    | Some (endpoint, pred, via) ->
      let rec back c via acc =
        let step =
          {
            ps_cell = c;
            ps_cell_name = Netlist.cell_name nl c;
            ps_arrival = arrival.(c);
            ps_via_net = via;
          }
        in
        if bp_pred.(c) >= 0 then back bp_pred.(c) (Some bp_net.(c)) (step :: acc)
        else step :: acc
      in
      let end_step =
        {
          ps_cell = endpoint;
          ps_cell_name = Netlist.cell_name nl endpoint;
          ps_arrival = input_arrival pred via;
          ps_via_net = Some via;
        }
      in
      back pred (Some via) [ end_step ]
  in
  (* Worst net along the path. *)
  let worst_net, worst_fo, worst_cls =
    List.fold_left
      (fun (wn, wf, wc) step ->
        match step.ps_via_net with
        | None -> (wn, wf, wc)
        | Some nid -> (
          match wn with
          | Some w when ndelay.(w) >= ndelay.(nid) -> (wn, wf, wc)
          | _ ->
            ( Some nid,
              Netlist.fanout nl nid,
              Some (Netlist.net_class nl nid) )))
      (None, 0, None) path
  in
  {
    critical_ns = critical;
    fmax_mhz = 1000. /. critical;
    path;
    worst_net;
    worst_net_fanout = worst_fo;
    worst_net_class = worst_cls;
    arrivals = arrival;
    nets_timed = ctx.cx_timed;
  }

let analyze ?jitter ?seed (d : Device.t) nl pl =
  analyze_ctx (prepare ?jitter ?seed d nl pl)
