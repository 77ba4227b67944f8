(* Allocation budgets for the per-node, per-cell loops of the backend.
   Minor-heap allocation is deterministic for a given build and input, so
   the budgets are exact thresholds, not timing guesses: schedule is
   charged per scheduled DAG node (the nodes of each kernel class's
   representative; the other members share its schedule), lower, place
   and STA per cell, over every Suite design under both recipes.
   Calibration is warmed first so the schedule figure measures
   scheduling, not curve characterization. When set, the worst designs
   measured 64.5 words/scheduled node (schedule; 57.5 per DAG node
   before replicated kernels shared one schedule), 18.3 words/cell
   (lower; 19.4 while it returned every kernel's register list), 0.2
   words/cell (place) and 7.7 words/cell (STA; 0.3 now, see below). Place allocates its
   per-cell arrays on the major heap and nothing per relax, so its budget
   of 2 fails on one float boxed per cell. Lower is
   charged per cell it emits, stamped cells included. Its worst case is
   Face Detection, which replicates no kernel, so the budget stays at
   20; the replicated designs fell when members were stamped from their
   class representative instead of lowered (Pattern Matching 14.9 ->
   4.1, HBM-Based Stencil 14.8 -> 5.1, Vector Arithmetic 14.0 -> 11.5).
   Lower measured 55-84 before it wrote names into the netlist's arena
   and sinks into its CSR, and 194-320 before that; STA measured 23-28
   while the jitter draw boxed its Int64s and floats.

   STA's budget is 1 word/cell, so one float boxed per net fails it.
   Before, the worst design measured 7.7: each net's star length came
   back from a call as a boxed float, and so did each register fanin
   arc's endpoint arrival. Filling the delays in one pass over the sink
   CSR took the worst to 5.7; summing the endpoint arrivals in the loop
   took it to 0.3 (words/cell, before -> after, original / optimized):
   Genome Sequencing 3.8 / 2.9 -> 0.0 / 0.0, LSTM Network 5.1 / 3.5 ->
   0.1 / 0.1, Face Detection 4.0 / 3.5 -> 0.3 / 0.2, Matrix Multiply 5.1
   / 3.5 -> 0.0 / 0.0, Stream Buffer 7.7 / 5.5 -> 0.1 / 0.0, Stencil 5.9
   / 4.0 -> 0.0 / 0.0, Vector Arithmetic 5.1 / 3.5 -> 0.0 / 0.0,
   HBM-Based Stencil 5.4 / 3.8 -> 0.0 / 0.0, Pattern Matching 2.9 / 2.7
   -> 0.1 / 0.0, Modular Squaring 3.7 / 2.9 -> 0.0 / 0.0. The per-cell
   arrays go to the major heap on all but the smallest netlists.

   Elaborate (the design generator, [Kernel.create]'s validation and
   consumer index included) is charged per DAG node it builds, over every
   Suite design and the bm420x2 scale point. The budget is half the worst
   figure measured while the DAG kept one record, one argument array and
   one name string per node and a list per consumer table entry; after
   the DAG became flat arrays (words/DAG node, before -> after):
   bm420x2 51.3 -> 15.0, Genome Sequencing 51.0 -> 14.4, LSTM Network
   65.7 -> 29.7, Face Detection 44.2 -> 11.9, Matrix Multiply 66.2 ->
   23.1, Stream Buffer 54.8 -> 34.0, Stencil 75.2 -> 9.1, Vector
   Arithmetic 54.1 -> 25.9, HBM-Based Stencil 80.3 -> 38.3, Pattern
   Matching 48.3 -> 15.7, Modular Squaring 51.7 -> 15.3. HBM-Based
   Stencil then fell 38.3 -> 26.2 when its fifo and channel names were
   built with [^] instead of [sprintf]. What is left is mostly the
   generators' own work (argument lists, names) and, on the smallest
   DAGs, the store's fixed cost.

   Lower is also charged the words it allocates directly in the major
   heap (blocks too large for the minor heap, which the minor budget
   never sees: the netlist's columns as they grow), per cell it emits,
   over every Suite compile and the bm420x2 scale point. The budget is
   the worst figure measured once the store kept byte columns with
   32-bit entries grown by memcpy and its name arena in fixed chunks,
   rounded up; before, it kept int arrays grown by [Array.make] and a
   blit, and one name buffer that doubled (words/cell, before -> after,
   original / optimized): bm420x2 51.3 -> 24.4, Genome Sequencing 42.6 /
   40.8 -> 20.7 / 19.7, LSTM Network 35.5 / 33.4 -> 18.0 / 17.4, Face
   Detection 47.7 / 57.2 -> 23.8 / 29.8, Matrix Multiply 42.6 / 41.7 ->
   21.2 / 20.6, Stream Buffer 54.3 / 84.8 -> 27.5 / 36.5, Stencil 53.5 /
   49.5 -> 22.5 / 21.3, Vector Arithmetic 57.9 / 53.4 -> 26.8 / 24.8,
   HBM-Based Stencil 26.8 / 25.5 -> 14.8 / 14.2, Pattern Matching 28.0 /
   26.9 -> 15.6 / 14.7, Modular Squaring 48.5 / 47.8 -> 23.3 / 23.0. A
   column that doubles allocates up to four times its live bytes, so the
   figure follows where a design's size falls between two powers of
   two: Stream Buffer's 4619 cells sit just past 4096. *)

open Hlsb_ir
module Style = Hlsb_ctrl.Style
module Design = Hlsb_rtlgen.Design
module Netlist = Hlsb_netlist.Netlist
module Placement = Hlsb_physical.Placement
module Timing = Hlsb_physical.Timing
module Spec = Hlsb_designs.Spec

let schedule_budget = 80.
let lower_budget = 20.
let place_budget = 2.
let sta_budget = 1.
let elaborate_budget = 40.
let lower_major_budget = 37.

let minor_words f =
  let before = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. before)

(* Nodes of the kernels [Schedule.run] actually schedules: one per kernel
   class, since the other members share their representative's schedule. *)
let scheduled_nodes df =
  let n = ref 0 in
  Array.iteri
    (fun p rep ->
      match (Dataflow.process df p).Dataflow.p_kernel with
      | Some k when rep = p -> n := !n + Dag.n_nodes k.Kernel.dag
      | Some _ | None -> ())
    (Dataflow.kernel_classes df);
  !n

(* (schedule words/node, lower, place and STA words/cell) *)
let measure (spec : Spec.t) recipe =
  let device = spec.Spec.sp_device in
  let df = spec.Spec.sp_build () in
  let sched () = Design.schedule_processes ~device ~recipe df in
  ignore (sched ());
  let scheds, w_sched = minor_words sched in
  let dp, w_lower =
    minor_words (fun () ->
      Design.lower_processes ~device ~recipe ~name:spec.Spec.sp_name df scheds)
  in
  let lowered_cells = Netlist.n_cells dp.Design.dp_netlist in
  let design = Design.emit_sync ~device ~recipe df dp in
  let nl = design.Design.netlist in
  let pl, w_place = minor_words (fun () -> Placement.place device nl) in
  let _, w_sta = minor_words (fun () -> Timing.analyze device nl pl) in
  let cells = float_of_int (Netlist.n_cells nl) in
  ( w_sched /. float_of_int (scheduled_nodes df),
    w_lower /. float_of_int lowered_cells,
    w_place /. cells,
    w_sta /. cells )

let test_budgets () =
  List.iter
    (fun (spec : Spec.t) ->
      List.iter
        (fun recipe ->
          let s, l, p, t = measure spec recipe in
          let what = spec.Spec.sp_name ^ " [" ^ Style.label recipe ^ "]" in
          Printf.printf
            "%s: schedule %.1f words/scheduled node, lower %.1f, place %.1f and sta %.1f words/cell\n"
            what s l p t;
          let within name v budget =
            if v > budget then
              Alcotest.failf "%s: %s allocates %.1f words per unit, budget %.0f"
                what name v budget
          in
          within "schedule" s schedule_budget;
          within "lower" l lower_budget;
          within "place" p place_budget;
          within "sta" t sta_budget)
        [ Style.original; Style.optimized ])
    Hlsb_designs.Suite.all

let dag_nodes df =
  Array.fold_left
    (fun n (p : Dataflow.process) ->
      match p.Dataflow.p_kernel with
      | Some k -> n + Dag.n_nodes k.Kernel.dag
      | None -> n)
    0 (Dataflow.processes df)

let bm420x2 =
  Spec.make ~name:"bm420x2" ~broadcast:"Pipe. Ctrl. & Data"
    ~device:Hlsb_device.Device.ultrascale_plus
    ~build:(Hlsb_designs.Bigmul.build_point ~bits:420 ~limb:7 ~lanes:2)
    ~paper:(Option.get (Hlsb_designs.Suite.find "Modular Squaring")).Spec.sp_paper

(* Elaborate is charged per DAG node it builds, over every Suite design
   and the bm420x2 scale point; each build runs once first so one-time
   initialization is not charged. *)
let test_elaborate_budget () =
  List.iter
    (fun (name, build) ->
      ignore (build ());
      let df, words = minor_words build in
      let per_node = words /. float_of_int (dag_nodes df) in
      Printf.printf "%s: elaborate %.1f words/DAG node\n" name per_node;
      if per_node > elaborate_budget then
        Alcotest.failf "%s: elaborate allocates %.1f words per DAG node, budget %.0f"
          name per_node elaborate_budget)
    (List.map
       (fun (s : Spec.t) -> (s.Spec.sp_name, s.Spec.sp_build))
       (bm420x2 :: Hlsb_designs.Suite.all))

(* Words allocated directly in the major heap: blocks too large for the
   minor heap (a growing netlist column), not the ones a minor collection
   promoted. *)
let direct_major_words f =
  let _, p0, m0 = Gc.counters () in
  let r = f () in
  let _, p1, m1 = Gc.counters () in
  (r, m1 -. p1 -. (m0 -. p0))

(* Lower is charged per cell it emits, stamped cells included, over every
   Suite compile and the bm420x2 scale point (under [original], as the
   scale workload compiles it); each lowering runs once first so one-time
   initialization is not charged. *)
let test_lower_major_budget () =
  List.iter
    (fun ((spec : Spec.t), recipe) ->
      let device = spec.Spec.sp_device in
      let df = spec.Spec.sp_build () in
      let scheds = Design.schedule_processes ~device ~recipe df in
      let lower () =
        Design.lower_processes ~device ~recipe ~name:spec.Spec.sp_name df scheds
      in
      ignore (lower ());
      let dp, words = direct_major_words lower in
      let per_cell = words /. float_of_int (Netlist.n_cells dp.Design.dp_netlist) in
      let what = spec.Spec.sp_name ^ " [" ^ Style.label recipe ^ "]" in
      Printf.printf "%s: lower %.1f major words/cell\n" what per_cell;
      if per_cell > lower_major_budget then
        Alcotest.failf "%s: lower allocates %.1f major words per cell, budget %.0f"
          what per_cell lower_major_budget)
    ((bm420x2, Style.original)
    :: List.concat_map
         (fun s -> [ (s, Style.original); (s, Style.optimized) ])
         Hlsb_designs.Suite.all)

let suite =
  [
    Alcotest.test_case "schedule/lower/place minor words" `Quick test_budgets;
    Alcotest.test_case "elaborate minor words" `Quick test_elaborate_budget;
    Alcotest.test_case "lower major words" `Quick test_lower_major_budget;
  ]
