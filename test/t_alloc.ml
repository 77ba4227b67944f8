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
   words/cell (place) and 7.7 words/cell (STA). Place allocates its
   per-cell arrays on the major heap and nothing per relax, so its budget
   of 2 fails on one float boxed per cell. Lower is
   charged per cell it emits, stamped cells included. Its worst case is
   Face Detection, which replicates no kernel, so the budget stays at
   20; the replicated designs fell when members were stamped from their
   class representative instead of lowered (Pattern Matching 14.9 ->
   4.1, HBM-Based Stencil 14.8 -> 5.1, Vector Arithmetic 14.0 -> 11.5).
   Lower measured 55-84 before it wrote names into the netlist's arena
   and sinks into its CSR, and 194-320 before that; STA measured 23-28
   while the jitter draw boxed its Int64s and floats. *)

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
let sta_budget = 12.

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

let suite = [ Alcotest.test_case "schedule/lower/place minor words" `Quick test_budgets ]
