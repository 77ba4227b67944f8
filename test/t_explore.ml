(* Explorer tests: the target-frequency search must converge on
   synthetic achieved-vs-target curves and keep its bracket invariant
   (lo never decreases, hi never increases, lo <= hi); the best point
   is the best *achieved* probe, never thrown away for the converged
   target; the Pareto winner is never dominated (qcheck property on
   the pure [Front] module); and a real [run_design] over a Table-1
   benchmark must reuse the session (elaborate = 1 across every
   configuration and probe), beat-or-match the static recipe, and pick
   the same winner at any job count. *)

module Search = Hlsb_explore.Search
module Explore = Hlsb_explore.Explore
module Pipeline = Core.Pipeline
module Suite = Hlsb_designs.Suite
module Spec = Hlsb_designs.Spec

(* A plausible device curve: achieved tracks the target up to a
   capacity, then degrades as over-targeting splits paths badly. *)
let capacity_curve cap t = if t <= cap then t else cap *. cap /. t

let test_search_converges () =
  let out = Search.run ~t0:300. ~tol:0.02 ~max_probes:20 (capacity_curve 400.) in
  Alcotest.(check bool) "converged in budget" true out.Search.o_converged;
  Alcotest.(check bool)
    (Printf.sprintf "best %.1f near capacity" out.Search.o_best_achieved)
    true
    (out.Search.o_best_achieved >= 390. && out.Search.o_best_achieved <= 402.)

let test_search_below_t0 () =
  (* Even the starting target is missed: the achieved value bounds the
     bracket from below and the search walks down, not up. *)
  let out = Search.run ~t0:300. ~max_probes:12 (fun _ -> 200.) in
  Alcotest.(check (float 1e-9)) "best is the flat curve" 200.
    out.Search.o_best_achieved;
  List.iter
    (fun (p : Search.probe) ->
      Alcotest.(check bool) "never probes above t0" true (p.p_target <= 300.))
    out.Search.o_probes

(* A design that meets every target: the bracket walk stops raising
   past 1200 MHz, well inside the probe budget. *)
let test_search_hi_cap () =
  let out = Search.run ~t0:300. ~max_probes:20 Fun.id in
  Alcotest.(check (list (float 1e-9))) "targets 300 -> 480 -> 768, then capped"
    [ 300.; 480.; 768. ]
    (List.map (fun (p : Search.probe) -> p.Search.p_target) out.Search.o_probes);
  Alcotest.(check (float 1e-9)) "best is the last target under the cap" 768.
    out.Search.o_best_achieved;
  Alcotest.(check bool) "converged" true out.Search.o_converged

let synthetic_oracles =
  [
    ("plateau", capacity_curve 400.);
    ("low plateau", capacity_curve 180.);
    ("flat below t0", fun _ -> 200.);
    ("flat above t0", fun _ -> 800.);
    ("bump", fun t -> if t < 350. then 340. else 300.);
    ("linear loss", fun t -> 0.9 *. t);
  ]

let test_bracket_monotone () =
  List.iter
    (fun (name, oracle) ->
      let out = Search.run ~max_probes:10 oracle in
      let rec walk = function
        | (lo, hi) :: ((lo', hi') :: _ as rest) ->
          Alcotest.(check bool) (name ^ ": lo <= hi") true (lo <= hi);
          Alcotest.(check bool) (name ^ ": lo never decreases") true (lo' >= lo);
          Alcotest.(check bool) (name ^ ": hi never increases") true (hi' <= hi);
          walk rest
        | [ (lo, hi) ] -> Alcotest.(check bool) (name ^ ": lo <= hi") true (lo <= hi)
        | [] -> ()
      in
      walk out.Search.o_brackets)
    synthetic_oracles

let test_best_is_max_probe () =
  List.iter
    (fun (name, oracle) ->
      let out = Search.run ~max_probes:10 oracle in
      let max_achieved =
        List.fold_left
          (fun acc (p : Search.probe) -> Float.max acc p.p_achieved)
          neg_infinity out.Search.o_probes
      in
      Alcotest.(check (float 1e-9)) (name ^ ": best = max achieved")
        max_achieved out.Search.o_best_achieved;
      Alcotest.(check bool) (name ^ ": best target was probed") true
        (List.exists
           (fun (p : Search.probe) ->
             p.p_target = out.Search.o_best_target
             && p.p_achieved = out.Search.o_best_achieved)
           out.Search.o_probes))
    synthetic_oracles

let test_probe_budget () =
  List.iter
    (fun (name, oracle) ->
      List.iter
        (fun budget ->
          let out = Search.run ~max_probes:budget oracle in
          let n = List.length out.Search.o_probes in
          Alcotest.(check bool)
            (Printf.sprintf "%s: 1 <= %d probes <= %d" name n budget)
            true
            (n >= 1 && n <= budget))
        [ 1; 2; 5 ])
    synthetic_oracles

(* ---------------- the Pareto front ---------------- *)

let point i (fmax, area, cost) =
  {
    Explore.Front.pt_label = Printf.sprintf "cfg%d" i;
    pt_fmax = float_of_int (fmax : int);
    pt_area = float_of_int (area : int);
    pt_cost = cost;
  }

let prop_winner_never_dominated =
  QCheck.Test.make ~count:500 ~name:"pareto winner is never dominated"
    QCheck.(list_of_size Gen.(int_range 1 12)
              (triple (int_bound 500) (int_bound 100) (int_bound 10)))
    (fun raw ->
      let pts = List.mapi point raw in
      match Explore.Front.winner pts with
      | None -> false (* non-empty input must have a winner *)
      | Some w ->
        List.for_all (fun p -> not (Explore.Front.dominates p w)) pts
        && List.exists
             (fun p -> p.Explore.Front.pt_label = w.Explore.Front.pt_label)
             (Explore.Front.front pts))

let prop_front_covers =
  QCheck.Test.make ~count:500
    ~name:"every pruned point is dominated by a front point"
    QCheck.(list_of_size Gen.(int_range 0 12)
              (triple (int_bound 500) (int_bound 100) (int_bound 10)))
    (fun raw ->
      let pts = List.mapi point raw in
      let front = Explore.Front.front pts in
      List.for_all
        (fun p ->
          List.exists
            (fun f -> f.Explore.Front.pt_label = p.Explore.Front.pt_label)
            front
          || List.exists (fun f -> Explore.Front.dominates f p) front)
        pts)

let test_front_drops_dominated () =
  let pts =
    List.mapi point [ (400, 50, 5); (380, 60, 5); (400, 40, 5); (250, 90, 9) ]
  in
  let front = Explore.Front.front pts in
  Alcotest.(check (list string)) "only the undominated survive"
    [ "cfg2" ]
    (List.map (fun p -> p.Explore.Front.pt_label) front);
  match Explore.Front.winner pts with
  | None -> Alcotest.fail "winner expected"
  | Some w -> Alcotest.(check string) "winner" "cfg2" w.Explore.Front.pt_label

(* ---------------- real designs ---------------- *)

let vec = "Vector Arithmetic"

let spec_exn name =
  match Suite.find name with
  | Some s -> s
  | None -> Alcotest.fail ("missing suite design " ^ name)

let test_session_reuse_and_floor () =
  let s = spec_exn vec in
  let session = Pipeline.of_spec s in
  let rp =
    Explore.run_design ~budget:3 ~max_probes:3 session ~name:s.Spec.sp_name
  in
  Alcotest.(check int) "one elaboration across all configs" 1
    (Option.value ~default:0 (List.assoc_opt "elaborate" rp.Explore.ep_stage_runs));
  Alcotest.(check int) "all three configurations ran" 3
    (List.length rp.Explore.ep_configs);
  let static = rp.Explore.ep_static.Pipeline.fr_fmax_mhz in
  Alcotest.(check bool)
    (Printf.sprintf "winner %.1f >= static %.1f"
       rp.Explore.ep_winner.Explore.cr_fmax static)
    true
    (rp.Explore.ep_winner.Explore.cr_fmax >= static);
  (* The first configuration is the static point itself: its first
     probe at the default target must reproduce the static compile. *)
  (match rp.Explore.ep_configs with
  | first :: _ ->
    Alcotest.(check (float 1e-9)) "config #1 probe #1 = static compile" static
      (match first.Explore.cr_outcome.Search.o_probes with
      | p :: _ -> p.Search.p_achieved
      | [] -> nan)
  | [] -> Alcotest.fail "no configurations");
  Alcotest.(check bool) "hit rate in (0, 1)" true
    (rp.Explore.ep_hit_rate > 0. && rp.Explore.ep_hit_rate < 1.)

(* Stream Buffer's schedule barely moves with the target, so a default
   search lowers far fewer netlists than it schedules: probes whose
   schedules lower alike share one lower..report. *)
let test_probes_share_lowering () =
  let s = spec_exn "Stream Buffer" in
  let rp = Explore.run_design (Pipeline.of_spec s) ~name:s.Spec.sp_name in
  let runs stage =
    Option.value ~default:0 (List.assoc_opt stage rp.Explore.ep_stage_runs)
  in
  Alcotest.(check bool)
    (Printf.sprintf "lower %d < schedule %d" (runs "lower") (runs "schedule"))
    true
    (runs "lower" < runs "schedule")

(* [hlsbc explore]'s suite fan-out: one session per design across the
   pool, so each design's search is the same at any job count. *)
let test_jobs_deterministic () =
  let specs = [ spec_exn vec; spec_exn "Stream Buffer" ] in
  let run jobs =
    Hlsb_util.Pool.map_list ~jobs
      (fun (s : Spec.t) ->
        Explore.run_design ~budget:3 ~max_probes:2 (Pipeline.of_spec s)
          ~name:s.Spec.sp_name)
      specs
    |> List.map (fun (rp : Explore.report) ->
         ( rp.Explore.ep_design,
           rp.Explore.ep_winner.Explore.cr_label,
           rp.Explore.ep_winner.Explore.cr_fmax,
           rp.Explore.ep_probes ))
  in
  let one = run 1 and four = run 4 in
  Alcotest.(check int) "both ran the subset" 2 (List.length one);
  List.iter2
    (fun (d1, l1, f1, p1) (d4, l4, f4, p4) ->
      Alcotest.(check string) "design order" d1 d4;
      Alcotest.(check string) (d1 ^ ": winner label") l1 l4;
      Alcotest.(check (float 1e-9)) (d1 ^ ": winner fmax") f1 f4;
      Alcotest.(check int) (d1 ^ ": probes") p1 p4)
    one four

let suite =
  [
    Alcotest.test_case "search converges on capacity curve" `Quick
      test_search_converges;
    Alcotest.test_case "search walks down when t0 missed" `Quick
      test_search_below_t0;
    Alcotest.test_case "search stops raising at 1200 MHz" `Quick
      test_search_hi_cap;
    Alcotest.test_case "brackets monotone" `Quick test_bracket_monotone;
    Alcotest.test_case "best is max achieved probe" `Quick
      test_best_is_max_probe;
    Alcotest.test_case "probe budget respected" `Quick test_probe_budget;
    Alcotest.test_case "front drops dominated points" `Quick
      test_front_drops_dominated;
    Alcotest.test_case "session reuse and static floor" `Quick
      test_session_reuse_and_floor;
    Alcotest.test_case "probes share lowering" `Quick
      test_probes_share_lowering;
    Alcotest.test_case "winner identical at jobs=1 and jobs=4" `Quick
      test_jobs_deterministic;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_winner_never_dominated; prop_front_covers ]
