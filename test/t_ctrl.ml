(* Control-layer tests: skid-buffer sizing and min-area DP (§4.3), sync
   pruning (§4.2). *)

open Hlsb_ir
module Skid = Hlsb_ctrl.Skid
module Sync = Hlsb_ctrl.Sync
module Style = Hlsb_ctrl.Style

(* ---- Skid sizing ---- *)

let test_required_depth () =
  Alcotest.(check int) "N+1" 10 (Skid.required_depth ~pipeline_depth:9 ());
  Alcotest.(check int) "registered backpressure" 13
    (Skid.required_depth ~pipeline_depth:9 ~ctrl_stages:3 ())

let test_end_only_formula () =
  (* BufferArea = (N+1) * w_beta *)
  let widths = [| 100; 100; 100 |] in
  let p = Skid.end_only ~widths ~out_width:64 in
  Alcotest.(check int) "(4+1)*64" (5 * 64) p.Skid.cost_bits;
  Alcotest.(check (list int)) "single cut at N" [ 4 ] p.Skid.cuts

let test_fig17_example () =
  (* the paper's numbers: 61 stages, waist of 32 bits at boundary 56,
     1024-bit output: end-only = 63488 bits, split = 7968 bits *)
  (* boundaries carry the wide vectors except the one-scalar waist right
     after the reduction (boundary 56) *)
  let widths = Array.init 60 (fun i -> if i = 55 then 32 else 1024) in
  let p_end = Skid.end_only ~widths ~out_width:1024 in
  Alcotest.(check int) "end-only 62*1024" 63488 p_end.Skid.cost_bits;
  let p = Skid.min_area ~widths ~out_width:1024 in
  (* optimal: cut at the 32-bit waist then the tail: (56+1)*32 + (5+1)*1024 *)
  Alcotest.(check int) "paper's 7968 bits" 7968 p.Skid.cost_bits;
  Alcotest.(check bool) "cut at the waist" true (List.mem 56 p.Skid.cuts)

let test_min_area_never_worse () =
  let widths = [| 32; 64; 512; 8; 256 |] in
  let e = Skid.end_only ~widths ~out_width:128 in
  let m = Skid.min_area ~widths ~out_width:128 in
  Alcotest.(check bool) "dp <= end-only" true (m.Skid.cost_bits <= e.Skid.cost_bits)

let test_min_area_uniform_no_split () =
  (* with uniform widths, splitting only adds +1 entries per cut: a single
     end buffer is optimal *)
  let widths = Array.make 9 64 in
  let m = Skid.min_area ~widths ~out_width:64 in
  Alcotest.(check (list int)) "no internal cuts" [ 10 ] m.Skid.cuts

let test_plan_depths_consistent () =
  let widths = [| 100; 10; 100 |] in
  let m = Skid.min_area ~widths ~out_width:100 in
  (* cost equals the sum over planned buffers *)
  let total =
    List.fold_left (fun acc (_, d, w) -> acc + (d * w)) 0 m.Skid.depths
  in
  Alcotest.(check int) "cost consistent" m.Skid.cost_bits total;
  (* segment depths cover the whole pipeline *)
  let covered =
    List.fold_left (fun acc (_, d, _) -> acc + (d - 1)) 0 m.Skid.depths
  in
  Alcotest.(check int) "covers all stages" 4 covered

let prop_dp_matches_brute_force =
  QCheck.Test.make ~count:100 ~name:"min-area DP matches brute force"
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 9) (int_range 1 256))
        (int_range 1 256))
    (fun (widths, out_width) ->
      let widths = Array.of_list widths in
      let dp = Skid.min_area ~widths ~out_width in
      let bf = Skid.brute_force ~widths ~out_width in
      dp.Skid.cost_bits = bf.Skid.cost_bits)

let prop_dp_bounded_by_end_only =
  QCheck.Test.make ~count:200 ~name:"DP never exceeds the end-only buffer"
    QCheck.(
      pair
        (list_of_size (Gen.int_range 0 40) (int_range 1 1024))
        (int_range 1 1024))
    (fun (widths, out_width) ->
      let widths = Array.of_list widths in
      let dp = Skid.min_area ~widths ~out_width in
      let e = Skid.end_only ~widths ~out_width in
      dp.Skid.cost_bits <= e.Skid.cost_bits)

(* ---- Sync pruning ---- *)

let glued_network () =
  let df = Dataflow.create () in
  let ps = List.init 6 (fun i -> Dataflow.add_process df ~name:(Printf.sprintf "p%d" i) ()) in
  let p i = List.nth ps i in
  (* three independent two-process flows *)
  List.iter
    (fun (a, b, n) ->
      ignore
        (Dataflow.add_channel df ~name:("c" ^ n) ~src:(p a) ~dst:(p b)
           ~dtype:(Dtype.Int 32) ());
      ignore
        (Dataflow.add_channel df ~name:("i" ^ n) ~src:(-1) ~dst:(p a)
           ~dtype:(Dtype.Int 32) ());
      ignore
        (Dataflow.add_channel df ~name:("o" ^ n) ~src:(p b) ~dst:(-1)
           ~dtype:(Dtype.Int 32) ()))
    [ (0, 1, "a"); (2, 3, "b"); (4, 5, "c") ];
  Dataflow.add_sync_group df ps;
  df

let test_split_independent () =
  let df = glued_network () in
  Alcotest.(check int) "one glued group" 1 (List.length (Dataflow.sync_groups df));
  let pruned = Sync.split_independent df in
  let groups = Dataflow.sync_groups pruned in
  Alcotest.(check int) "three independent groups" 3 (List.length groups);
  List.iter
    (fun g -> Alcotest.(check int) "two members each" 2 (List.length g))
    groups;
  (* processes and channels unchanged *)
  Alcotest.(check int) "processes kept" 6 (Dataflow.n_processes pruned);
  Alcotest.(check int) "channels kept" 9 (Dataflow.n_channels pruned)

let test_split_preserves_membership () =
  let df = glued_network () in
  let pruned = Sync.split_independent df in
  let all_members =
    List.concat (Dataflow.sync_groups pruned) |> List.sort compare
  in
  Alcotest.(check (list int)) "same members overall" [ 0; 1; 2; 3; 4; 5 ]
    all_members

let test_sync_fanout_reduced () =
  let df = glued_network () in
  let before = Sync.total_sync_fanout df in
  (* splitting keeps total fanout equal here (same members), but the
     largest *single* domain shrinks from 6 to 2 *)
  let pruned = Sync.split_independent df in
  let biggest groups =
    List.fold_left (fun acc g -> max acc (List.length g)) 0 groups
  in
  Alcotest.(check int) "same total" before (Sync.total_sync_fanout pruned);
  Alcotest.(check int) "largest domain 6 before" 6
    (biggest (Dataflow.sync_groups df));
  Alcotest.(check int) "largest domain 2 after" 2
    (biggest (Dataflow.sync_groups pruned))

let latency_network () =
  let df = Dataflow.create () in
  let mk name lat = Dataflow.add_process df ~name ?latency:lat () in
  let a = mk "a" (Some 10) in
  let b = mk "b" (Some 25) in
  let c = mk "c" (Some 25) in
  let d = mk "d" None in
  (df, a, b, c, d)

(* The compile path's wait set: a member the schedule fixes is [Exact],
   any other is [Unknown] (as [Design.emit_sync] builds it). *)
let compile_path_wait df group =
  Sync.prune_with_bounds
    (List.map
       (fun p ->
         match (Dataflow.process df p).Dataflow.p_latency with
         | Some l -> (p, Sync.Exact l)
         | None -> (p, Sync.Unknown))
       group)

let test_longest_latency_wait () =
  let df, a, b, c, _ = latency_network () in
  let w = compile_path_wait df [ a; b; c ] in
  (* waits on exactly one representative of the max latency *)
  Alcotest.(check (list int)) "wait only the slowest" [ b ] w.Sync.waited;
  Alcotest.(check (list int)) "skip the dominated" [ a; c ] w.Sync.skipped

let test_longest_latency_keeps_dynamic () =
  let df, a, b, _, d = latency_network () in
  let w = compile_path_wait df [ a; b; d ] in
  (* the paper's limitation: dynamic-latency modules cannot be pruned *)
  Alcotest.(check bool) "dynamic kept" true (List.mem d w.Sync.waited);
  Alcotest.(check bool) "slowest static kept" true (List.mem b w.Sync.waited);
  Alcotest.(check bool) "dominated dropped" true (List.mem a w.Sync.skipped)

let test_longest_latency_empty () =
  let df, _, _, _, _ = latency_network () in
  Alcotest.check_raises "empty"
    (Invalid_argument "Sync.prune_with_bounds: empty group") (fun () ->
      ignore (compile_path_wait df []))

(* ---- Style ---- *)

let test_style_labels () =
  Alcotest.(check string) "orig" "hls/stall/naive" (Style.label Style.original);
  Alcotest.(check string) "opt" "aware/skid-min/pruned"
    (Style.label Style.optimized)

let prop_split_is_partition =
  QCheck.Test.make ~count:100 ~name:"pruning partitions every sync group"
    QCheck.(small_nat)
    (fun seed ->
      let rng = Hlsb_util.Rng.create seed in
      let df = Dataflow.create () in
      let n = 3 + Hlsb_util.Rng.int rng 10 in
      let ps = List.init n (fun i -> Dataflow.add_process df ~name:(Printf.sprintf "p%d" i) ()) in
      (* random channels *)
      for _ = 1 to n do
        let a = Hlsb_util.Rng.int rng n and b = Hlsb_util.Rng.int rng n in
        if a <> b then
          ignore
            (Dataflow.add_channel df
               ~name:(Printf.sprintf "c%d%d_%d" a b (Hlsb_util.Rng.int rng 1000))
               ~src:a ~dst:b ~dtype:(Dtype.Int 8) ())
      done;
      Dataflow.add_sync_group df ps;
      let pruned = Sync.split_independent df in
      let members = List.concat (Dataflow.sync_groups pruned) in
      List.sort compare members = List.init n (fun i -> i)
      &&
      (* each new group is within one connectivity component *)
      let comp = Dataflow.connectivity_components pruned in
      List.for_all
        (fun g ->
          match g with
          | [] -> false
          | x :: rest -> List.for_all (fun y -> comp.(y) = comp.(x)) rest)
        (Dataflow.sync_groups pruned))

let suite =
  [
    Alcotest.test_case "required depth" `Quick test_required_depth;
    Alcotest.test_case "end-only formula" `Quick test_end_only_formula;
    Alcotest.test_case "fig17 example" `Quick test_fig17_example;
    Alcotest.test_case "dp never worse" `Quick test_min_area_never_worse;
    Alcotest.test_case "uniform no split" `Quick test_min_area_uniform_no_split;
    Alcotest.test_case "plan depths consistent" `Quick test_plan_depths_consistent;
    Alcotest.test_case "split independent" `Quick test_split_independent;
    Alcotest.test_case "split preserves membership" `Quick
      test_split_preserves_membership;
    Alcotest.test_case "sync domain shrinks" `Quick test_sync_fanout_reduced;
    Alcotest.test_case "longest latency wait" `Quick test_longest_latency_wait;
    Alcotest.test_case "dynamic kept" `Quick test_longest_latency_keeps_dynamic;
    Alcotest.test_case "empty group" `Quick test_longest_latency_empty;
    Alcotest.test_case "style labels" `Quick test_style_labels;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_dp_matches_brute_force; prop_dp_bounded_by_end_only; prop_split_is_partition ]

(* ---- interval-latency pruning (§4.2 future work) ---- *)

let test_bounds_exact_matches_classic () =
  let w =
    Sync.prune_with_bounds
      [ (0, Sync.Exact 10); (1, Sync.Exact 25); (2, Sync.Exact 25) ]
  in
  (* anchor = smallest id among max-latency members *)
  Alcotest.(check (list int)) "waited" [ 1 ] w.Sync.waited;
  Alcotest.(check (list int)) "skipped" [ 0; 2 ] w.Sync.skipped

let test_bounds_interval_domination () =
  (* [5,9] is dominated by an anchor whose lower bound is 10; [5,12] is
     not *)
  let w =
    Sync.prune_with_bounds
      [ (0, Sync.Between (10, 20)); (1, Sync.Between (5, 9)); (2, Sync.Between (5, 12)) ]
  in
  Alcotest.(check (list int)) "waited" [ 0; 2 ] w.Sync.waited;
  Alcotest.(check (list int)) "skipped" [ 1 ] w.Sync.skipped

let test_bounds_unknown_kept () =
  let w =
    Sync.prune_with_bounds [ (0, Sync.Unknown); (1, Sync.Exact 100); (2, Sync.Exact 3) ]
  in
  Alcotest.(check bool) "unknown waited" true (List.mem 0 w.Sync.waited);
  Alcotest.(check bool) "slow waited" true (List.mem 1 w.Sync.waited);
  Alcotest.(check (list int)) "fast skipped" [ 2 ] w.Sync.skipped

let test_bounds_all_unknown () =
  let w = Sync.prune_with_bounds [ (0, Sync.Unknown); (1, Sync.Unknown) ] in
  Alcotest.(check (list int)) "all waited" [ 0; 1 ] w.Sync.waited

let test_bounds_errors () =
  Alcotest.(check bool) "inverted" true
    (try ignore (Sync.prune_with_bounds [ (0, Sync.Between (9, 5)) ]); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "duplicate" true
    (try
       ignore (Sync.prune_with_bounds [ (0, Sync.Exact 1); (0, Sync.Exact 2) ]);
       false
     with Invalid_argument _ -> true)

let test_bound_of_trip_count () =
  Alcotest.(check bool) "exact" true
    (Sync.bound_of_trip_count ~ii:1 ~depth:10 ~trip_lo:5 ~trip_hi:5
    = Sync.Exact 14);
  Alcotest.(check bool) "interval" true
    (Sync.bound_of_trip_count ~ii:2 ~depth:10 ~trip_lo:1 ~trip_hi:4
    = Sync.Between (10, 16))

let prop_bounds_sound =
  QCheck.Test.make ~count:200
    ~name:"interval pruning never skips a possibly-slowest member"
    QCheck.(list_of_size (Gen.int_range 1 8) (pair (int_range 0 30) (int_range 0 30)))
    (fun raw ->
      let members =
        List.mapi
          (fun i (a, b) -> (i, Sync.Between (min a b, max a b)))
          raw
      in
      let w = Sync.prune_with_bounds members in
      (* soundness: for every skipped member s, some waited member w has
         lo_w >= hi_s, so waiting on w always covers s *)
      let bound id = List.assoc id members in
      List.for_all
        (fun s ->
          let s_hi = match bound s with Sync.Between (_, h) -> h | _ -> 0 in
          List.exists
            (fun w_id ->
              match bound w_id with
              | Sync.Between (lo, _) -> lo >= s_hi
              | _ -> false)
            w.Sync.waited)
        w.Sync.skipped)

let prop_compile_path_wait =
  QCheck.Test.make ~count:200
    ~name:"compile-path wait set: every Unknown plus one slowest Exact"
    QCheck.(list_of_size (Gen.int_range 1 8) (option (int_range 0 30)))
    (fun raw ->
      let members =
        List.mapi
          (fun i l ->
            (i, match l with Some l -> Sync.Exact l | None -> Sync.Unknown))
          raw
      in
      let w = Sync.prune_with_bounds members in
      let unknown =
        List.filter_map
          (fun (i, b) -> if b = Sync.Unknown then Some i else None)
          members
      and exact =
        List.filter_map
          (fun (i, b) -> match b with Sync.Exact l -> Some (i, l) | _ -> None)
          members
      in
      let anchor =
        List.fold_left
          (fun acc (i, l) ->
            match acc with
            | Some (_, best) when best >= l -> acc
            | _ -> Some (i, l))
          None exact
        |> Option.map fst
      in
      w.Sync.waited = List.sort compare (Option.to_list anchor @ unknown)
      && w.Sync.skipped
         = List.filter_map
             (fun (i, _) -> if Some i = anchor then None else Some i)
             exact)

let interval_suite =
  [
    Alcotest.test_case "bounds exact = classic" `Quick test_bounds_exact_matches_classic;
    Alcotest.test_case "bounds interval domination" `Quick test_bounds_interval_domination;
    Alcotest.test_case "bounds unknown kept" `Quick test_bounds_unknown_kept;
    Alcotest.test_case "bounds all unknown" `Quick test_bounds_all_unknown;
    Alcotest.test_case "bounds errors" `Quick test_bounds_errors;
    Alcotest.test_case "bound of trip count" `Quick test_bound_of_trip_count;
    QCheck_alcotest.to_alcotest prop_bounds_sound;
    QCheck_alcotest.to_alcotest prop_compile_path_wait;
  ]

let suite = suite @ interval_suite
