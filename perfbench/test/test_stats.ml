module S = Perfbench_stats.Stats

let feq = Alcotest.float 1e-9
let range n = Array.init n (fun i -> float_of_int (i + 1))

let test_tail_rule () =
  let t = S.tail (range 100) in
  Alcotest.check feq "value" 90. t.S.tl_value;
  Alcotest.check feq "percentile" 90. t.S.tl_percentile;
  Alcotest.(check int) "beyond" 10 t.S.tl_beyond;
  (* exactly ten samples rank above the reported value *)
  let a = range 1000 in
  let t = S.tail a in
  let above = Array.fold_left (fun n x -> if x > t.S.tl_value then n + 1 else n) 0 a in
  Alcotest.(check int) "ten above" 10 above;
  Alcotest.check feq "p99" 99. t.S.tl_percentile;
  (* input order does not matter *)
  let shuffled = Array.init 1000 (fun i -> float_of_int ((i * 7919 mod 1000) + 1)) in
  Alcotest.check feq "shuffled" t.S.tl_value (S.tail shuffled).S.tl_value;
  (* eleven samples: the smallest is the only one with ten beyond it *)
  let t = S.tail (range 11) in
  Alcotest.check feq "n=11 value" 1. t.S.tl_value;
  Alcotest.(check int) "n=11 beyond" 10 t.S.tl_beyond;
  (* too few samples: the maximum, with nothing beyond *)
  let t = S.tail (range 10) in
  Alcotest.check feq "n=10 value" 10. t.S.tl_value;
  Alcotest.(check int) "n=10 beyond" 0 t.S.tl_beyond;
  Alcotest.check_raises "empty" (Invalid_argument "Stats.tail: empty sample")
    (fun () -> ignore (S.tail [||]))

let test_failed_ops_miss_latency () =
  let ops = List.init 20 (fun i -> (float_of_int i, i >= 15)) in
  let lat = S.latencies ops in
  Alcotest.(check int) "inf count" 15
    (Array.fold_left (fun n x -> if x = infinity then n + 1 else n) 0 lat);
  Alcotest.check feq "median is a failure" infinity (S.median lat);
  Alcotest.check feq "tail is a failure" infinity (S.tail lat).S.tl_value;
  let ok = S.latencies [ (3., true); (1., true); (2., true) ] in
  Alcotest.check feq "median ok" 2. (S.median ok)

let test_median () =
  Alcotest.check feq "odd" 3. (S.median [| 5.; 1.; 3. |]);
  Alcotest.check feq "even" 2.5 (S.median [| 4.; 1.; 2.; 3. |])

let test_fail_ratio () =
  Alcotest.check feq "none" 0. (S.fail_ratio ~attempted:40 ~failed:0);
  Alcotest.check feq "some" 0.25 (S.fail_ratio ~attempted:40 ~failed:10);
  Alcotest.check feq "all" 1. (S.fail_ratio ~attempted:3 ~failed:3);
  List.iter
    (fun (attempted, failed) ->
      Alcotest.check_raises "invalid" (Invalid_argument "Stats.fail_ratio")
        (fun () -> ignore (S.fail_ratio ~attempted ~failed)))
    [ (0, 0); (3, 4); (3, -1) ]

let test_geomean () =
  Alcotest.check feq "pair" 20. (S.geomean [ 10.; 40. ]);
  Alcotest.check feq "single" 7. (S.geomean [ 7. ]);
  Alcotest.check (Alcotest.float 1e-6) "triple" 6. (S.geomean [ 2.; 6.; 18. ]);
  Alcotest.(check bool) "empty" true (Float.is_nan (S.geomean []))

let span id parent a b = { S.sp_id = id; sp_parent = parent; sp_start = a; sp_stop = b }

let test_self_time () =
  (* root [0,100] with children [10,30] and [50,60]; the first child has
     its own child [12,20] *)
  let spans =
    [ span 0 (-1) 0. 100.; span 1 0 10. 30.; span 2 1 12. 20.; span 3 0 50. 60. ]
  in
  let self = S.self_times spans in
  Alcotest.(check (list (pair int (float 1e-9))))
    "self" [ (0, 70.); (1, 12.); (2, 8.); (3, 10.) ] self;
  (* self times of a properly nested tree sum to the root's length *)
  Alcotest.check feq "sum" 100. (List.fold_left (fun a (_, s) -> a +. s) 0. self);
  (* overlapping children are covered once; a child poking out of its
     parent is clipped *)
  let self = S.self_times [ span 0 (-1) 0. 10.; span 1 0 2. 6.; span 2 0 4. 8.; span 3 0 9. 15. ] in
  Alcotest.check feq "overlap+clip" 3. (List.assoc 0 self);
  Alcotest.check feq "covered" 7. (S.covered ~lo:0. ~hi:10. [ (2., 6.); (4., 8.); (9., 15.) ]);
  Alcotest.check feq "disjoint" 0. (S.covered ~lo:0. ~hi:1. [ (2., 3.) ])

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail percentile rule" `Quick test_tail_rule;
          Alcotest.test_case "failed ops miss latency" `Quick test_failed_ops_miss_latency;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "fail ratio" `Quick test_fail_ratio;
          Alcotest.test_case "geomean" `Quick test_geomean;
          Alcotest.test_case "self time" `Quick test_self_time;
        ] );
    ]
