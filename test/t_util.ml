(* Unit + property tests for the utility library, plus the neighbour
   smoothing the delay calibration applies to its curves. *)

module Calibrate = Hlsb_delay.Calibrate
module Rng = Hlsb_util.Rng
module Intgraph = Hlsb_util.Intgraph
module Vec = Hlsb_util.Vec
module Table = Hlsb_util.Table
module Pool = Hlsb_util.Pool

let check_float name expected got =
  Alcotest.(check (float 1e-9)) name expected got

(* ---- Smoothing (Calibrate.smooth_neighbors) ---- *)

let test_smooth_identity () =
  let xs = [| 1.; 5.; 2.; 8. |] in
  let s = Calibrate.smooth_neighbors ~window:0 xs in
  Alcotest.(check (array (float 1e-9))) "window 0 is identity" xs s

let test_smooth_window1 () =
  let s = Calibrate.smooth_neighbors ~window:1 [| 0.; 3.; 6. |] in
  check_float "left edge" 1.5 s.(0);
  check_float "middle" 3. s.(1);
  check_float "right edge" 4.5 s.(2)

let test_smooth_preserves_constant () =
  let s = Calibrate.smooth_neighbors ~window:3 (Array.make 10 7.) in
  Array.iter (fun v -> check_float "constant" 7. v) s

let total_variation xs =
  let acc = ref 0. in
  for i = 1 to Array.length xs - 1 do
    acc := !acc +. abs_float (xs.(i) -. xs.(i - 1))
  done;
  !acc

let prop_smoothing_reduces_variation =
  QCheck.Test.make ~count:200
    ~name:"smoothing does not increase total variation"
    QCheck.(list_of_size (Gen.int_range 2 40) (float_bound_exclusive 100.))
    (fun xs ->
      let arr = Array.of_list xs in
      let s = Calibrate.smooth_neighbors ~window:1 arr in
      total_variation s <= total_variation arr +. 1e-9)

(* ---- Rng ---- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 50 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_bad_bound () =
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound <= 0")
    (fun () -> ignore (Rng.int (Rng.create 1) 0))

let test_rng_float_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in range" true (v >= 0. && v < 2.5)
  done

let test_rng_split_independent () =
  let a = Rng.create 9 in
  let b = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1000) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_gaussian_moments () =
  let rng = Rng.create 11 in
  let n = 20000 in
  let xs = List.init n (fun _ -> Rng.gaussian rng ~mu:2. ~sigma:0.5) in
  let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs) in
  let m = mean xs in
  let s = sqrt (mean (List.map (fun x -> (x -. m) ** 2.) xs)) in
  Alcotest.(check bool) "mean ~ 2" true (abs_float (m -. 2.) < 0.02);
  Alcotest.(check bool) "sigma ~ 0.5" true (abs_float (s -. 0.5) < 0.02)

(* ---- Intgraph ---- *)

let diamond () =
  let g = Intgraph.create 4 in
  Intgraph.add_edge g 0 1;
  Intgraph.add_edge g 0 2;
  Intgraph.add_edge g 1 3;
  Intgraph.add_edge g 2 3;
  g

let test_graph_topo () =
  match Intgraph.topological_order (diamond ()) with
  | None -> Alcotest.fail "diamond is acyclic"
  | Some order ->
    let pos = Array.make 4 0 in
    List.iteri (fun i v -> pos.(v) <- i) order;
    Alcotest.(check bool) "0 before 1" true (pos.(0) < pos.(1));
    Alcotest.(check bool) "1 before 3" true (pos.(1) < pos.(3));
    Alcotest.(check bool) "2 before 3" true (pos.(2) < pos.(3))

let test_graph_cycle () =
  let g = Intgraph.create 2 in
  Intgraph.add_edge g 0 1;
  Intgraph.add_edge g 1 0;
  Alcotest.(check bool) "cycle detected" true
    (Intgraph.topological_order g = None)

let test_graph_components () =
  let g = Intgraph.create 5 in
  Intgraph.add_edge g 0 1;
  Intgraph.add_edge g 3 4;
  let comp = Intgraph.connected_components g in
  Alcotest.(check bool) "0~1" true (comp.(0) = comp.(1));
  Alcotest.(check bool) "3~4" true (comp.(3) = comp.(4));
  Alcotest.(check bool) "0!~3" true (comp.(0) <> comp.(3));
  Alcotest.(check bool) "2 alone" true (comp.(2) <> comp.(0) && comp.(2) <> comp.(3))

let test_graph_bad_edge () =
  let g = Intgraph.create 2 in
  Alcotest.check_raises "range" (Invalid_argument "Intgraph: node out of range")
    (fun () -> Intgraph.add_edge g 0 5)

let prop_topo_respects_edges =
  QCheck.Test.make ~count:100 ~name:"topological order respects random DAGs"
    QCheck.(small_nat)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int rng 20 in
      let g = Intgraph.create n in
      let edges = ref [] in
      for _ = 1 to n * 2 do
        let a = Rng.int rng n and b = Rng.int rng n in
        (* forward edges only: guaranteed acyclic *)
        if a < b then begin
          Intgraph.add_edge g a b;
          edges := (a, b) :: !edges
        end
      done;
      match Intgraph.topological_order g with
      | None -> false
      | Some order ->
        let pos = Array.make n 0 in
        List.iteri (fun i v -> pos.(v) <- i) order;
        List.for_all (fun (a, b) -> pos.(a) < pos.(b)) !edges)

(* ---- Vec ---- *)

let test_vec_push_get () =
  let v = Vec.create () in
  for i = 0 to 99 do
    let idx = Vec.push v (i * 2) in
    Alcotest.(check int) "index" i idx
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get" 84 (Vec.get v 42)

let test_vec_bounds () =
  let v = Vec.create () in
  ignore (Vec.push v 1);
  Alcotest.check_raises "oob" (Invalid_argument "Vec: index out of range")
    (fun () -> ignore (Vec.get v 1))

let test_vec_fold () =
  let v = Vec.create () in
  List.iter (fun x -> ignore (Vec.push v x)) [ 1; 2; 3 ];
  let sum = ref 0 in
  Vec.iteri (fun _ x -> sum := !sum + x) v;
  Alcotest.(check int) "iteri visits all" 6 !sum;
  Alcotest.(check (array int)) "to_array" [| 1; 2; 3 |] (Vec.to_array v)

(* ---- Table ---- *)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_table_render () =
  let t = Table.create ~headers:[ ("a", Table.Left); ("b", Table.Right) ] in
  Table.add_row t [ "x"; "1" ];
  Table.add_row t [ "yy"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "contains rows" true
    (contains ~needle:"yy" s && contains ~needle:"22" s);
  (* all lines equal width *)
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  let w = String.length (List.hd lines) in
  List.iter
    (fun l -> Alcotest.(check int) "line width" w (String.length l))
    lines

let test_table_arity () =
  let t = Table.create ~headers:[ ("a", Table.Left) ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: arity mismatch")
    (fun () -> Table.add_row t [ "x"; "y" ])

(* ---- Pool ---- *)

let test_pool_matches_sequential () =
  let arr = Array.init 100 (fun i -> i) in
  let f x = (x * 37) mod 101 in
  let expected = Array.map f arr in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d" jobs)
        expected
        (Pool.map ~jobs f arr))
    [ 1; 2; 3; 4; 8 ]

let test_pool_map_list () =
  let xs = List.init 33 string_of_int in
  Alcotest.(check (list string))
    "map_list"
    (List.map (fun s -> s ^ "!") xs)
    (Pool.map_list ~jobs:3 (fun s -> s ^ "!") xs)

let test_pool_iter () =
  let total = Atomic.make 0 in
  Pool.iter ~jobs:4
    (fun x -> ignore (Atomic.fetch_and_add total x))
    (Array.init 100 (fun i -> i));
  Alcotest.(check int) "iter visits everything" 4950 (Atomic.get total)

let test_pool_exception () =
  Alcotest.check_raises "task exception propagates" (Failure "boom") (fun () ->
      ignore
        (Pool.map ~jobs:4
           (fun i -> if i = 13 then failwith "boom" else i)
           (Array.init 64 (fun i -> i))))

let test_pool_nested () =
  (* nested maps degrade to sequential inside workers but stay correct *)
  let expected =
    Array.init 16 (fun i -> Array.init 8 (fun y -> (i * 10) + y))
  in
  let got =
    Pool.map ~jobs:4
      (fun base -> Pool.map ~jobs:4 (fun y -> base + y) (Array.init 8 (fun i -> i)))
      (Array.init 16 (fun i -> i * 10))
  in
  Alcotest.(check (array (array int))) "nested" expected got

let test_pool_bad_jobs () =
  Alcotest.check_raises "jobs < 1"
    (Invalid_argument "Pool.set_default_jobs: jobs < 1") (fun () ->
      Pool.set_default_jobs 0);
  Alcotest.(check bool) "default >= 1" true (Pool.default_jobs () >= 1)

let test_pool_parse_jobs () =
  (match Pool.parse_jobs "4" with
  | Ok 4 -> ()
  | _ -> Alcotest.fail "\"4\" should parse as 4");
  (match Pool.parse_jobs " \t8 " with
  | Ok 8 -> ()
  | _ -> Alcotest.fail "surrounding whitespace should be ignored");
  List.iter
    (fun s ->
      match Pool.parse_jobs s with
      | Error reason ->
        Alcotest.(check bool)
          (Printf.sprintf "%S error has a reason" s)
          true
          (String.length reason > 0)
      | Ok n -> Alcotest.failf "%S accepted as %d" s n)
    [ "abc"; "0"; "-3"; ""; "1.5"; "2 jobs" ]

let test_pool_env_malformed_falls_back () =
  (* A malformed HLSB_JOBS is ambient environment, not an explicit flag: it
     must degrade to 1 job (with a warning), never crash or guess. The
     variable cannot be portably unset, so restore a benign "1". *)
  Fun.protect
    ~finally:(fun () -> Unix.putenv Pool.env_var "1")
    (fun () ->
      List.iter
        (fun bad ->
          Unix.putenv Pool.env_var bad;
          Alcotest.(check int)
            (Printf.sprintf "%S falls back to 1 job" bad)
            1 (Pool.default_jobs ()))
        [ "abc"; "0"; "-2"; "" ];
      (* a well-formed value is honored (capped at the core count) *)
      Unix.putenv Pool.env_var "2";
      let d = Pool.default_jobs () in
      Alcotest.(check bool) "valid value in range" true (d >= 1 && d <= 2))

let test_pool_reuses_workers_across_batches () =
  (* many small batches through the persistent pool: every batch must see
     the same results as Array.map even though the worker domains are
     parked and reused rather than respawned *)
  for batch = 1 to 40 do
    let arr = Array.init (batch * 3) (fun i -> i) in
    let f x = (x * batch) + 1 in
    Alcotest.(check (array int))
      (Printf.sprintf "batch %d" batch)
      (Array.map f arr)
      (Pool.map ~jobs:4 f arr)
  done

let prop_pool_matches_map =
  QCheck.Test.make ~count:50 ~name:"pool map matches Array.map at any job count"
    QCheck.(pair (list (int_bound 10000)) (int_range 1 8))
    (fun (xs, jobs) ->
      let arr = Array.of_list xs in
      let f x = (x * x) - (3 * x) in
      Pool.map ~jobs f arr = Array.map f arr)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    Alcotest.test_case "smooth identity" `Quick test_smooth_identity;
    Alcotest.test_case "smooth window 1" `Quick test_smooth_window1;
    Alcotest.test_case "smooth constant" `Quick test_smooth_preserves_constant;
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng bad bound" `Quick test_rng_bad_bound;
    Alcotest.test_case "rng float bounds" `Quick test_rng_float_bounds;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    Alcotest.test_case "rng gaussian moments" `Quick test_rng_gaussian_moments;
    Alcotest.test_case "graph topo" `Quick test_graph_topo;
    Alcotest.test_case "graph cycle" `Quick test_graph_cycle;
    Alcotest.test_case "graph components" `Quick test_graph_components;
    Alcotest.test_case "graph bad edge" `Quick test_graph_bad_edge;
    Alcotest.test_case "vec push/get" `Quick test_vec_push_get;
    Alcotest.test_case "vec bounds" `Quick test_vec_bounds;
    Alcotest.test_case "vec fold" `Quick test_vec_fold;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table arity" `Quick test_table_arity;
    Alcotest.test_case "pool matches sequential" `Quick test_pool_matches_sequential;
    Alcotest.test_case "pool map_list" `Quick test_pool_map_list;
    Alcotest.test_case "pool iter" `Quick test_pool_iter;
    Alcotest.test_case "pool exception" `Quick test_pool_exception;
    Alcotest.test_case "pool nested" `Quick test_pool_nested;
    Alcotest.test_case "pool bad jobs" `Quick test_pool_bad_jobs;
    Alcotest.test_case "pool parse jobs" `Quick test_pool_parse_jobs;
    Alcotest.test_case "pool malformed env" `Quick test_pool_env_malformed_falls_back;
    Alcotest.test_case "pool reuses workers" `Quick
      test_pool_reuses_workers_across_batches;
  ]
  @ qsuite
      [
        prop_smoothing_reduces_variation;
        prop_topo_respects_edges;
        prop_pool_matches_map;
      ]
