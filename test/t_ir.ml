(* Tests for the IR: dtypes, ops, the operation DAG, dataflow networks,
   and the broadcast an unrolled loop creates. *)

open Hlsb_ir
module Builders = Hlsb_designs.Builders

let i32 = Dtype.Int 32

(* ---- Dtype ---- *)

let test_dtype_width () =
  Alcotest.(check int) "bool" 1 (Dtype.width Dtype.Bool);
  Alcotest.(check int) "i32" 32 (Dtype.width i32);
  Alcotest.(check int) "u7" 7 (Dtype.width (Dtype.Uint 7));
  Alcotest.(check int) "f32" 32 (Dtype.width Dtype.Float32);
  Alcotest.(check int) "f64" 64 (Dtype.width Dtype.Float64)

let test_dtype_float () =
  Alcotest.(check bool) "f32" true (Dtype.is_float Dtype.Float32);
  Alcotest.(check bool) "i32" false (Dtype.is_float i32)

let test_dtype_validate () =
  Alcotest.check_raises "width 0"
    (Invalid_argument "Dtype: integer width out of [1,512]") (fun () ->
      Dtype.validate (Dtype.Int 0));
  Dtype.validate (Dtype.Uint 512)

let test_dtype_string () =
  Alcotest.(check string) "i32" "i32" (Dtype.to_string i32);
  Alcotest.(check string) "f64" "f64" (Dtype.to_string Dtype.Float64)

(* ---- Op ---- *)

let test_op_arity () =
  Alcotest.(check int) "add" 2 (Op.arity Op.Add);
  Alcotest.(check int) "select" 3 (Op.arity Op.Select);
  Alcotest.(check int) "not" 1 (Op.arity Op.Not);
  Alcotest.(check int) "concat variadic" (-1) (Op.arity Op.Concat)

let test_op_classes () =
  Alcotest.(check bool) "icmp bool" true (Op.result_is_bool (Op.Icmp Op.Lt));
  Alcotest.(check bool) "add not bool" false (Op.result_is_bool Op.Add)

(* The DAG stores operators and dtypes by code: each code must name
   exactly one value. *)
let test_codes_round_trip () =
  for c = 0 to Op.n_codes - 1 do
    Alcotest.(check int) "op code" c (Op.code (Op.of_code c))
  done;
  Alcotest.(check int) "slice has no code" (-1) (Op.code (Op.Slice (7, 0)));
  let dtypes =
    Dtype.[ Bool; Float32; Float64 ]
    @ List.concat_map (fun w -> Dtype.[ Int w; Uint w ]) (List.init 512 succ)
  in
  List.iter
    (fun dt ->
      Alcotest.(check bool) (Dtype.to_string dt) true
        (Dtype.of_code (Dtype.code dt) = dt))
    dtypes;
  Alcotest.(check int) "codes distinct" (List.length dtypes)
    (List.length (List.sort_uniq compare (List.map Dtype.code dtypes)))

(* ---- Dag ---- *)

let small_dag () =
  let dag = Dag.create () in
  let a = Dag.input dag ~name:"a" ~dtype:i32 in
  let b = Dag.input dag ~name:"b" ~dtype:i32 in
  let s = Dag.op dag Op.Add ~dtype:i32 [ a; b ] in
  let d = Dag.op dag Op.Sub ~dtype:i32 [ s; a ] in
  ignore (Dag.output dag ~name:"r" ~value:d);
  (dag, a, b, s, d)

(* [v]'s read slots, in the order the consumer accessor numbers them. *)
let consumers dag v = List.init (Dag.broadcast_factor dag v) (Dag.consumer dag v)

let test_dag_basic () =
  let dag, a, _, s, _ = small_dag () in
  Alcotest.(check int) "nodes" 5 (Dag.n_nodes dag);
  Alcotest.(check (list int)) "args of add" [ 0; 1 ] (Dag.args dag s);
  Alcotest.(check (list int)) "indexed args of add" [ 0; 1 ]
    (List.init (Dag.n_args dag s) (Dag.arg dag s));
  Alcotest.(check bool) "a consumed twice" true (Dag.broadcast_factor dag a = 2);
  Alcotest.(check (list int)) "consumers of a" [ 3; 2 ] (consumers dag a)

let test_dag_validate_ok () =
  let dag, _, _, _, _ = small_dag () in
  match Dag.validate dag with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_dag_arity_check () =
  let dag = Dag.create () in
  let a = Dag.input dag ~name:"a" ~dtype:i32 in
  Alcotest.(check bool) "bad arity rejected" true
    (try
       ignore (Dag.op dag Op.Add ~dtype:i32 [ a ]);
       false
     with Invalid_argument _ -> true)

let test_dag_forward_ref () =
  let dag = Dag.create () in
  Alcotest.(check bool) "forward ref rejected" true
    (try
       ignore (Dag.op dag Op.Not ~dtype:i32 [ 5 ]);
       false
     with Invalid_argument _ -> true);
  (* a rejected add leaves no trace: the next node takes id 0, argless *)
  let a = Dag.input dag ~name:"a" ~dtype:i32 in
  Alcotest.(check int) "id reused" 0 a;
  Alcotest.(check int) "no stray args" 0 (Dag.n_args dag a)

let test_dag_cmp_forced_bool () =
  let dag = Dag.create () in
  let a = Dag.input dag ~name:"a" ~dtype:i32 in
  let b = Dag.input dag ~name:"b" ~dtype:i32 in
  let c = Dag.op dag (Op.Icmp Op.Lt) ~dtype:i32 [ a; b ] in
  Alcotest.(check bool) "cmp is bool" true (Dag.dtype dag c = Dtype.Bool)

let test_dag_buffer_ops () =
  let dag = Dag.create () in
  let buf = Dag.add_buffer dag ~name:"m" ~dtype:i32 ~depth:1024 ~partition:1 in
  let idx = Dag.input dag ~name:"i" ~dtype:i32 in
  let v = Dag.input dag ~name:"v" ~dtype:i32 in
  let st = Dag.store dag ~buffer:buf ~index:idx ~value:v in
  let ld = Dag.load dag ~buffer:buf ~index:idx in
  Alcotest.(check bool) "store kind" true (Dag.kind dag st = Dag.Store buf);
  Alcotest.(check bool) "load kind" true (Dag.kind dag ld = Dag.Load buf);
  Alcotest.(check bool) "load dtype from buffer" true (Dag.dtype dag ld = i32);
  match Dag.validate dag with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_dag_store_width_mismatch () =
  let dag = Dag.create () in
  let buf = Dag.add_buffer dag ~name:"m" ~dtype:(Dtype.Uint 64) ~depth:16 ~partition:1 in
  let idx = Dag.input dag ~name:"i" ~dtype:i32 in
  let v = Dag.input dag ~name:"v" ~dtype:i32 in
  ignore (Dag.store dag ~buffer:buf ~index:idx ~value:v);
  Alcotest.(check bool) "width mismatch caught" true
    (match Dag.validate dag with Error _ -> true | Ok () -> false)

let test_dag_fifo_ops () =
  let dag = Dag.create () in
  let f = Dag.add_fifo dag ~name:"q" ~dtype:i32 ~depth:8 in
  let r = Dag.fifo_read dag ~fifo:f in
  ignore (Dag.fifo_write dag ~fifo:f ~value:r);
  Alcotest.(check int) "one fifo" 1 (Array.length (Dag.fifos dag));
  Alcotest.(check bool) "fifo depth" true ((Dag.fifo dag f).Dag.f_depth = 8)

let test_dag_bad_buffer_params () =
  let dag = Dag.create () in
  Alcotest.(check bool) "depth 0 rejected" true
    (try ignore (Dag.add_buffer dag ~name:"m" ~dtype:i32 ~depth:0 ~partition:1); false
     with Invalid_argument _ -> true)

let test_broadcast_factor_multiplicity () =
  let dag = Dag.create () in
  let a = Dag.input dag ~name:"a" ~dtype:i32 in
  (* a used as both operands: two reads *)
  ignore (Dag.op dag Op.Add ~dtype:i32 [ a; a ]);
  Alcotest.(check int) "a read twice" 2 (Dag.broadcast_factor dag a);
  Alcotest.(check (list int)) "one consumer node" [ 1; 1 ] (consumers dag a)

(* ---- unrolling and reduction ---- *)

let test_unrolled_broadcast () =
  let dag = Dag.create () in
  let shared = Dag.input dag ~name:"src" ~dtype:i32 in
  for j = 0 to 15 do
    let p = Dag.input dag ~name:(Printf.sprintf "p%d" j) ~dtype:i32 in
    ignore (Dag.op dag Op.Add ~dtype:i32 [ shared; p ])
  done;
  (* the Fig. 1 pattern: the shared value is read by every body instance *)
  Alcotest.(check int) "fig.1 broadcast" 16 (Dag.broadcast_factor dag shared)

let test_reduce_tree_depth () =
  let dag = Dag.create () in
  let leaves =
    List.init 8 (fun i -> Dag.input dag ~name:(Printf.sprintf "x%d" i) ~dtype:i32)
  in
  let root = Builders.reduce_tree dag ~op:Op.Add ~dtype:i32 leaves in
  (* 8 leaves -> 7 internal adds, root last *)
  Alcotest.(check int) "nodes" 15 (Dag.n_nodes dag);
  Alcotest.(check int) "root id" 14 root;
  (* balanced: no input feeds the root directly *)
  List.iter
    (fun l ->
      Alcotest.(check bool) "leaf not at root" false
        (List.mem l (Dag.args dag root)))
    leaves

let test_reduce_tree_single () =
  let dag = Dag.create () in
  let x = Dag.input dag ~name:"x" ~dtype:i32 in
  Alcotest.(check int) "singleton is identity" x
    (Builders.reduce_tree dag ~op:Op.Add ~dtype:i32 [ x ])

(* ---- Kernel ---- *)

let test_kernel_create () =
  let dag, _, _, _, _ = small_dag () in
  let k = Kernel.create ~name:"k" dag in
  Alcotest.(check int) "default ii" 1 k.Kernel.ii;
  Alcotest.(check int) "out width" 32 (Kernel.data_width_out k)

let test_kernel_bad_ii () =
  let dag, _, _, _, _ = small_dag () in
  Alcotest.check_raises "ii" (Invalid_argument "Kernel.create: ii < 1")
    (fun () -> ignore (Kernel.create ~name:"k" ~ii:0 dag))

(* ---- Dataflow ---- *)

let two_flow_network () =
  (* two independent producer->consumer flows glued by one sync group
     (the Fig. 5a situation) *)
  let df = Dataflow.create () in
  let a1 = Dataflow.add_process df ~name:"a1" () in
  let a2 = Dataflow.add_process df ~name:"a2" () in
  let b1 = Dataflow.add_process df ~name:"b1" () in
  let b2 = Dataflow.add_process df ~name:"b2" () in
  ignore (Dataflow.add_channel df ~name:"ca" ~src:a1 ~dst:a2 ~dtype:i32 ());
  ignore (Dataflow.add_channel df ~name:"cb" ~src:b1 ~dst:b2 ~dtype:i32 ());
  ignore (Dataflow.add_channel df ~name:"ia" ~src:(-1) ~dst:a1 ~dtype:i32 ());
  ignore (Dataflow.add_channel df ~name:"ib" ~src:(-1) ~dst:b1 ~dtype:i32 ());
  ignore (Dataflow.add_channel df ~name:"oa" ~src:a2 ~dst:(-1) ~dtype:i32 ());
  ignore (Dataflow.add_channel df ~name:"ob" ~src:b2 ~dst:(-1) ~dtype:i32 ());
  Dataflow.add_sync_group df [ a1; a2; b1; b2 ];
  df

let test_dataflow_components () =
  let df = two_flow_network () in
  let comp = Dataflow.connectivity_components df in
  Alcotest.(check bool) "a-flow connected" true (comp.(0) = comp.(1));
  Alcotest.(check bool) "b-flow connected" true (comp.(2) = comp.(3));
  Alcotest.(check bool) "flows independent" true (comp.(0) <> comp.(2))

let test_dataflow_validate () =
  let df = two_flow_network () in
  Alcotest.(check int) "no problems" 0 (List.length (Dataflow.problems df));
  let df2 = Dataflow.create () in
  ignore (Dataflow.add_process df2 ~name:"orphan" ());
  Alcotest.(check bool) "orphan process flagged" true
    (match Dataflow.problems df2 with
    | [ { Dataflow.pb_entity = `Process "orphan"; _ } ] -> true
    | _ -> false)

let test_dataflow_group_dup () =
  let df = Dataflow.create () in
  let p = Dataflow.add_process df ~name:"p" () in
  Alcotest.check_raises "dup member"
    (Invalid_argument "Dataflow.add_sync_group: duplicate member") (fun () ->
      Dataflow.add_sync_group df [ p; p ])

let suite =
  [
    Alcotest.test_case "dtype width" `Quick test_dtype_width;
    Alcotest.test_case "dtype float" `Quick test_dtype_float;
    Alcotest.test_case "dtype validate" `Quick test_dtype_validate;
    Alcotest.test_case "dtype to_string" `Quick test_dtype_string;
    Alcotest.test_case "op arity" `Quick test_op_arity;
    Alcotest.test_case "op classes" `Quick test_op_classes;
    Alcotest.test_case "op and dtype codes round-trip" `Quick test_codes_round_trip;
    Alcotest.test_case "dag basic" `Quick test_dag_basic;
    Alcotest.test_case "dag validate ok" `Quick test_dag_validate_ok;
    Alcotest.test_case "dag arity check" `Quick test_dag_arity_check;
    Alcotest.test_case "dag forward ref" `Quick test_dag_forward_ref;
    Alcotest.test_case "dag cmp bool" `Quick test_dag_cmp_forced_bool;
    Alcotest.test_case "dag buffer ops" `Quick test_dag_buffer_ops;
    Alcotest.test_case "dag store width" `Quick test_dag_store_width_mismatch;
    Alcotest.test_case "dag fifo ops" `Quick test_dag_fifo_ops;
    Alcotest.test_case "dag bad buffer" `Quick test_dag_bad_buffer_params;
    Alcotest.test_case "dag read multiplicity" `Quick test_broadcast_factor_multiplicity;
    Alcotest.test_case "unroll creates broadcast" `Quick test_unrolled_broadcast;
    Alcotest.test_case "reduce tree shape" `Quick test_reduce_tree_depth;
    Alcotest.test_case "reduce tree single" `Quick test_reduce_tree_single;
    Alcotest.test_case "kernel create" `Quick test_kernel_create;
    Alcotest.test_case "kernel bad ii" `Quick test_kernel_bad_ii;
    Alcotest.test_case "dataflow components" `Quick test_dataflow_components;
    Alcotest.test_case "dataflow validate" `Quick test_dataflow_validate;
    Alcotest.test_case "dataflow dup group" `Quick test_dataflow_group_dup;
  ]
