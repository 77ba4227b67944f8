open Hlsb_ir

let mul_op dt = if Dtype.is_float dt then Op.Fmul else Op.Mul
let add_op dt = if Dtype.is_float dt then Op.Fadd else Op.Add

let dot_lanes dag ~prefix ~lanes ~dtype ~shared =
  List.init lanes (fun i ->
    let priv =
      Dag.input dag ~name:(Printf.sprintf "%s_in%d" prefix i) ~dtype
    in
    Dag.op dag (mul_op dtype) ~dtype [ shared; priv ])

let rec reduce_tree dag ~op ~dtype nodes =
  match nodes with
  | [] -> invalid_arg "Builders.reduce_tree: empty"
  | [ x ] -> x
  | _ ->
    let rec pair = function
      | [] -> []
      | [ x ] -> [ x ]
      | a :: b :: rest -> Dag.op dag op ~dtype [ a; b ] :: pair rest
    in
    reduce_tree dag ~op ~dtype (pair nodes)

let reduce_sum dag ~dtype nodes = reduce_tree dag ~op:(add_op dtype) ~dtype nodes

let line_buffer dag ~name ~dtype ~depth ~write ~index =
  let buf = Dag.add_buffer dag ~name ~dtype ~depth ~partition:1 in
  ignore (Dag.store dag ~buffer:buf ~index ~value:write);
  Dag.load dag ~buffer:buf ~index

let scatter_word dag ~word ~parts =
  let w = Dtype.width (Dag.dtype dag word) in
  if parts < 1 || w mod parts <> 0 then
    invalid_arg "Builders.scatter_word: width does not divide";
  let pw = w / parts in
  List.init parts (fun i ->
    Dag.op dag
      (Op.Slice (((i + 1) * pw) - 1, i * pw))
      ~dtype:(Dtype.Uint pw)
      [ word ])

let compare_score dag ~prefix ~dtype ~window ~pattern =
  if List.length window <> List.length pattern then
    invalid_arg "Builders.compare_score: length mismatch";
  let scores =
    List.map2
      (fun wv pv ->
        let eq = Dag.op dag (Op.Icmp Op.Eq) ~dtype:Dtype.Bool [ wv; pv ] in
        let weight =
          Dag.const dag ~dtype (Int64.of_int (7 + String.length prefix))
        in
        let zero = Dag.const dag ~dtype 0L in
        Dag.op dag Op.Select ~dtype [ eq; weight; zero ])
      window pattern
  in
  reduce_sum dag ~dtype scores
