let unrolled _dag ~factor body =
  if factor < 1 then invalid_arg "Transform.unrolled: factor < 1";
  for j = 0 to factor - 1 do
    body j
  done

let rec reduce_tree dag ~op ~dtype nodes =
  match nodes with
  | [] -> invalid_arg "Transform.reduce_tree: empty"
  | [ x ] -> x
  | _ ->
    let rec pair = function
      | [] -> []
      | [ x ] -> [ x ]
      | a :: b :: rest -> Dag.op dag op ~dtype [ a; b ] :: pair rest
    in
    reduce_tree dag ~op ~dtype (pair nodes)
