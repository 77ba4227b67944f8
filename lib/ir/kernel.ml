type t = {
  name : string;
  dag : Dag.t;
  ii : int;
  trip_count : int;
}

let create ~name ?(ii = 1) ?(trip_count = 1024) dag =
  if ii < 1 then invalid_arg "Kernel.create: ii < 1";
  if trip_count < 1 then invalid_arg "Kernel.create: trip_count < 1";
  (match Dag.validate dag with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Kernel.create: invalid dag: " ^ msg));
  Dag.index_consumers dag;
  { name; dag; ii; trip_count }

let sum_width t pred =
  let acc = ref 0 in
  Dag.iter t.dag (fun v ->
    if pred (Dag.kind t.dag v) then acc := !acc + Dtype.width (Dag.dtype t.dag v));
  !acc

let data_width_out t =
  sum_width t (function
    | Dag.Fifo_write _ | Dag.Output _ -> true
    | Dag.Input _ | Dag.Const _ | Dag.Operation _ | Dag.Load _ | Dag.Store _
    | Dag.Fifo_read _ ->
      false)
