open Hlsb_ir
module Metrics = Hlsb_telemetry.Metrics

let split_independent (df : Dataflow.t) =
  let comp = Dataflow.connectivity_components df in
  let out = Dataflow.create () in
  Array.iter
    (fun (p : Dataflow.process) ->
      ignore
        (Dataflow.add_process out ~name:p.Dataflow.p_name
           ?latency:p.Dataflow.p_latency ?kernel:p.Dataflow.p_kernel ()))
    (Dataflow.processes df);
  Array.iter
    (fun (c : Dataflow.channel) ->
      ignore
        (Dataflow.add_channel out ~name:c.Dataflow.c_name ~src:c.Dataflow.c_src
           ~dst:c.Dataflow.c_dst ~dtype:c.Dataflow.c_dtype
           ~depth:c.Dataflow.c_depth ()))
    (Dataflow.channels df);
  List.iter
    (fun group ->
      (* Partition the group by channel-connectivity component. *)
      let by_comp = Hashtbl.create 8 in
      List.iter
        (fun p ->
          let c = comp.(p) in
          let members = Option.value ~default:[] (Hashtbl.find_opt by_comp c) in
          Hashtbl.replace by_comp c (p :: members))
        group;
      (* Deterministic order: by smallest member. *)
      let split =
        Hashtbl.fold (fun _ members acc -> List.rev members :: acc) by_comp []
        |> List.sort compare
      in
      Metrics.incr ~by:(max 0 (List.length split - 1)) "sync.groups_split";
      List.iter (fun members -> Dataflow.add_sync_group out members) split)
    (Dataflow.sync_groups df);
  out

type wait_set = {
  waited : int list;
  skipped : int list;
}

let total_sync_fanout (df : Dataflow.t) =
  List.fold_left
    (fun acc group -> acc + (2 * List.length group))
    0 (Dataflow.sync_groups df)

type latency_bound =
  | Exact of int
  | Between of int * int
  | Unknown

let bounds_of = function
  | Exact l -> (l, l)
  | Between (lo, hi) -> (lo, hi)
  | Unknown -> (max_int, max_int) (* never dominated; handled separately *)

let prune_with_bounds members =
  if members = [] then invalid_arg "Sync.prune_with_bounds: empty group";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (id, b) ->
      if Hashtbl.mem seen id then
        invalid_arg "Sync.prune_with_bounds: duplicate member";
      Hashtbl.add seen id ();
      match b with
      | Between (lo, hi) when lo > hi ->
        invalid_arg "Sync.prune_with_bounds: inverted interval"
      | Exact l when l < 0 ->
        invalid_arg "Sync.prune_with_bounds: negative latency"
      | Exact _ | Between _ | Unknown -> ())
    members;
  let bounded =
    List.filter (fun (_, b) -> b <> Unknown) members
  in
  match bounded with
  | [] -> { waited = List.map fst members; skipped = [] }
  | _ ->
    (* anchor: greatest lower bound, smallest id on ties *)
    let anchor_id, anchor_b =
      List.fold_left
        (fun (bid, bb) (id, b) ->
          let blo, _ = bounds_of bb and lo, _ = bounds_of b in
          if lo > blo || (lo = blo && id < bid) then (id, b) else (bid, bb))
        (List.hd bounded) (List.tl bounded)
    in
    let anchor_lo, _ = bounds_of anchor_b in
    let skipped =
      List.filter_map
        (fun (id, b) ->
          if id = anchor_id then None
          else
            match b with
            | Unknown -> None
            | Exact _ | Between _ ->
              let _, hi = bounds_of b in
              if hi <= anchor_lo then Some id else None)
        members
    in
    let waited =
      List.filter_map
        (fun (id, _) -> if List.mem id skipped then None else Some id)
        members
    in
    { waited = List.sort compare waited; skipped = List.sort compare skipped }

let bound_of_trip_count ~ii ~depth ~trip_lo ~trip_hi =
  if ii < 1 || depth < 1 || trip_lo < 1 || trip_hi < trip_lo then
    invalid_arg "Sync.bound_of_trip_count";
  let lat trips = depth + (ii * (trips - 1)) in
  if trip_lo = trip_hi then Exact (lat trip_lo)
  else Between (lat trip_lo, lat trip_hi)
