let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.median: empty sample"
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

type tail = { tl_value : float; tl_percentile : float; tl_beyond : int }

let beyond = 10

let tail a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.tail: empty sample"
  else if n <= beyond then
    { tl_value = s.(n - 1); tl_percentile = 100.; tl_beyond = 0 }
  else
    let rank = n - beyond in
    {
      tl_value = s.(rank - 1);
      tl_percentile = 100. *. float_of_int rank /. float_of_int n;
      tl_beyond = beyond;
    }

let geomean = function
  | [] -> nan
  | xs ->
    let n = float_of_int (List.length xs) in
    exp (List.fold_left (fun acc x -> acc +. log x) 0. xs /. n)

let fail_ratio ~attempted ~failed =
  if attempted < 1 || failed < 0 || failed > attempted then
    invalid_arg "Stats.fail_ratio";
  float_of_int failed /. float_of_int attempted

let latencies ops =
  Array.of_list (List.map (fun (ms, ok) -> if ok then ms else infinity) ops)

type span = { sp_id : int; sp_parent : int; sp_start : float; sp_stop : float }

let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b))
        | None -> (total, Some (a, b)))
      (0., None) clipped
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.sp_parent >= 0 then
        Hashtbl.add children s.sp_parent (s.sp_start, s.sp_stop))
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.sp_id in
      ( s.sp_id,
        s.sp_stop -. s.sp_start -. covered ~lo:s.sp_start ~hi:s.sp_stop kids ))
    spans
