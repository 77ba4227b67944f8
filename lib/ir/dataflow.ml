module Vec = Hlsb_util.Vec
module Intgraph = Hlsb_util.Intgraph

type process = {
  p_name : string;
  p_latency : int option;
  p_kernel : Kernel.t option;
}

type channel = {
  c_name : string;
  c_src : int;
  c_dst : int;
  c_dtype : Dtype.t;
  c_depth : int;
}

type t = {
  procs : process Vec.t;
  chans : channel Vec.t;
  mutable groups : int list list; (* reversed *)
  mutable classes_cache : int array option;
}

let create () =
  { procs = Vec.create (); chans = Vec.create (); groups = []; classes_cache = None }

let add_process t ~name ?latency ?kernel () =
  t.classes_cache <- None;
  Vec.push t.procs { p_name = name; p_latency = latency; p_kernel = kernel }

let check_endpoint t p what =
  if p < -1 || p >= Vec.length t.procs then
    invalid_arg ("Dataflow.add_channel: bad " ^ what)

let add_channel t ~name ~src ~dst ~dtype ?(depth = 2) () =
  Dtype.validate dtype;
  check_endpoint t src "src";
  check_endpoint t dst "dst";
  if depth < 1 then invalid_arg "Dataflow.add_channel: depth < 1";
  Vec.push t.chans
    { c_name = name; c_src = src; c_dst = dst; c_dtype = dtype; c_depth = depth }

let add_sync_group t members =
  let n = Vec.length t.procs in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun p ->
      if p < 0 || p >= n then invalid_arg "Dataflow.add_sync_group: bad member";
      if Hashtbl.mem seen p then
        invalid_arg "Dataflow.add_sync_group: duplicate member";
      Hashtbl.add seen p ())
    members;
  t.groups <- members :: t.groups

let n_processes t = Vec.length t.procs
let n_channels t = Vec.length t.chans
let process t p = Vec.get t.procs p
let channel t c = Vec.get t.chans c
let processes t = Vec.to_array t.procs
let channels t = Vec.to_array t.chans
let sync_groups t = List.rev t.groups

(* [Dag.same_structure] is an equivalence, so at most one representative
   matches, and it is the first process of its class. *)
let kernel_classes t =
  match t.classes_cache with
  | Some c -> c
  | None ->
    let reps = ref [] in
    let classes =
      Array.init (Vec.length t.procs) (fun p ->
        match (Vec.get t.procs p).p_kernel with
        | None -> p
        | Some k -> (
          match
            List.find_opt
              (fun (_, (r : Kernel.t)) -> Dag.same_structure r.Kernel.dag k.Kernel.dag)
              !reps
          with
          | Some (rep, _) -> rep
          | None ->
            reps := (p, k) :: !reps;
            p))
    in
    t.classes_cache <- Some classes;
    classes

let connectivity_components t =
  let g = Intgraph.create (Vec.length t.procs) in
  Vec.iteri
    (fun _ c ->
      if c.c_src >= 0 && c.c_dst >= 0 then Intgraph.add_edge g c.c_src c.c_dst)
    t.chans;
  Intgraph.connected_components g

type problem = {
  pb_entity : [ `Channel of string | `Process of string ];
  pb_message : string;
}

let problems t =
  let errors = ref [] in
  let err entity fmt =
    Printf.ksprintf
      (fun s -> errors := { pb_entity = entity; pb_message = s } :: !errors)
      fmt
  in
  Vec.iteri
    (fun i c ->
      if c.c_src = -1 && c.c_dst = -1 then
        err (`Channel c.c_name) "channel %d (%s): dangling at both ends" i
          c.c_name)
    t.chans;
  (* every process should touch at least one channel *)
  let touched = Array.make (Vec.length t.procs) false in
  Vec.iteri
    (fun _ c ->
      if c.c_src >= 0 then touched.(c.c_src) <- true;
      if c.c_dst >= 0 then touched.(c.c_dst) <- true)
    t.chans;
  Array.iteri
    (fun p ok ->
      let name = (Vec.get t.procs p).p_name in
      if not ok then err (`Process name) "process %d (%s): no channels" p name)
    touched;
  List.rev !errors
