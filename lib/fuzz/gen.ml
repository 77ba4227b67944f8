module Rng = Hlsb_util.Rng
module Json = Hlsb_telemetry.Json
module Plan = Hlsb_transform.Plan
open Hlsb_ir

type gate =
  | Empty
  | Credit

type pipe_case = {
  pc_stages : int;
  pc_ctrl_delay : int;
  pc_gate : gate;
  pc_n : int;
  pc_slack : int;
  pc_ready_seed : int;
  pc_ready_duty : int;
}

type net_case = {
  nc_chains : int list;
  nc_depth_seed : int;
  nc_groups : (int * int list) list;
  nc_tokens : int;
  nc_ready_seed : int;
  nc_ready_duty : int;
}

type kern_shape =
  | Sdag
  | Swide

type kern_case = {
  kc_seed : int;
  kc_ops : int;
  kc_width : int;
  kc_recipe : int;
  kc_shape : kern_shape;
}

type src_case = {
  sc_seed : int;
  sc_strands : int;
  sc_trips : int;
  sc_big : bool;
  sc_plan : string;
}

type t =
  | Pipe of pipe_case
  | Net of net_case
  | Kern of kern_case
  | Src of src_case

type kind =
  | Kpipe
  | Knet
  | Kkern
  | Ksrc

let kind_of = function
  | Pipe _ -> Kpipe
  | Net _ -> Knet
  | Kern _ -> Kkern
  | Src _ -> Ksrc

let recipes =
  let open Hlsb_ctrl.Style in
  [|
    original;
    optimized;
    { sched = Sched_aware; pipe = Stall; sync = Sync_naive };
    { sched = Sched_hls; pipe = Skid { min_area = true }; sync = Sync_pruned };
  |]

(* ---------------- validity ---------------- *)

let valid_pipe c =
  c.pc_stages >= 1 && c.pc_ctrl_delay >= 0 && c.pc_n >= 1 && c.pc_slack >= 0
  && c.pc_ready_duty >= 1 && c.pc_ready_duty <= 4

let valid_net c =
  let n_chains = List.length c.nc_chains in
  n_chains >= 1
  && List.for_all (fun l -> l >= 1) c.nc_chains
  && c.nc_tokens >= 1
  && c.nc_ready_duty >= 1
  && c.nc_ready_duty <= 4
  &&
  let lengths = Array.of_list c.nc_chains in
  let positions_distinct =
    let ps = List.map fst c.nc_groups in
    List.length (List.sort_uniq compare ps) = List.length ps
  in
  positions_distinct
  && List.for_all
       (fun (pos, members) ->
         pos >= 0
         && List.length members >= 2
         && List.sort_uniq compare members = members
         && List.for_all
              (fun ch -> ch >= 0 && ch < n_chains && lengths.(ch) > pos)
              members)
       c.nc_groups

let valid_kern c =
  c.kc_seed >= 0 && c.kc_ops >= 1
  && (c.kc_width = 8 || c.kc_width = 16 || c.kc_width = 32)
  && c.kc_recipe >= 0
  && c.kc_recipe < Array.length recipes

let valid_src c =
  c.sc_seed >= 0
  && c.sc_strands >= 1
  && c.sc_strands <= 3
  && c.sc_trips >= 2
  && c.sc_trips <= 8
  && match Plan.of_string c.sc_plan with Ok _ -> true | Error _ -> false

let valid = function
  | Pipe c -> valid_pipe c
  | Net c -> valid_net c
  | Kern c -> valid_kern c
  | Src c -> valid_src c

(* ---------------- deterministic builders ---------------- *)

(* Readiness patterns carry a liveness floor — one guaranteed-ready cycle
   in every four — so every generated scenario drains within the sim
   cycle limits and "never completes" is always a bug, never a
   pathological pattern. *)

let ready_fn ~seed ~duty =
  let rng = Rng.create seed in
  let pattern = Array.init 1024 (fun _ -> Rng.int rng 4 < duty) in
  fun cycle -> cycle land 3 = 3 || pattern.(cycle land 1023)

let net_ready_fn ~seed ~duty =
  let rng = Rng.create seed in
  let pattern = Array.init 2048 (fun _ -> Rng.int rng 4 < duty) in
  fun ~chan ~cycle ->
    (chan + cycle) land 3 = 3 || pattern.(((chan * 37) + cycle) land 2047)

let build_net (c : net_case) =
  let df = Dataflow.create () in
  let depth_rng = Rng.create c.nc_depth_seed in
  let dtypes = [| Dtype.Int 8; Dtype.Int 16; Dtype.Int 32; Dtype.Uint 8 |] in
  let chain_procs =
    List.mapi
      (fun ci len ->
        let dt = dtypes.(Rng.int depth_rng (Array.length dtypes)) in
        let procs =
          List.init len (fun pi ->
            Dataflow.add_process df ~name:(Printf.sprintf "c%dp%d" ci pi) ())
        in
        let arr = Array.of_list procs in
        ignore
          (Dataflow.add_channel df
             ~name:(Printf.sprintf "c%d_in" ci)
             ~src:(-1) ~dst:arr.(0) ~dtype:dt
             ~depth:(1 + Rng.int depth_rng 4)
             ());
        for pi = 0 to len - 2 do
          ignore
            (Dataflow.add_channel df
               ~name:(Printf.sprintf "c%d_%d_%d" ci pi (pi + 1))
               ~src:arr.(pi)
               ~dst:arr.(pi + 1)
               ~dtype:dt
               ~depth:(1 + Rng.int depth_rng 4)
               ())
        done;
        ignore
          (Dataflow.add_channel df
             ~name:(Printf.sprintf "c%d_out" ci)
             ~src:arr.(len - 1)
             ~dst:(-1) ~dtype:dt
             ~depth:(1 + Rng.int depth_rng 4)
             ());
        arr)
      c.nc_chains
  in
  let chains = Array.of_list chain_procs in
  List.iter
    (fun (pos, members) ->
      Dataflow.add_sync_group df
        (List.map (fun ch -> chains.(ch).(pos)) members))
    c.nc_groups;
  df

let op_pool = [| Op.Add; Op.Sub; Op.Mul; Op.And_; Op.Or_; Op.Xor; Op.Min; Op.Max |]
let unary_pool = [| Op.Not; Op.Abs |]

(* The wide shape reuses the modular-squaring datapath generator: a
   partial-product grid plus compressor tree, i.e. the broadcast-heavy
   structure the scale workloads stress, at fuzz-friendly sizes. All
   parameters are a deterministic function of the case. *)
let build_wide (c : kern_case) =
  let limb = 4 in
  let bits = Stdlib.max (2 * limb) (c.kc_width * (1 + (c.kc_ops mod 4))) in
  Hlsb_designs.Bigmul.kernel ~bits ~limb ~lane:(c.kc_seed land 0xFF) ()

let build_dag (c : kern_case) =
  let rng = Rng.create c.kc_seed in
  let dt = Dtype.Int c.kc_width in
  let dag = Dag.create () in
  let n_in = 1 + Rng.int rng 3 in
  let sources =
    Array.init n_in (fun i ->
      let f =
        Dag.add_fifo dag ~name:(Printf.sprintf "i%d" i) ~dtype:dt ~depth:8
      in
      Dag.fifo_read dag ~fifo:f)
  in
  let values = ref (Array.to_list sources) in
  let n_values = ref n_in in
  let pick_recent () =
    (* bias toward recent values so the DAG grows depth, not just width *)
    let window = min 8 !n_values in
    List.nth !values (Rng.int rng window)
  in
  for j = 0 to c.kc_ops - 1 do
    let a = if j < n_in then sources.(j) else pick_recent () in
    let node =
      if Rng.int rng 6 = 0 then
        Dag.op dag unary_pool.(Rng.int rng (Array.length unary_pool)) ~dtype:dt [ a ]
      else
        let b = pick_recent () in
        Dag.op dag op_pool.(Rng.int rng (Array.length op_pool)) ~dtype:dt [ a; b ]
    in
    values := node :: !values;
    incr n_values
  done;
  (* every value nobody reads leaves through an output FIFO, so the DAG
     has no dangling datapath and at least one output *)
  let unread =
    List.filter (fun node -> Dag.broadcast_factor dag node = 0) (List.rev !values)
  in
  List.iteri
    (fun i node ->
      let f = Dag.add_fifo dag ~name:(Printf.sprintf "o%d" i) ~dtype:dt ~depth:8 in
      ignore (Dag.fifo_write dag ~fifo:f ~value:node))
    unread;
  Kernel.create ~name:(Printf.sprintf "fz%d" c.kc_seed) dag

let build_kernel (c : kern_case) =
  match c.kc_shape with
  | Sdag -> build_dag c
  | Swide -> build_wide c

(* Source programs are independent "strands" — each a stream-in/stream-out
   flow with its own loops — so fission, fusion and stream insertion have
   genuine targets and per-stream (Kahn) semantics is well-defined. The
   text is deterministic in the case; the transform plan rides along as
   its canonical string. *)

let src_shape rng = Rng.int rng 4

let src_strand b ~params ~shape ~s ~t ~k =
  let p name = Buffer.add_string params (Printf.sprintf "stream<int> &%s, " name) in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  match shape with
  | 0 ->
    (* stream-insertable: intermediate array between twin loops *)
    p (Printf.sprintf "in%d" s);
    p (Printf.sprintf "out%d" s);
    line "  int t%d[%d];" s t;
    line "  for (int i%d = 0; i%d < %d; i%d++) {" s s t s;
    line "    t%d[i%d] = in%d.read() * %d + %d;" s s s (k ()) (k ());
    line "  }";
    line "  for (int i%d = 0; i%d < %d; i%d++) {" s s t s;
    line "    out%d.write(t%d[i%d] + %d);" s s s (k ());
    line "  }"
  | 1 ->
    (* straight-through single loop *)
    p (Printf.sprintf "in%d" s);
    p (Printf.sprintf "out%d" s);
    line "  for (int i%d = 0; i%d < %d; i%d++) {" s s t s;
    line "    int v%d = in%d.read();" s s;
    line "    out%d.write(v%d * %d - %d);" s s (k ()) (k ());
    line "  }"
  | 2 ->
    (* fission target: two stream-disjoint statements in one loop *)
    p (Printf.sprintf "in%d" s);
    p (Printf.sprintf "inx%d" s);
    p (Printf.sprintf "out%d" s);
    p (Printf.sprintf "outx%d" s);
    line "  for (int i%d = 0; i%d < %d; i%d++) {" s s t s;
    line "    out%d.write(in%d.read() + %d);" s s (k ());
    line "    outx%d.write(inx%d.read() * %d);" s s (k ());
    line "  }"
  | _ ->
    (* fusion target: adjacent twin-header loops over disjoint streams *)
    p (Printf.sprintf "in%d" s);
    p (Printf.sprintf "inx%d" s);
    p (Printf.sprintf "out%d" s);
    p (Printf.sprintf "outx%d" s);
    line "  for (int i%d = 0; i%d < %d; i%d++) {" s s t s;
    line "    out%d.write(in%d.read() + %d);" s s (k ());
    line "  }";
    line "  for (int i%d = 0; i%d < %d; i%d++) {" s s t s;
    line "    outx%d.write(inx%d.read() - %d);" s s (k ());
    line "  }"

let src_source (c : src_case) =
  let rng = Rng.create c.sc_seed in
  let k () = 1 + Rng.int rng 9 in
  let body = Buffer.create 512 and params = Buffer.create 128 in
  for s = 0 to c.sc_strands - 1 do
    src_strand body ~params ~shape:(src_shape rng) ~s ~t:c.sc_trips ~k
  done;
  if c.sc_big then begin
    (* one BRAM-sized strand (>= Elab.buffer_threshold words) so cyclic
       partitioning has a legal target *)
    Buffer.add_string params "stream<int> &inb, stream<int> &outb, ";
    Buffer.add_string body
      (Printf.sprintf
         "  int tb[256];\n\
         \  for (int ib = 0; ib < 256; ib++) {\n\
         \    tb[ib] = inb.read() + %d;\n\
         \  }\n\
         \  for (int ib = 0; ib < 256; ib++) {\n\
         \    outb.write(tb[ib] * %d);\n\
         \  }\n"
         (k ()) (k ()))
  end;
  let params = Buffer.contents params in
  let params = String.sub params 0 (String.length params - 2) in
  Printf.sprintf "void fz(%s) {\n%s}\n" params (Buffer.contents body)

(* ---------------- generation ---------------- *)

let gen_pipe rng =
  {
    pc_stages = 1 + Rng.int rng 12;
    pc_ctrl_delay = Rng.int rng 4;
    pc_gate = (if Rng.bool rng then Empty else Credit);
    pc_n = 1 + Rng.int rng 50;
    pc_slack = Rng.int rng 4;
    pc_ready_seed = Rng.int rng 1_000_000;
    pc_ready_duty = 1 + Rng.int rng 4;
  }

let gen_net rng =
  let n_chains = 1 + Rng.int rng 4 in
  let chains = List.init n_chains (fun _ -> 1 + Rng.int rng 4) in
  let lengths = Array.of_list chains in
  let max_len = Array.fold_left max 0 lengths in
  let groups = ref [] in
  for pos = 0 to max_len - 1 do
    if Rng.int rng 3 = 0 then begin
      let eligible =
        List.filter (fun ch -> lengths.(ch) > pos) (List.init n_chains Fun.id)
      in
      let members = List.filter (fun _ -> Rng.bool rng) eligible in
      if List.length members >= 2 then groups := (pos, members) :: !groups
    end
  done;
  {
    nc_chains = chains;
    nc_depth_seed = Rng.int rng 1_000_000;
    nc_groups = List.rev !groups;
    nc_tokens = 1 + Rng.int rng 12;
    nc_ready_seed = Rng.int rng 1_000_000;
    nc_ready_duty = 1 + Rng.int rng 4;
  }

let gen_kern rng =
  {
    kc_seed = Rng.int rng 1_000_000;
    kc_ops = 1 + Rng.int rng 24;
    kc_width = [| 8; 16; 32 |].(Rng.int rng 3);
    kc_recipe = Rng.int rng (Array.length recipes);
    (* one case in four exercises the wide-arithmetic datapath *)
    kc_shape = (if Rng.int rng 4 = 0 then Swide else Sdag);
  }

let gen_src rng =
  let sc_seed = Rng.int rng 1_000_000 in
  let sc_strands = 1 + Rng.int rng 3 in
  let sc_trips = [| 2; 3; 4; 6; 8 |].(Rng.int rng 5) in
  let sc_big = Rng.int rng 4 = 0 in
  (* item pool over names the source can actually contain; inapplicable
     picks are still legal plans (the oracle treats their structured
     rejection as a pass) *)
  let strand () = Rng.int rng sc_strands in
  let factor () = if Rng.bool rng then 2 else sc_trips in
  let pool =
    [|
      (fun () -> Printf.sprintf "unroll=%d" (factor ()));
      (fun () -> Printf.sprintf "unroll=i%d:%d" (strand ()) (factor ()));
      (fun () -> "fission");
      (fun () -> Printf.sprintf "fission=i%d" (strand ()));
      (fun () -> "fusion");
      (fun () -> Printf.sprintf "fusion=i%d" (strand ()));
      (fun () -> "stream");
      (fun () -> Printf.sprintf "stream=t%d" (strand ()));
      (fun () -> "pragmas");
    |]
  in
  let big_pool =
    [|
      (fun () -> "partition=cyclic:2");
      (fun () -> Printf.sprintf "partition=cyclic:tb:%d" (1 lsl (1 + Rng.int rng 3)));
      (fun () -> "stream=tb");
      (fun () -> "unroll=ib:4");
    |]
  in
  let n_items = Rng.int rng 3 in
  let items =
    List.init n_items (fun _ ->
      if sc_big && Rng.int rng 3 = 0 then
        big_pool.(Rng.int rng (Array.length big_pool)) ()
      else pool.(Rng.int rng (Array.length pool)) ())
  in
  {
    sc_seed;
    sc_strands;
    sc_trips;
    sc_big;
    sc_plan = String.concat ";" (List.sort_uniq compare items);
  }

let generate kind rng =
  match kind with
  | Kpipe -> Pipe (gen_pipe rng)
  | Knet -> Net (gen_net rng)
  | Kkern -> Kern (gen_kern rng)
  | Ksrc -> Src (gen_src rng)

(* ---------------- serialization ---------------- *)

let gate_to_string = function
  | Empty -> "empty"
  | Credit -> "credit"

let to_json = function
  | Pipe c ->
    Json.Obj
      [
        ("kind", Json.Str "pipe");
        ("stages", Json.Int c.pc_stages);
        ("ctrl_delay", Json.Int c.pc_ctrl_delay);
        ("gate", Json.Str (gate_to_string c.pc_gate));
        ("n", Json.Int c.pc_n);
        ("slack", Json.Int c.pc_slack);
        ("ready_seed", Json.Int c.pc_ready_seed);
        ("ready_duty", Json.Int c.pc_ready_duty);
      ]
  | Net c ->
    Json.Obj
      [
        ("kind", Json.Str "net");
        ("chains", Json.List (List.map (fun l -> Json.Int l) c.nc_chains));
        ("depth_seed", Json.Int c.nc_depth_seed);
        ( "groups",
          Json.List
            (List.map
               (fun (pos, members) ->
                 Json.Obj
                   [
                     ("pos", Json.Int pos);
                     ( "chains",
                       Json.List (List.map (fun m -> Json.Int m) members) );
                   ])
               c.nc_groups) );
        ("tokens", Json.Int c.nc_tokens);
        ("ready_seed", Json.Int c.nc_ready_seed);
        ("ready_duty", Json.Int c.nc_ready_duty);
      ]
  | Kern c ->
    Json.Obj
      (List.concat
         [
           [
             ("kind", Json.Str "kern");
             ("seed", Json.Int c.kc_seed);
             ("ops", Json.Int c.kc_ops);
             ("width", Json.Int c.kc_width);
             ("recipe", Json.Int c.kc_recipe);
           ];
           (* legacy reproducer files predate the shape field; omit the
              default so they stay byte-stable under a round-trip *)
           (match c.kc_shape with
           | Sdag -> []
           | Swide -> [ ("shape", Json.Str "wide") ]);
         ])
  | Src c ->
    Json.Obj
      [
        ("kind", Json.Str "src");
        ("seed", Json.Int c.sc_seed);
        ("strands", Json.Int c.sc_strands);
        ("trips", Json.Int c.sc_trips);
        ("big", Json.Bool c.sc_big);
        ("plan", Json.Str c.sc_plan);
      ]

let ( let* ) r f =
  match r with
  | Ok v -> f v
  | Error _ as e -> e

let of_json j =
  let* () =
    match j with
    | Json.Obj _ -> Ok ()
    | _ -> Error "case is not a JSON object"
  in
  let case =
    match Json.member "kind" j with
    | Some (Json.Str "pipe") ->
      let* pc_stages = Json.int_field "stages" j in
      let* pc_ctrl_delay = Json.int_field "ctrl_delay" j in
      let* pc_gate =
        match Json.member "gate" j with
        | Some (Json.Str "empty") -> Ok Empty
        | Some (Json.Str "credit") -> Ok Credit
        | _ -> Error "bad gate"
      in
      let* pc_n = Json.int_field "n" j in
      let* pc_slack = Json.int_field "slack" j in
      let* pc_ready_seed = Json.int_field "ready_seed" j in
      let* pc_ready_duty = Json.int_field "ready_duty" j in
      Ok
        (Pipe
           {
             pc_stages;
             pc_ctrl_delay;
             pc_gate;
             pc_n;
             pc_slack;
             pc_ready_seed;
             pc_ready_duty;
           })
    | Some (Json.Str "net") ->
      let* nc_chains =
        match Json.member "chains" j with
        | Some (Json.List l) ->
          List.fold_right
            (fun x acc ->
              let* acc = acc in
              match x with
              | Json.Int i -> Ok (i :: acc)
              | _ -> Error "bad chain length")
            l (Ok [])
        | _ -> Error "missing chains"
      in
      let* nc_depth_seed = Json.int_field "depth_seed" j in
      let* nc_groups =
        match Json.member "groups" j with
        | Some (Json.List l) ->
          List.fold_right
            (fun g acc ->
              let* acc = acc in
              let* pos = Json.int_field "pos" g in
              let* members =
                match Json.member "chains" g with
                | Some (Json.List ms) ->
                  List.fold_right
                    (fun x macc ->
                      let* macc = macc in
                      match x with
                      | Json.Int i -> Ok (i :: macc)
                      | _ -> Error "bad group member")
                    ms (Ok [])
                | _ -> Error "missing group chains"
              in
              Ok ((pos, members) :: acc))
            l (Ok [])
        | _ -> Error "missing groups"
      in
      let* nc_tokens = Json.int_field "tokens" j in
      let* nc_ready_seed = Json.int_field "ready_seed" j in
      let* nc_ready_duty = Json.int_field "ready_duty" j in
      Ok
        (Net
           {
             nc_chains;
             nc_depth_seed;
             nc_groups;
             nc_tokens;
             nc_ready_seed;
             nc_ready_duty;
           })
    | Some (Json.Str "kern") ->
      let* kc_seed = Json.int_field "seed" j in
      let* kc_ops = Json.int_field "ops" j in
      let* kc_width = Json.int_field "width" j in
      let* kc_recipe = Json.int_field "recipe" j in
      let* kc_shape =
        match Json.member "shape" j with
        | None -> Ok Sdag
        | Some (Json.Str "dag") -> Ok Sdag
        | Some (Json.Str "wide") -> Ok Swide
        | Some _ -> Error "bad kern shape"
      in
      Ok (Kern { kc_seed; kc_ops; kc_width; kc_recipe; kc_shape })
    | Some (Json.Str "src") ->
      let* sc_seed = Json.int_field "seed" j in
      let* sc_strands = Json.int_field "strands" j in
      let* sc_trips = Json.int_field "trips" j in
      let* sc_big = Json.opt_field Json.bool_field "big" j in
      let sc_big = Option.value ~default:false sc_big in
      let* sc_plan = Json.str_field "plan" j in
      Ok (Src { sc_seed; sc_strands; sc_trips; sc_big; sc_plan })
    | _ -> Error "unknown or missing case kind"
  in
  let* case = case in
  if valid case then Ok case else Error "case fails the well-formedness check"

let to_string = function
  | Pipe c ->
    Printf.sprintf
      "pipe{stages=%d ctrl_delay=%d gate=%s n=%d slack=%d seed=%d duty=%d/4}"
      c.pc_stages c.pc_ctrl_delay (gate_to_string c.pc_gate) c.pc_n c.pc_slack
      c.pc_ready_seed c.pc_ready_duty
  | Net c ->
    Printf.sprintf "net{chains=[%s] groups=[%s] tokens=%d seed=%d duty=%d/4}"
      (String.concat ";" (List.map string_of_int c.nc_chains))
      (String.concat ";"
         (List.map
            (fun (pos, ms) ->
              Printf.sprintf "@%d:{%s}" pos
                (String.concat "," (List.map string_of_int ms)))
            c.nc_groups))
      c.nc_tokens c.nc_ready_seed c.nc_ready_duty
  | Kern c ->
    Printf.sprintf "kern{seed=%d ops=%d width=%d recipe=%s%s}" c.kc_seed
      c.kc_ops c.kc_width
      (Hlsb_ctrl.Style.label recipes.(c.kc_recipe))
      (match c.kc_shape with
      | Sdag -> ""
      | Swide -> " shape=wide")
  | Src c ->
    Printf.sprintf "src{seed=%d strands=%d trips=%d%s plan=%S}" c.sc_seed
      c.sc_strands c.sc_trips
      (if c.sc_big then " big" else "")
      c.sc_plan
