type value = Json.t

type span = {
  sp_id : int;
  sp_name : string;
  sp_attrs : (string * value) list;
  sp_parent : int;
  sp_depth : int;
  sp_tid : int;
  sp_start_ns : int64;
  sp_stop_ns : int64;
}

(* Open spans live on a per-domain stack; closing moves them to the
   shard's done list. *)
type open_span = {
  os_id : int;
  os_name : string;
  os_attrs : (string * value) list;
  os_parent : int;
  os_depth : int;
  os_start_ns : int64;
}

(* Each domain records into a private shard, exactly like [Metrics]:
   span recording in a pool worker touches only that worker's stack, so
   parallel characterization never races on the collector, and each
   shard becomes its own Perfetto track ([sp_tid]). Parentage is
   per-domain: a span opened on a worker is a root of that worker's
   track, not a child of whatever the main domain had open. *)
type shard = {
  sh_tid : int;
  mutable sh_stack : open_span list;
  mutable sh_done : span list;  (* reversed *)
}

type t = {
  tr_next : int Atomic.t;  (* span ids unique across domains *)
  tr_lock : Mutex.t;
  (* (domain id, shard), shard-creation order; guarded by [tr_lock]. *)
  mutable tr_shards : (int * shard) list;
  tr_owner : int;  (* domain that created the collector *)
}

let create () =
  {
    tr_next = Atomic.make 0;
    tr_lock = Mutex.create ();
    tr_shards = [];
    tr_owner = (Domain.self () :> int);
  }

let locked t f =
  Mutex.lock t.tr_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.tr_lock) f

(* Process-global, like [Metrics.current]: pool worker domains must see
   the collector the main domain installed or every span recorded inside
   a parallel region is silently dropped (parallel characterization was
   invisible in traces in exactly that way before). Reads happen at
   quiescent points — every [Pool.map] joins its workers — so merged
   reads are safe. *)
let current : t option Atomic.t = Atomic.make None

let install t = Atomic.set current (Some t)
let uninstall () = Atomic.set current None
let installed () = Atomic.get current
let enabled () = Atomic.get current <> None

let with_collector t f =
  let prev = Atomic.get current in
  Atomic.set current (Some t);
  Fun.protect ~finally:(fun () -> Atomic.set current prev) f

(* Fast path: one DLS read and a physical-equality check (same shape as
   [Metrics.get_shard]). *)
let shard_cache : (t * shard) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let get_shard t =
  match Domain.DLS.get shard_cache with
  | Some (t', s) when t' == t -> s
  | _ ->
    let id = (Domain.self () :> int) in
    let s =
      locked t (fun () ->
        match List.assoc_opt id t.tr_shards with
        | Some s -> s
        | None ->
          let s = { sh_tid = id; sh_stack = []; sh_done = [] } in
          t.tr_shards <- t.tr_shards @ [ (id, s) ];
          s)
    in
    Domain.DLS.set shard_cache (Some (t, s));
    s

let with_span ?attrs name f =
  match Atomic.get current with
  | None -> f ()
  | Some t ->
    let sh = get_shard t in
    let parent, depth =
      match sh.sh_stack with
      | [] -> (-1, 0)
      | p :: _ -> (p.os_id, p.os_depth + 1)
    in
    let os =
      {
        os_id = Atomic.fetch_and_add t.tr_next 1;
        os_name = name;
        os_attrs = (match attrs with Some a -> a | None -> []);
        os_parent = parent;
        os_depth = depth;
        os_start_ns = Clock.now_ns ();
      }
    in
    sh.sh_stack <- os :: sh.sh_stack;
    let close () =
      let stop = Clock.now_ns () in
      (match sh.sh_stack with
      | top :: rest when top.os_id = os.os_id -> sh.sh_stack <- rest
      | _ ->
        (* A nested span leaked past its parent (should be impossible
           with [with_span]); drop everything above us. *)
        let rec unwind = function
          | top :: rest when top.os_id <> os.os_id -> unwind rest
          | top :: rest when top.os_id = os.os_id -> rest
          | l -> l
        in
        sh.sh_stack <- unwind sh.sh_stack);
      sh.sh_done <-
        {
          sp_id = os.os_id;
          sp_name = os.os_name;
          sp_attrs = os.os_attrs;
          sp_parent = os.os_parent;
          sp_depth = os.os_depth;
          sp_tid = sh.sh_tid;
          sp_start_ns = os.os_start_ns;
          sp_stop_ns = stop;
        }
        :: sh.sh_done
    in
    Fun.protect ~finally:close f

let current_span_id () =
  match Atomic.get current with
  | None -> None
  | Some t -> (
    (* Peek only: a domain with an open span necessarily has its shard
       cached; do not create one just to answer "no span open". *)
    match Domain.DLS.get shard_cache with
    | Some (t', s) when t' == t -> (
      match s.sh_stack with [] -> None | os :: _ -> Some os.os_id)
    | _ -> None)

let all_done t =
  locked t (fun () ->
    List.concat_map (fun (_, sh) -> sh.sh_done) t.tr_shards)

let spans t =
  List.sort
    (fun a b -> compare (a.sp_start_ns, a.sp_id) (b.sp_start_ns, b.sp_id))
    (all_done t)

let duration_ns s = Int64.sub s.sp_stop_ns s.sp_start_ns
let duration_ms s = Clock.ns_to_ms (duration_ns s)

let epoch t =
  List.fold_left
    (fun acc s -> if s.sp_start_ns < acc then s.sp_start_ns else acc)
    Int64.max_int (all_done t)

let to_chrome_json ?(process_name = "hlsb") t =
  let ss = spans t in
  let t0 = epoch t in
  let rel ns = Clock.ns_to_us (Int64.sub ns t0) in
  let meta_process =
    Json.Obj
      [
        ("name", Json.Str "process_name");
        ("ph", Json.Str "M");
        ("pid", Json.Int 1);
        ("tid", Json.Int t.tr_owner);
        ("args", Json.Obj [ ("name", Json.Str process_name) ]);
      ]
  in
  (* One thread_name record per domain that recorded spans, so parallel
     characterization renders as parallel named tracks in Perfetto. *)
  let tids =
    List.sort_uniq compare (List.map (fun s -> s.sp_tid) ss)
  in
  let meta_threads =
    List.map
      (fun tid ->
        let name =
          if tid = t.tr_owner then "main" else Printf.sprintf "domain %d" tid
        in
        Json.Obj
          [
            ("name", Json.Str "thread_name");
            ("ph", Json.Str "M");
            ("pid", Json.Int 1);
            ("tid", Json.Int tid);
            ("args", Json.Obj [ ("name", Json.Str name) ]);
          ])
      tids
  in
  let events =
    List.map
      (fun s ->
        Json.Obj
          [
            ("name", Json.Str s.sp_name);
            ("cat", Json.Str "hlsb");
            ("ph", Json.Str "X");
            ("ts", Json.Float (rel s.sp_start_ns));
            ("dur", Json.Float (Clock.ns_to_us (duration_ns s)));
            ("pid", Json.Int 1);
            ("tid", Json.Int s.sp_tid);
            ("args", Json.Obj s.sp_attrs);
          ])
      ss
  in
  Json.Obj
    [
      ("traceEvents", Json.List ((meta_process :: meta_threads) @ events));
      ("displayTimeUnit", Json.Str "ms");
    ]

let render t =
  let buf = Buffer.create 256 in
  let owner_only = List.for_all (fun s -> s.sp_tid = t.tr_owner) (spans t) in
  List.iter
    (fun s ->
      let attrs =
        match s.sp_attrs with
        | [] -> ""
        | a ->
          "  ["
          ^ String.concat ", "
              (List.map (fun (k, v) -> k ^ "=" ^ Json.to_string v) a)
          ^ "]"
      in
      let tid =
        if owner_only || s.sp_tid = t.tr_owner then ""
        else Printf.sprintf " @d%d" s.sp_tid
      in
      Buffer.add_string buf
        (Printf.sprintf "%s%-*s %9.2f ms%s%s\n"
           (String.make (2 * s.sp_depth) ' ')
           (32 - (2 * s.sp_depth))
           s.sp_name (duration_ms s) attrs tid))
    (spans t);
  Buffer.contents buf
