(* Every histogram buckets on [default_buckets]. *)
type hist = {
  h_counts : int array;  (* length = buckets + 1, last is overflow *)
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

(* Each domain records into a private shard, so instrumentation in hot
   loops never takes a lock and never contends with other domains; shards
   are merged only when someone reads the registry (snapshot /
   counter_value / gauge_value).  With a single domain there is exactly one
   shard and behavior is identical to a plain table. *)
type shard = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
}

type t = {
  sh_lock : Mutex.t;
  (* (domain id, shard), in shard-creation order; guarded by [sh_lock].
     The list stays tiny (one entry per domain that ever recorded). *)
  mutable shards : (int * shard) list;
}

let new_shard () =
  {
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    hists = Hashtbl.create 16;
  }

let create () = { sh_lock = Mutex.create (); shards = [] }

let locked t f =
  Mutex.lock t.sh_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.sh_lock) f

(* Process-global, unlike [Trace.current]: pool worker domains must see the
   registry the main domain installed, or every observation made inside a
   parallel region is silently dropped (cache-hit counts looked wrong in
   exactly that way before). Reads are merged, so cross-domain visibility
   is safe. *)
let current : t option Atomic.t = Atomic.make None

let install t = Atomic.set current (Some t)
let uninstall () = Atomic.set current None
let installed () = Atomic.get current
let enabled () = Atomic.get current <> None

let with_registry t f =
  let prev = Atomic.get current in
  Atomic.set current (Some t);
  Fun.protect ~finally:(fun () -> Atomic.set current prev) f

(* Fast path: one DLS read and a physical-equality check. The slow path
   (first observation by this domain into this registry) registers a shard
   under the lock. *)
let shard_cache : (t * shard) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let get_shard t =
  match Domain.DLS.get shard_cache with
  | Some (t', s) when t' == t -> s
  | _ ->
    let id = (Domain.self () :> int) in
    let s =
      locked t (fun () ->
        match List.assoc_opt id t.shards with
        | Some s -> s
        | None ->
          let s = new_shard () in
          t.shards <- t.shards @ [ (id, s) ];
          s)
    in
    Domain.DLS.set shard_cache (Some (t, s));
    s

let default_buckets =
  [| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512.; 1024. |]

let incr ?(by = 1) name =
  match Atomic.get current with
  | None -> ()
  | Some t -> (
    let sh = get_shard t in
    match Hashtbl.find_opt sh.counters name with
    | Some r -> r := !r + by
    | None -> Hashtbl.add sh.counters name (ref by))

let set_gauge name v =
  match Atomic.get current with
  | None -> ()
  | Some t -> (
    let sh = get_shard t in
    match Hashtbl.find_opt sh.gauges name with
    | Some r -> r := v
    | None -> Hashtbl.add sh.gauges name (ref v))

let set_gauge_int name v = set_gauge name (float_of_int v)

(* Index of the first bucket bound >= v, or [length] for the overflow
   bucket. *)
let find_bucket v =
  let n = Array.length default_buckets in
  let rec go i =
    if i >= n then n else if v <= default_buckets.(i) then i else go (i + 1)
  in
  go 0

let hist_observe h ~times v =
  let i = find_bucket v in
  h.h_counts.(i) <- h.h_counts.(i) + times;
  h.h_count <- h.h_count + times;
  h.h_sum <- h.h_sum +. (v *. float_of_int times);
  if h.h_count = times then begin
    h.h_min <- v;
    h.h_max <- v
  end
  else begin
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v
  end

let observe ?(times = 1) name v =
  if times < 1 then invalid_arg "Metrics.observe: times < 1";
  match Atomic.get current with
  | None -> ()
  | Some t -> (
    let sh = get_shard t in
    match Hashtbl.find_opt sh.hists name with
    | Some h -> hist_observe h ~times v
    | None ->
      let h =
        {
          h_counts = Array.make (Array.length default_buckets + 1) 0;
          h_count = 0;
          h_sum = 0.;
          h_min = nan;
          h_max = nan;
        }
      in
      hist_observe h ~times v;
      Hashtbl.add sh.hists name h)

let observe_int ?times name v =
  match Atomic.get current with
  | None -> ()  (* short-circuit before any float boxing *)
  | Some _ -> observe ?times name (float_of_int v)

(* ---- merged reads ----

   Counters sum across shards. A gauge present in several shards keeps the
   value from the earliest-created shard holding it (the main domain
   installs and records first, so sequential behavior is unchanged; gauges
   set inside parallel regions are last-writer-wins anyway). Every
   histogram has the default buckets, so shards merge counts, sums and
   extrema bucket by bucket. Reads merge under the shard lock, and every
   [Pool.map] joins its workers before returning, so a quiescent-point read
   sees every observation. *)

type hist_snap = {
  hs_buckets : float array;
  hs_counts : int array;
  hs_count : int;
  hs_sum : float;
  hs_min : float;
  hs_max : float;
}

let snap_of_hist h =
  {
    hs_buckets = Array.copy default_buckets;
    hs_counts = Array.copy h.h_counts;
    hs_count = h.h_count;
    hs_sum = h.h_sum;
    hs_min = h.h_min;
    hs_max = h.h_max;
  }

let merge_hist a b =
  let nan_min x y = if Float.is_nan x then y else if Float.is_nan y then x else Float.min x y in
  let nan_max x y = if Float.is_nan x then y else if Float.is_nan y then x else Float.max x y in
  {
    hs_buckets = a.hs_buckets;
    hs_counts = Array.mapi (fun i c -> c + b.hs_counts.(i)) a.hs_counts;
    hs_count = a.hs_count + b.hs_count;
    hs_sum = a.hs_sum +. b.hs_sum;
    hs_min = nan_min a.hs_min b.hs_min;
    hs_max = nan_max a.hs_max b.hs_max;
  }

(* Call with [t.sh_lock] held. *)
let merged t =
  let counters = Hashtbl.create 16 in
  let gauges = Hashtbl.create 16 in
  let hists = Hashtbl.create 16 in
  List.iter
    (fun (_, sh) ->
      Hashtbl.iter
        (fun k r ->
          match Hashtbl.find_opt counters k with
          | Some tot -> Hashtbl.replace counters k (tot + !r)
          | None -> Hashtbl.add counters k !r)
        sh.counters;
      Hashtbl.iter
        (fun k r ->
          if not (Hashtbl.mem gauges k) then Hashtbl.add gauges k !r)
        sh.gauges;
      Hashtbl.iter
        (fun k h ->
          match Hashtbl.find_opt hists k with
          | Some acc -> Hashtbl.replace hists k (merge_hist acc (snap_of_hist h))
          | None -> Hashtbl.add hists k (snap_of_hist h))
        sh.hists)
    t.shards;
  (counters, gauges, hists)

let counter_value t name =
  locked t (fun () ->
    List.fold_left
      (fun acc (_, sh) ->
        match Hashtbl.find_opt sh.counters name with
        | Some r -> acc + !r
        | None -> acc)
      0 t.shards)

let gauge_value t name =
  locked t (fun () ->
    List.fold_left
      (fun acc (_, sh) ->
        match acc with
        | Some _ -> acc
        | None -> Option.map ( ! ) (Hashtbl.find_opt sh.gauges name))
      None t.shards)

type snapshot = {
  sn_counters : (string * int) list;
  sn_gauges : (string * float) list;
  sn_hists : (string * hist_snap) list;
}

let sorted_bindings tbl f =
  Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let snapshot t =
  let counters, gauges, hists = locked t (fun () -> merged t) in
  {
    sn_counters = sorted_bindings counters Fun.id;
    sn_gauges = sorted_bindings gauges Fun.id;
    sn_hists = sorted_bindings hists Fun.id;
  }

let hist_mean h = if h.hs_count = 0 then nan else h.hs_sum /. float_of_int h.hs_count

(* Quantile estimation from bucket counts: find the bucket holding the
   target rank, then interpolate linearly inside it. Bucket edges are
   clamped by the observed extrema, so a histogram whose samples all sit
   in one bucket still reports quantiles inside [min, max], and the
   overflow bucket (no upper bound) uses [hs_max] as its upper edge. *)
let quantile h p =
  if h.hs_count = 0 || Float.is_nan p then nan
  else if p <= 0. then h.hs_min
  else if p >= 1. then h.hs_max
  else begin
    let n = Array.length h.hs_buckets in
    let target = p *. float_of_int h.hs_count in
    let rec go i cum =
      if i > n then h.hs_max
      else
        let c = h.hs_counts.(i) in
        let cum' = cum + c in
        if c > 0 && float_of_int cum' >= target then begin
          let lo =
            let edge = if i = 0 then neg_infinity else h.hs_buckets.(i - 1) in
            Float.max edge h.hs_min
          in
          let hi =
            let edge = if i = n then infinity else h.hs_buckets.(i) in
            Float.min edge h.hs_max
          in
          let frac = (target -. float_of_int cum) /. float_of_int c in
          lo +. (frac *. (hi -. lo))
        end
        else go (i + 1) cum'
    in
    go 0 0
  end

let hist_to_json (h : hist_snap) =
  Json.Obj
    [
      ("buckets", Json.List (Array.to_list h.hs_buckets |> List.map (fun b -> Json.Float b)));
      ("counts", Json.List (Array.to_list h.hs_counts |> List.map (fun c -> Json.Int c)));
      ("count", Json.Int h.hs_count);
      ("sum", Json.Float h.hs_sum);
      ("min", Json.Float h.hs_min);
      ("max", Json.Float h.hs_max);
      ("mean", Json.Float (hist_mean h));
    ]

let to_json s =
  Json.Obj
    [
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) s.sn_counters) );
      ( "gauges",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) s.sn_gauges) );
      ("histograms", Json.Obj (List.map (fun (k, h) -> (k, hist_to_json h)) s.sn_hists));
    ]

(* The inverse of [to_json], tolerant of what it cannot use: a malformed
   entry is dropped, and a histogram's missing or [null] sum, min or max
   (the encoder writes nan as [null]) reads back as nan. *)
let of_json j =
  let fields key =
    match Json.member key j with Some (Json.Obj fs) -> fs | _ -> []
  in
  let hist h =
    match (Json.member "buckets" h, Json.member "counts" h) with
    | Some (Json.List bs), Some (Json.List cs) ->
      let buckets = Array.of_list (List.filter_map Json.to_float bs) in
      let counts =
        Array.of_list
          (List.filter_map (function Json.Int i -> Some i | _ -> None) cs)
      in
      let float key = Result.value ~default:nan (Json.float_field key h) in
      if Array.length counts = Array.length buckets + 1 then
        Some
          {
            hs_buckets = buckets;
            hs_counts = counts;
            hs_count =
              Result.value
                ~default:(Array.fold_left ( + ) 0 counts)
                (Json.int_field "count" h);
            hs_sum = float "sum";
            hs_min = float "min";
            hs_max = float "max";
          }
      else None
    | _ -> None
  in
  {
    sn_counters =
      List.filter_map
        (fun (k, v) -> match v with Json.Int i -> Some (k, i) | _ -> None)
        (fields "counters");
    sn_gauges =
      List.filter_map
        (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.to_float v))
        (fields "gauges");
    sn_hists =
      List.filter_map
        (fun (k, h) -> Option.map (fun h -> (k, h)) (hist h))
        (fields "histograms");
  }

let render s =
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string buf (l ^ "\n")) fmt in
  if s.sn_counters <> [] then begin
    line "counters:";
    List.iter (fun (k, v) -> line "  %-32s %12d" k v) s.sn_counters
  end;
  if s.sn_gauges <> [] then begin
    line "gauges:";
    List.iter (fun (k, v) -> line "  %-32s %12.3f" k v) s.sn_gauges
  end;
  if s.sn_hists <> [] then begin
    line "histograms:";
    List.iter
      (fun (k, h) ->
        line "  %-32s n=%d mean=%.2f min=%.0f max=%.0f" k h.hs_count
          (hist_mean h) h.hs_min h.hs_max;
        let n = Array.length h.hs_buckets in
        for i = 0 to n do
          if h.hs_counts.(i) > 0 then
            let label =
              if i = n then Printf.sprintf ">%g" h.hs_buckets.(n - 1)
              else Printf.sprintf "<=%g" h.hs_buckets.(i)
            in
            line "    %-10s %8d" label h.hs_counts.(i)
        done)
      s.sn_hists
  end;
  Buffer.contents buf
