module Pipeline = Core.Pipeline
module Style = Hlsb_ctrl.Style
module Schedule = Hlsb_sched.Schedule
module Plan = Hlsb_transform.Plan
module Diag = Hlsb_util.Diag
module Atomic_file = Hlsb_util.Atomic_file
module Table = Hlsb_util.Table
module Metrics = Hlsb_telemetry.Metrics
module Clock = Hlsb_telemetry.Clock
module Ledger = Hlsb_obs.Ledger
module Json = Hlsb_telemetry.Json

(* ---------------- configurations ---------------- *)

type config = {
  cf_recipe : Style.recipe;
  cf_plan : Plan.t;
  cf_inject : Schedule.inject option;
}

let config_label cf =
  Style.to_string cf.cf_recipe
  ^ (match Plan.to_string cf.cf_plan with
    | "" -> ""
    | p -> "+plan[" ^ p ^ "]")
  ^
  match cf.cf_inject with
  | None -> ""
  | Some { Schedule.inj_top; inj_levels } ->
    Printf.sprintf "+inj%dx%d" inj_top inj_levels

(* Injection sweep over the worst broadcast chains: how many values get
   forced stages x how many levels each. Small corner first — one extra
   level on the single widest value is the cheapest plausible win. *)
let injections =
  [
    { Schedule.inj_top = 1; inj_levels = 1 };
    { Schedule.inj_top = 2; inj_levels = 1 };
    { Schedule.inj_top = 1; inj_levels = 2 };
    { Schedule.inj_top = 4; inj_levels = 1 };
    { Schedule.inj_top = 2; inj_levels = 2 };
    { Schedule.inj_top = 4; inj_levels = 2 };
  ]

let space ~plans =
  let plans = List.filter (fun p -> not (Plan.is_identity p)) plans in
  let base =
    { cf_recipe = Style.optimized; cf_plan = Plan.identity; cf_inject = None }
  in
  (base :: List.map (fun p -> { base with cf_plan = p }) plans)
  @ List.map (fun i -> { base with cf_inject = Some i }) injections
  @ [
      { base with cf_recipe = Style.sched_only };
      { base with cf_recipe = Style.ctrl_only };
      { base with cf_recipe = Style.original };
    ]
  @ List.concat_map
      (fun p ->
        List.map
          (fun i -> { base with cf_plan = p; cf_inject = Some i })
          injections)
      plans

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: tl -> x :: take (n - 1) tl

(* ---------------- Pareto front ---------------- *)

module Front = struct
  type point = {
    pt_label : string;
    pt_fmax : float;
    pt_area : float;
    pt_cost : int;
  }

  let dominates a b =
    a.pt_fmax >= b.pt_fmax && a.pt_area <= b.pt_area && a.pt_cost <= b.pt_cost
    && (a.pt_fmax > b.pt_fmax || a.pt_area < b.pt_area || a.pt_cost < b.pt_cost)

  let front pts =
    List.filter (fun p -> not (List.exists (fun q -> dominates q p) pts)) pts

  let better p best =
    if p.pt_fmax <> best.pt_fmax then p.pt_fmax > best.pt_fmax
    else if p.pt_area <> best.pt_area then p.pt_area < best.pt_area
    else if p.pt_cost <> best.pt_cost then p.pt_cost < best.pt_cost
    else p.pt_label < best.pt_label

  let winner pts =
    match front pts with
    | [] -> None
    | p0 :: rest ->
      Some
        (List.fold_left
           (fun best p -> if better p best then p else best)
           p0 rest)
end

(* ---------------- results ---------------- *)

type config_result = {
  cr_config : config;
  cr_label : string;
  cr_fmax : float;
  cr_area : float;
  cr_probes : int;
  cr_ms : float;
  cr_outcome : Search.outcome;
  cr_result : Pipeline.result;
}

type report = {
  ep_design : string;
  ep_static : Pipeline.result;
  ep_configs : config_result list;
  ep_front : config_result list;
  ep_winner : config_result;
  ep_stage_runs : (string * int) list;
  ep_probes : int;
  ep_hit_rate : float;
  ep_stage : Ledger.stage;
}

let slug name =
  String.map
    (fun c ->
      match c with
      | 'A' .. 'Z' -> Char.lowercase_ascii c
      | 'a' .. 'z' | '0' .. '9' | '.' -> c
      | _ -> '-')
    name

(* Per-design gauges plus global counters: the quantities the run ledger
   and the bench "explore" section carry. *)
let record_metrics rp =
  if Metrics.enabled () then begin
    let g k v = Metrics.set_gauge ("explore." ^ slug rp.ep_design ^ "." ^ k) v in
    let gi k v =
      Metrics.set_gauge_int ("explore." ^ slug rp.ep_design ^ "." ^ k) v
    in
    gi "configs" (List.length rp.ep_configs);
    gi "probes" rp.ep_probes;
    g "best_mhz" rp.ep_winner.cr_fmax;
    g "static_mhz" rp.ep_static.Pipeline.fr_fmax_mhz;
    g "search_ms" rp.ep_stage.Ledger.st_ms;
    g "cache_hit_rate" rp.ep_hit_rate;
    gi "elaborate_runs"
      (Option.value ~default:0 (List.assoc_opt "elaborate" rp.ep_stage_runs));
    Metrics.incr ~by:(List.length rp.ep_configs) "explore.configs";
    Metrics.incr ~by:rp.ep_probes "explore.probes"
  end

let run_design ?(budget = 8) ?(t0 = 300.) ?(tol = 0.02) ?(max_probes = 5)
    ?(plans = []) session ~name =
  let ms_since t = Clock.ns_to_ms (Int64.sub (Clock.now_ns ()) t) in
  let configs = take budget (space ~plans) in
  let probes_total = ref 0 in
  let searched, stage =
    Ledger.measure name (fun () ->
      (* The untuned static compile: the bar the search must clear (and
         does, by construction: the first configuration's first probe at
         the default t0 reproduces this exact schedule). *)
      let static = Pipeline.run_exn session ~recipe:Style.optimized in
      let results =
        List.filter_map
          (fun cf ->
            let c0 = Clock.now_ns () in
            let seen = Hashtbl.create 8 in
            let oracle target =
              let r =
                Pipeline.run_exn ~plan:cf.cf_plan ~target_mhz:target
                  ?inject:cf.cf_inject session ~recipe:cf.cf_recipe
              in
              Hashtbl.replace seen target r;
              r.Pipeline.fr_fmax_mhz
            in
            match Search.run ~t0 ~tol ~max_probes oracle with
            | o ->
              let best = Hashtbl.find seen o.Search.o_best_target in
              let probes = List.length o.Search.o_probes in
              probes_total := !probes_total + probes;
              Some
                {
                  cr_config = cf;
                  cr_label = config_label cf;
                  cr_fmax = o.Search.o_best_achieved;
                  cr_area =
                    best.Pipeline.fr_lut_pct +. best.Pipeline.fr_ff_pct;
                  cr_probes = probes;
                  cr_ms = ms_since c0;
                  cr_outcome = o;
                  cr_result = best;
                }
            | exception Diag.Diagnostic _ ->
              (* an unbuildable configuration is pruned, not fatal *)
              None)
          configs
      in
      (static, results))
  in
  let static, results = match searched with Ok v -> v | Error e -> raise e in
  if results = [] then
    raise
      (Diag.Diagnostic
         (Diag.error ~stage:"explore"
            (Printf.sprintf "no configuration of %s compiled" name)));
  let to_point r =
    {
      Front.pt_label = r.cr_label;
      pt_fmax = r.cr_fmax;
      pt_area = r.cr_area;
      pt_cost = r.cr_probes;
    }
  in
  let pts = List.map to_point results in
  let front_labels =
    List.map (fun p -> p.Front.pt_label) (Front.front pts)
  in
  let winner_label =
    match Front.winner pts with
    | Some w -> w.Front.pt_label
    | None -> assert false
  in
  let stage_runs = Pipeline.stage_runs session in
  let ran = List.fold_left (fun acc (_, c) -> acc + c) 0 stage_runs in
  (* Work a cold run would do: the static compile plus every probe, each
     paying the seven datapath stages (elaborate..report). *)
  let cold = (!probes_total + 1) * 7 in
  let rp =
    {
      ep_design = name;
      ep_static = static;
      ep_configs = results;
      ep_front =
        List.filter (fun r -> List.mem r.cr_label front_labels) results;
      ep_winner = List.find (fun r -> r.cr_label = winner_label) results;
      ep_stage_runs = stage_runs;
      ep_probes = !probes_total;
      ep_hit_rate =
        (if cold = 0 then 0. else Float.max 0. (1. -. (float_of_int ran /. float_of_int cold)));
      ep_stage = stage;
    }
  in
  record_metrics rp;
  rp

(* ---------------- rendering ---------------- *)

let summary rp =
  let buf = Buffer.create 1024 in
  let static = rp.ep_static.Pipeline.fr_fmax_mhz in
  let w = rp.ep_winner in
  Buffer.add_string buf
    (Printf.sprintf
       "%s: best %.1f MHz [%s] vs static optimized %.1f MHz (%+.1f%%)\n"
       rp.ep_design w.cr_fmax w.cr_label static
       (100. *. (w.cr_fmax -. static) /. static));
  Buffer.add_string buf
    (Printf.sprintf
       "  %d config(s), %d probe(s), %.0f ms; cache hit rate %.0f%%, stage \
        runs: %s\n"
       (List.length rp.ep_configs)
       rp.ep_probes rp.ep_stage.Ledger.st_ms
       (100. *. rp.ep_hit_rate)
       (String.concat ", "
          (List.map
             (fun (s, c) -> Printf.sprintf "%s=%d" s c)
             rp.ep_stage_runs)));
  Buffer.add_string buf "  pareto front (fmax MHz / area % / probes):\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "    %-36s %7.1f %6.1f %3d%s\n" r.cr_label r.cr_fmax
           r.cr_area r.cr_probes
           (if r.cr_label = w.cr_label then "  <- winner" else "")))
    rp.ep_front;
  Buffer.contents buf

let table reports =
  let tbl =
    Table.create
      ~headers:
        [
          ("design", Table.Left);
          ("static", Table.Right);
          ("best", Table.Right);
          ("gain", Table.Right);
          ("winner", Table.Left);
          ("cfgs", Table.Right);
          ("probes", Table.Right);
          ("ms", Table.Right);
          ("elab", Table.Right);
          ("hit%", Table.Right);
        ]
  in
  List.iter
    (fun rp ->
      let static = rp.ep_static.Pipeline.fr_fmax_mhz in
      let w = rp.ep_winner in
      Table.add_row tbl
        [
          rp.ep_design;
          Printf.sprintf "%.1f" static;
          Printf.sprintf "%.1f" w.cr_fmax;
          Printf.sprintf "%+.1f%%" (100. *. (w.cr_fmax -. static) /. static);
          w.cr_label;
          string_of_int (List.length rp.ep_configs);
          string_of_int rp.ep_probes;
          Printf.sprintf "%.0f" rp.ep_stage.Ledger.st_ms;
          string_of_int
            (Option.value ~default:0
               (List.assoc_opt "elaborate" rp.ep_stage_runs));
          Printf.sprintf "%.0f" (100. *. rp.ep_hit_rate);
        ])
    reports;
  Table.render tbl

let config_result_to_json r =
  Json.Obj
    [
      ("label", Json.Str r.cr_label);
      ("fmax_mhz", Json.Float r.cr_fmax);
      ("area_pct", Json.Float r.cr_area);
      ("probes", Json.Int r.cr_probes);
      ("search_ms", Json.Float r.cr_ms);
      ("converged", Json.Bool r.cr_outcome.Search.o_converged);
      ("best_target_mhz", Json.Float r.cr_outcome.Search.o_best_target);
    ]

let report_to_json rp =
  Json.Obj
    [
      ("design", Json.Str rp.ep_design);
      ("static_mhz", Json.Float rp.ep_static.Pipeline.fr_fmax_mhz);
      ("best_mhz", Json.Float rp.ep_winner.cr_fmax);
      ("winner", Json.Str rp.ep_winner.cr_label);
      ("probes", Json.Int rp.ep_probes);
      ("search_ms", Json.Float rp.ep_stage.Ledger.st_ms);
      ("cache_hit_rate", Json.Float rp.ep_hit_rate);
      ( "stage_runs",
        Json.Obj
          (List.map (fun (s, c) -> (s, Json.Int c)) rp.ep_stage_runs) );
      ("configs", Json.List (List.map config_result_to_json rp.ep_configs));
      ( "front",
        Json.List (List.map (fun r -> Json.Str r.cr_label) rp.ep_front) );
    ]

(* ---------------- frequency_log output ---------------- *)

let config_log rp r =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "# design: %s\n# config: %s\n# probe  target_mhz  achieved_mhz\n"
       rp.ep_design r.cr_label);
  List.iteri
    (fun i (p : Search.probe) ->
      Buffer.add_string buf
        (Printf.sprintf "%-7d  %10.2f  %12.2f\n" (i + 1) p.Search.p_target
           p.Search.p_achieved))
    r.cr_outcome.Search.o_probes;
  (match List.rev r.cr_outcome.Search.o_brackets with
  | (lo, hi) :: _ ->
    Buffer.add_string buf (Printf.sprintf "# bracket  [%.2f, %.2f]\n" lo hi)
  | [] -> ());
  Buffer.add_string buf
    (Printf.sprintf "# best %.2f MHz @ target %.2f, converged=%b, probes=%d, %.1f ms\n"
       r.cr_fmax r.cr_outcome.Search.o_best_target
       r.cr_outcome.Search.o_converged r.cr_probes r.cr_ms);
  Buffer.contents buf

let write_logs ~dir rp =
  let fdir = Filename.concat dir "frequency_log" in
  let log_paths =
    List.map
      (fun r ->
        let path =
          Filename.concat fdir
            (Printf.sprintf "%s__%s.txt" (slug rp.ep_design) (slug r.cr_label))
        in
        Atomic_file.write_exn ~path (config_log rp r);
        path)
      rp.ep_configs
  in
  let summary_path =
    Filename.concat dir (slug rp.ep_design ^ ".summary.json")
  in
  Atomic_file.write_exn ~path:summary_path
    (Json.to_string ~minify:false (report_to_json rp) ^ "\n");
  log_paths @ [ summary_path ]
