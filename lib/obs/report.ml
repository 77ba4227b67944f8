module Json = Hlsb_telemetry.Json
module Metrics = Hlsb_telemetry.Metrics
module Table = Hlsb_util.Table
module Ledger = Ledger

let ms_str ms =
  if ms >= 1000. then Printf.sprintf "%.2f s" (ms /. 1000.)
  else Printf.sprintf "%.1f ms" ms

let time_str epoch_s =
  let tm = Unix.gmtime epoch_s in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let opt_str = Option.value ~default:"-"

(* ---- report ---- *)

let stage_table (run : Ledger.run) =
  let total = Ledger.total_ms run in
  let tbl =
    Table.create
      ~headers:
        [
          ("stage", Table.Left);
          ("status", Table.Left);
          ("time", Table.Right);
          ("share", Table.Right);
        ]
  in
  List.iter
    (fun (st : Ledger.stage) ->
      Table.add_row tbl
        [
          st.Ledger.st_name;
          Ledger.status_name st.Ledger.st_status;
          (match st.Ledger.st_status with
          | Ledger.Ran | Ledger.Failed -> ms_str st.Ledger.st_ms
          | Ledger.Cached | Ledger.Skipped -> "-");
          (if st.Ledger.st_status = Ledger.Ran && total > 0. then
             Printf.sprintf "%.0f%%" (100. *. st.Ledger.st_ms /. total)
           else "-");
        ])
    run.Ledger.r_stages;
  Table.add_rule tbl;
  Table.add_row tbl [ "total"; ""; ms_str total; "" ];
  Table.render tbl

let report ?(top = 12) (run : Ledger.run) =
  let buf = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string buf (l ^ "\n")) fmt in
  line "run %s" run.Ledger.r_id;
  line "  time:   %s" (time_str run.Ledger.r_time_s);
  line "  cmd:    %s%s" run.Ledger.r_cmd
    (if run.Ledger.r_label <> "" then "  (" ^ run.Ledger.r_label ^ ")" else "");
  line "  build:  %s" (opt_str run.Ledger.r_build_id);
  line "  device: %s  recipe: %s"
    (opt_str run.Ledger.r_device)
    (opt_str run.Ledger.r_recipe);
  line "  jobs:   %d (cores %d)" run.Ledger.r_jobs run.Ledger.r_cores;
  if run.Ledger.r_stages <> [] then begin
    line "";
    Buffer.add_string buf (stage_table run)
  end;
  if run.Ledger.r_results <> [] then begin
    line "";
    line "designs:";
    List.iter
      (fun r ->
        line "  %-40s %s%s"
          (Ledger.result_label r)
          (match Ledger.result_fmax r with
          | Some f -> Printf.sprintf "%6.1f MHz" f
          | None -> "     ?")
          (match Ledger.result_critical_ns r with
          | Some c -> Printf.sprintf "  (%.2f ns)" c
          | None -> ""))
      run.Ledger.r_results
  end;
  if run.Ledger.r_cache <> [] then begin
    line "";
    line "cache traffic:";
    List.iter
      (fun (k, v) -> line "  %-32s %10d" k v)
      run.Ledger.r_cache
  end;
  (match run.Ledger.r_metrics with
  | None -> ()
  | Some m ->
    let snap = Metrics.of_json m in
    if snap.Metrics.sn_counters <> [] then begin
      line "";
      line "top counters:";
      snap.Metrics.sn_counters
      |> List.sort (fun (_, a) (_, b) -> compare b a)
      |> List.filteri (fun i _ -> i < top)
      |> List.iter (fun (k, v) -> line "  %-32s %10d" k v)
    end;
    if snap.Metrics.sn_hists <> [] then begin
      line "";
      line "histograms (p50 / p95 / p99):";
      snap.Metrics.sn_hists
      |> List.filteri (fun i _ -> i < top)
      |> List.iter (fun (k, h) ->
           line "  %-32s n=%-8d %8.1f %8.1f %8.1f" k h.Metrics.hs_count
             (Metrics.quantile h 0.50) (Metrics.quantile h 0.95)
             (Metrics.quantile h 0.99))
    end);
  Buffer.contents buf

let summary_line (run : Ledger.run) =
  Printf.sprintf "%-28s %-20s %-10s %10s  %s" run.Ledger.r_id
    (time_str run.Ledger.r_time_s) run.Ledger.r_cmd
    (ms_str (Ledger.total_ms run))
    run.Ledger.r_label

(* ---- diff ---- *)

let assoc_stage name (run : Ledger.run) =
  List.find_opt (fun (st : Ledger.stage) -> st.Ledger.st_name = name)
    run.Ledger.r_stages

let stage_names a b =
  let names (r : Ledger.run) =
    List.map (fun (st : Ledger.stage) -> st.Ledger.st_name) r.Ledger.r_stages
  in
  (* keep [a]'s order, then anything only [b] has *)
  names a @ List.filter (fun n -> not (List.mem n (names a))) (names b)

let ratio_str base cur =
  if base > 0. then Printf.sprintf "%.2fx" (cur /. base) else "-"

let diff (a : Ledger.run) (b : Ledger.run) =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string buf (l ^ "\n")) fmt in
  line "A: %s  (%s, %s)" a.Ledger.r_id (time_str a.Ledger.r_time_s)
    a.Ledger.r_cmd;
  line "B: %s  (%s, %s)" b.Ledger.r_id (time_str b.Ledger.r_time_s)
    b.Ledger.r_cmd;
  (match (a.Ledger.r_build_id, b.Ledger.r_build_id) with
  | Some ra, Some rb when ra <> rb -> line "build: %s -> %s" ra rb
  | _ -> ());
  line "";
  let tbl =
    Table.create
      ~headers:
        [
          ("stage", Table.Left);
          ("A", Table.Right);
          ("B", Table.Right);
          ("delta", Table.Right);
          ("ratio", Table.Right);
        ]
  in
  List.iter
    (fun name ->
      let cell r =
        match assoc_stage name r with
        | Some { Ledger.st_status = Ledger.Ran; st_ms; _ } -> Some st_ms
        | _ -> None
      in
      match (cell a, cell b) with
      | Some ma, Some mb ->
        Table.add_row tbl
          [
            name;
            ms_str ma;
            ms_str mb;
            Printf.sprintf "%+.1f ms" (mb -. ma);
            ratio_str ma mb;
          ]
      | Some ma, None -> Table.add_row tbl [ name; ms_str ma; "-"; "-"; "-" ]
      | None, Some mb -> Table.add_row tbl [ name; "-"; ms_str mb; "-"; "-" ]
      | None, None -> ())
    (stage_names a b);
  let ta = Ledger.total_ms a and tb = Ledger.total_ms b in
  Table.add_rule tbl;
  Table.add_row tbl
    [
      "total";
      ms_str ta;
      ms_str tb;
      Printf.sprintf "%+.1f ms" (tb -. ta);
      ratio_str ta tb;
    ];
  Buffer.add_string buf (Table.render tbl);
  (* Fmax side-by-side for designs both runs compiled *)
  let fmax_pairs =
    List.filter_map
      (fun ra ->
        let la = Ledger.result_label ra in
        List.find_opt (fun rb -> Ledger.result_label rb = la)
          b.Ledger.r_results
        |> Option.map (fun rb -> (la, Ledger.result_fmax ra, Ledger.result_fmax rb)))
      a.Ledger.r_results
  in
  if fmax_pairs <> [] then begin
    line "";
    line "fmax:";
    List.iter
      (fun (label, fa, fb) ->
        match (fa, fb) with
        | Some fa, Some fb ->
          line "  %-40s %6.1f -> %6.1f MHz  (%+.1f)" label fa fb (fb -. fa)
        | _ -> ())
      fmax_pairs
  end;
  Buffer.contents buf

(* ---- regress ---- *)

type verdict = {
  v_ok : bool;
  v_failures : string list;
  v_table : string;
}

let regress ?(min_ms = 1.0) ~(baseline : Ledger.run) ~(current : Ledger.run)
    ~max_slowdown_pct () =
  let limit = 1. +. (max_slowdown_pct /. 100.) in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let tbl =
    Table.create
      ~headers:
        [
          ("stage", Table.Left);
          ("baseline", Table.Right);
          ("current", Table.Right);
          ("ratio", Table.Right);
          ("limit", Table.Right);
          ("verdict", Table.Left);
        ]
  in
  let check_row name base cur =
    let ratio = if base > 0. then cur /. base else 1. in
    let breach = base >= min_ms && ratio > limit in
    Table.add_row tbl
      [
        name;
        ms_str base;
        ms_str cur;
        Printf.sprintf "%.2fx" ratio;
        (if base >= min_ms then Printf.sprintf "%.2fx" limit else "(skip)");
        (if base < min_ms then "ignored" else if breach then "REGRESSED" else "ok");
      ];
    if breach then
      fail "stage %s regressed: %.1f ms -> %.1f ms (%.2fx > %.2fx)" name base
        cur ratio limit
  in
  let compared = ref 0 in
  List.iter
    (fun name ->
      match (assoc_stage name baseline, assoc_stage name current) with
      | ( Some { Ledger.st_status = Ledger.Ran; st_ms = b; _ },
          Some { Ledger.st_status = Ledger.Ran; st_ms = c; _ } ) ->
        incr compared;
        check_row name b c
      | _ -> ())
    (stage_names baseline current);
  (* A baseline with stage timings and no overlap with the current run
     means the wrong runs are being compared (e.g. a fuzz record against
     a compile baseline) — an OK verdict there would be vacuous. *)
  if !compared = 0 && baseline.Ledger.r_stages <> [] then
    fail "no stage ran in both runs (baseline cmd %S, current cmd %S)"
      baseline.Ledger.r_cmd current.Ledger.r_cmd;
  let tb = Ledger.total_ms baseline and tc = Ledger.total_ms current in
  if tb > 0. then begin
    Table.add_rule tbl;
    check_row "total" tb tc
  end;
  (* Fmax: deterministic model output, so any drop beyond the margin on a
     shared design is a real quality regression, not machine noise. *)
  List.iter
    (fun rb ->
      let label = Ledger.result_label rb in
      match
        List.find_opt (fun rc -> Ledger.result_label rc = label)
          current.Ledger.r_results
      with
      | None -> ()
      | Some rc -> (
        match (Ledger.result_fmax rb, Ledger.result_fmax rc) with
        | Some fb, Some fc when fb > 0. ->
          if fc < fb /. limit then
            fail "fmax of %s dropped: %.1f -> %.1f MHz (more than %.0f%%)"
              label fb fc max_slowdown_pct
        | _ -> ()))
    baseline.Ledger.r_results;
  {
    v_ok = !failures = [];
    v_failures = List.rev !failures;
    v_table = Table.render tbl;
  }
