module Metrics = Hlsb_telemetry.Metrics

let metric_name name =
  let sane =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
        | _ -> '_')
      name
  in
  "hlsb_" ^ sane

(* Prometheus accepts Go-style float literals; "NaN"/"+Inf" are the
   spec's spellings for the non-finite cases. *)
let float_str v =
  if Float.is_nan v then "NaN"
  else if v = infinity then "+Inf"
  else if v = neg_infinity then "-Inf"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let of_snapshot (s : Metrics.snapshot) =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string buf (l ^ "\n")) fmt in
  List.iter
    (fun (k, v) ->
      let n = metric_name k in
      line "# TYPE %s counter" n;
      line "%s %d" n v)
    s.Metrics.sn_counters;
  List.iter
    (fun (k, v) ->
      let n = metric_name k in
      line "# TYPE %s gauge" n;
      line "%s %s" n (float_str v))
    s.Metrics.sn_gauges;
  List.iter
    (fun (k, (h : Metrics.hist_snap)) ->
      let n = metric_name k in
      line "# TYPE %s histogram" n;
      let cum = ref 0 in
      Array.iteri
        (fun i b ->
          cum := !cum + h.Metrics.hs_counts.(i);
          line "%s_bucket{le=\"%s\"} %d" n (float_str b) !cum)
        h.Metrics.hs_buckets;
      line "%s_bucket{le=\"+Inf\"} %d" n h.Metrics.hs_count;
      line "%s_sum %s" n (float_str h.Metrics.hs_sum);
      line "%s_count %d" n h.Metrics.hs_count)
    s.Metrics.sn_hists;
  Buffer.contents buf
