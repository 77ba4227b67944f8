module Json = Hlsb_telemetry.Json
module Clock = Hlsb_telemetry.Clock
module Pool = Hlsb_util.Pool
module Atomic_file = Hlsb_util.Atomic_file

let schema = "hlsb-run/1"
let env_var = "HLSB_LEDGER"
let default_path = Filename.concat ".hlsb" "ledger.jsonl"

type status = Ran | Cached | Skipped | Failed

let status_name = function
  | Ran -> "ran"
  | Cached -> "cached"
  | Skipped -> "skipped"
  | Failed -> "FAILED"

let status_of_name n =
  List.find_opt (fun s -> status_name s = n) [ Ran; Cached; Skipped; Failed ]

type stage = {
  st_name : string;
  st_status : status;
  st_ms : float;
  st_minor_words : float;
  st_major_words : float;
}

let unmeasured name status =
  {
    st_name = name;
    st_status = status;
    st_ms = 0.;
    st_minor_words = 0.;
    st_major_words = 0.;
  }

(* Words allocated directly in the major heap so far: major minus
   promoted, so a block a minor collection moved is not counted twice. *)
let direct_major_words () =
  let _, promoted, major = Gc.counters () in
  major -. promoted

(* A body's words are those the calling domain allocated plus those pool
   workers allocated for it ({!Pool.credited_words}). [Gc.counters], the
   account and the clock allocate their results, so they are read outside
   the minor-word window, which [f] alone fills. *)
let measured name status t0 minor c0 m0 =
  let ms = Clock.ns_to_ms (Int64.sub (Clock.now_ns ()) t0) in
  let c1, cm1 = Pool.credited_words () in
  {
    st_name = name;
    st_status = status;
    st_ms = ms;
    st_minor_words = minor +. (c1 -. c0);
    st_major_words = direct_major_words () +. cm1 -. m0;
  }

let measure name f =
  let c0, cm0 = Pool.credited_words () in
  let m0 = direct_major_words () +. cm0 in
  let t0 = Clock.now_ns () in
  let w0 = Gc.minor_words () in
  match f () with
  | v ->
    let minor = Gc.minor_words () -. w0 in
    let st = measured name Ran t0 minor c0 m0 in
    (Ok v, st)
  | exception e ->
    let minor = Gc.minor_words () -. w0 in
    let st = measured name Failed t0 minor c0 m0 in
    (Error e, st)

type run = {
  r_id : string;
  r_time_s : float;
  r_cmd : string;
  r_label : string;
  r_build_id : string option;
  r_device : string option;
  r_fingerprint : string option;
  r_recipe : string option;
  r_jobs : int;
  r_cores : int;
  r_stages : stage list;
  r_results : Json.t list;
  r_cache : (string * int) list;
  r_metrics : Json.t option;
}

(* ---- record assembly ---- *)

let fresh_id ~cmd time_s =
  (* ms-resolution time + pid: unique enough to name a run across the
     processes that can realistically share one ledger. *)
  Printf.sprintf "%s-%010x-%04x" cmd
    (Int64.to_int (Int64.rem (Int64.of_float (time_s *. 1000.)) 0xff_ffff_ffffL))
    (Unix.getpid () land 0xffff)

let make ?device ?fingerprint ?recipe
    ?(stages = []) ?(results = []) ?(cache = []) ?metrics ~cmd ~label () =
  let time_s = Unix.gettimeofday () in
  {
    r_id = fresh_id ~cmd time_s;
    r_time_s = time_s;
    r_cmd = cmd;
    r_label = label;
    r_build_id = Some Build_id.digest;
    r_device = device;
    r_fingerprint = fingerprint;
    r_recipe = recipe;
    r_jobs = Pool.default_jobs ();
    r_cores = Domain.recommended_domain_count ();
    r_stages = stages;
    r_results = results;
    r_cache = List.sort (fun (a, _) (b, _) -> compare a b) cache;
    r_metrics = metrics;
  }

let total_ms run =
  List.fold_left
    (fun acc st -> if st.st_status = Ran then acc +. st.st_ms else acc)
    0. run.r_stages

let result_label j =
  match Json.member "label" j with Some (Json.Str s) -> s | _ -> "?"

let result_fmax j = Result.to_option (Json.float_field "fmax_mhz" j)
let result_critical_ns j = Result.to_option (Json.float_field "critical_ns" j)

(* ---- JSON codec ---- *)

let opt_str = function None -> Json.Null | Some s -> Json.Str s

let to_json r =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("id", Json.Str r.r_id);
      ("time_unix_s", Json.Float r.r_time_s);
      ("cmd", Json.Str r.r_cmd);
      ("label", Json.Str r.r_label);
      ("build_id", opt_str r.r_build_id);
      ("device", opt_str r.r_device);
      ("device_fingerprint", opt_str r.r_fingerprint);
      ("recipe", opt_str r.r_recipe);
      ("jobs", Json.Int r.r_jobs);
      ("cores", Json.Int r.r_cores);
      ( "stages",
        Json.List
          (List.map
             (fun st ->
               Json.Obj
                 [
                   ("stage", Json.Str st.st_name);
                   ("status", Json.Str (status_name st.st_status));
                   ("ms", Json.Float st.st_ms);
                   ("minor_words", Json.Float st.st_minor_words);
                   ("major_words", Json.Float st.st_major_words);
                 ])
             r.r_stages) );
      ("results", Json.List r.r_results);
      ("cache", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.r_cache));
      ( "metrics",
        match r.r_metrics with None -> Json.Null | Some m -> m );
    ]

let of_json j =
  match Json.member "schema" j with
  | Some (Json.Str s) when s = schema ->
    let stages =
      match Json.member "stages" j with
      | Some (Json.List items) ->
        List.filter_map
          (fun it ->
            let num k = Result.value ~default:0. (Json.float_field k it) in
            match
              ( Json.str_field "stage" it,
                Option.bind
                  (Result.to_option (Json.str_field "status" it))
                  status_of_name )
            with
            | Ok name, Some status ->
              Some
                {
                  st_name = name;
                  st_status = status;
                  st_ms = num "ms";
                  st_minor_words = num "minor_words";
                  st_major_words = num "major_words";
                }
            | _ -> None)
          items
      | _ -> []
    in
    let results =
      match Json.member "results" j with
      | Some (Json.List items) -> items
      | _ -> []
    in
    let cache =
      match Json.member "cache" j with
      | Some (Json.Obj fields) ->
        List.filter_map
          (fun (k, v) -> match v with Json.Int i -> Some (k, i) | _ -> None)
          fields
      | _ -> []
    in
    Ok
      {
        r_id = Result.value ~default:"?" (Json.str_field "id" j);
        r_time_s = Result.value ~default:0. (Json.float_field "time_unix_s" j);
        r_cmd = Result.value ~default:"?" (Json.str_field "cmd" j);
        r_label = Result.value ~default:"" (Json.str_field "label" j);
        r_build_id = Result.to_option (Json.str_field "build_id" j);
        r_device = Result.to_option (Json.str_field "device" j);
        r_fingerprint = Result.to_option (Json.str_field "device_fingerprint" j);
        r_recipe = Result.to_option (Json.str_field "recipe" j);
        r_jobs = Result.value ~default:1 (Json.int_field "jobs" j);
        r_cores = Result.value ~default:1 (Json.int_field "cores" j);
        r_stages = stages;
        r_results = results;
        r_cache = cache;
        r_metrics =
          (match Json.member "metrics" j with
          | None | Some Json.Null -> None
          | Some m -> Some m);
      }
  | Some (Json.Str other) ->
    Error (Printf.sprintf "unexpected schema %S (want %s)" other schema)
  | _ -> Error "missing schema field"

(* ---- the on-disk ledger ---- *)

let ambient_path () =
  match Sys.getenv_opt env_var with
  | Some "" | Some "off" | Some "OFF" | Some "0" -> None
  | Some p -> Some p
  | None -> Some default_path

let enabled () = ambient_path () <> None

(* One locked single-buffer write per record: the advisory lock
   serializes concurrent writers (same guarantee Store gets from
   write-then-rename, adapted to an append-only file) and the whole
   line goes down in one [Unix.write]. A short or failed write used to
   leave a torn line for every later reader to skip — now the file is
   truncated back to its pre-append length (we still hold the lock, and
   O_APPEND writes land at the end, so the recorded length is exact)
   and the append is reported as failed instead of half-published. *)
let append_line ?(sync = false) ~path line =
  Atomic_file.mkdir_p (Filename.dirname path);
  match
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644
  with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        match Unix.lockf fd Unix.F_LOCK 0 with
        | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
        | () ->
          Fun.protect
            ~finally:(fun () ->
              try Unix.lockf fd Unix.F_ULOCK 0 with Unix.Unix_error _ -> ())
            (fun () ->
              let b = Bytes.unsafe_of_string line in
              let len = Bytes.length b in
              let before = (Unix.fstat fd).Unix.st_size in
              let rollback () =
                try Unix.ftruncate fd before with Unix.Unix_error _ -> ()
              in
              match Unix.write fd b 0 len with
              | n when n = len ->
                if sync then (
                  match Unix.fsync fd with
                  | () -> Ok path
                  | exception Unix.Unix_error (e, _, _) ->
                    Error (Unix.error_message e))
                else Ok path
              | n ->
                rollback ();
                Error (Printf.sprintf "short write (%d of %d bytes)" n len)
              | exception Unix.Unix_error (e, _, _) ->
                rollback ();
                Error (Unix.error_message e)))

let append ?path ?sync run =
  match (path, ambient_path ()) with
  | None, None -> Error "ledger disabled (HLSB_LEDGER=off)"
  | Some p, _ | None, Some p ->
    append_line ?sync ~path:p (Json.to_string (to_json run) ^ "\n")

let load ~path =
  if not (Sys.file_exists path) then Ok []
  else
    match Atomic_file.read path with
    | None -> Error (Printf.sprintf "cannot read %s" path)
    | Some text ->
      Ok
        (String.split_on_char '\n' text
        |> List.filter_map (fun line ->
             if String.trim line = "" then None
             else
               match Json.of_string line with
               | Error _ -> None
               | Ok j -> (
                 match of_json j with Ok r -> Some r | Error _ -> None)))

let resolve runs ref_ =
  let n = List.length runs in
  let nth_opt i = if i >= 0 && i < n then Some (List.nth runs i) else None in
  let by_index i =
    (* positive: 1-based from the oldest; negative: from the newest *)
    if i > 0 then nth_opt (i - 1) else if i < 0 then nth_opt (n + i) else None
  in
  let back k =
    (* "last~k": k steps back from the newest, dash-free so it survives
       option parsing as a positional argument *)
    match nth_opt (n - 1 - k) with
    | Some r -> Ok r
    | None ->
      Error
        (Printf.sprintf "last~%d out of range (%d run(s) in ledger)" k n)
  in
  if n = 0 then Error "ledger is empty"
  else
    match String.lowercase_ascii ref_ with
    | "last" | "latest" -> Ok (List.nth runs (n - 1))
    | low
      when String.starts_with ~prefix:"last~" low
           && int_of_string_opt
                (String.sub low 5 (String.length low - 5))
              <> None ->
      back (int_of_string (String.sub low 5 (String.length low - 5)))
    | _ -> (
      match int_of_string_opt ref_ with
      | Some i -> (
        match by_index i with
        | Some r -> Ok r
        | None ->
          Error
            (Printf.sprintf "run index %d out of range (%d run(s) in ledger)"
               i n))
      | None -> (
        match
          List.filter (fun r -> String.starts_with ~prefix:ref_ r.r_id) runs
        with
        | [ r ] -> Ok r
        | [] -> Error (Printf.sprintf "no run with id prefix %S" ref_)
        | _ :: _ -> Error (Printf.sprintf "run id prefix %S is ambiguous" ref_)))
