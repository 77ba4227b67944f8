module Json = Hlsb_telemetry.Json
module Pool = Hlsb_util.Pool

let schema = "hlsb-run/1"
let env_var = "HLSB_LEDGER"
let default_path = Filename.concat ".hlsb" "ledger.jsonl"

type stage_ms = { st_name : string; st_status : string; st_ms : float }

type run = {
  r_id : string;
  r_time_s : float;
  r_cmd : string;
  r_label : string;
  r_git_rev : string option;
  r_device : string option;
  r_fingerprint : string option;
  r_recipe : string option;
  r_jobs : int;
  r_cores : int;
  r_stages : stage_ms list;
  r_results : Json.t list;
  r_cache : (string * int) list;
  r_metrics : Json.t option;
}

(* ---- git rev, without a subprocess ---- *)

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))

let first_line s =
  match String.index_opt s '\n' with
  | Some i -> String.sub s 0 i
  | None -> s

let rec find_git_dir dir =
  let cand = Filename.concat dir ".git" in
  if Sys.file_exists cand then
    (* worktrees store "gitdir: PATH" in a plain .git file *)
    if Sys.is_directory cand then Some cand
    else
      Option.bind (read_file cand) (fun text ->
        let line = String.trim (first_line text) in
        if String.starts_with ~prefix:"gitdir:" line then
          Some
            (String.trim
               (String.sub line 7 (String.length line - 7)))
        else None)
  else
    let parent = Filename.dirname dir in
    if parent = dir then None else find_git_dir parent

let resolve_ref git_dir refname =
  let direct = Filename.concat git_dir refname in
  match read_file direct with
  | Some text -> Some (String.trim (first_line text))
  | None -> (
    (* packed refs: "HASH refs/heads/main" lines *)
    match read_file (Filename.concat git_dir "packed-refs") with
    | None -> None
    | Some text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
           match String.index_opt line ' ' with
           | Some i
             when String.sub line (i + 1) (String.length line - i - 1)
                  = refname ->
             Some (String.sub line 0 i)
           | _ -> None))

let git_rev () =
  match find_git_dir (Sys.getcwd ()) with
  | None -> None
  | Some git_dir -> (
    match read_file (Filename.concat git_dir "HEAD") with
    | None -> None
    | Some head -> (
      let head = String.trim (first_line head) in
      if String.starts_with ~prefix:"ref:" head then
        let refname =
          String.trim (String.sub head 4 (String.length head - 4))
        in
        resolve_ref git_dir refname
      else if head <> "" then Some head
      else None))

(* ---- record assembly ---- *)

let fresh_id ~cmd time_s =
  (* ms-resolution time + pid: unique enough to name a run across the
     processes that can realistically share one ledger. *)
  Printf.sprintf "%s-%010x-%04x" cmd
    (Int64.to_int (Int64.rem (Int64.of_float (time_s *. 1000.)) 0xff_ffff_ffffL))
    (Unix.getpid () land 0xffff)

let make ?git_rev:(rev = git_rev ()) ?device ?fingerprint ?recipe
    ?(stages = []) ?(results = []) ?(cache = []) ?metrics ~cmd ~label () =
  let time_s = Unix.gettimeofday () in
  {
    r_id = fresh_id ~cmd time_s;
    r_time_s = time_s;
    r_cmd = cmd;
    r_label = label;
    r_git_rev = rev;
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
    (fun acc st -> if st.st_status = "ran" then acc +. st.st_ms else acc)
    0. run.r_stages

let result_label j =
  match Json.member "label" j with Some (Json.Str s) -> s | _ -> "?"

let member_float name j =
  match Json.member name j with
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

let result_fmax j = member_float "fmax_mhz" j
let result_critical_ns j = member_float "critical_ns" j

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
      ("git_rev", opt_str r.r_git_rev);
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
                   ("status", Json.Str st.st_status);
                   ("ms", Json.Float st.st_ms);
                 ])
             r.r_stages) );
      ("results", Json.List r.r_results);
      ("cache", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.r_cache));
      ( "metrics",
        match r.r_metrics with None -> Json.Null | Some m -> m );
    ]

let str_member name j =
  match Json.member name j with Some (Json.Str s) -> Some s | _ -> None

let int_member name j =
  match Json.member name j with Some (Json.Int i) -> Some i | _ -> None

let of_json j =
  match Json.member "schema" j with
  | Some (Json.Str s) when s = schema ->
    let stages =
      match Json.member "stages" j with
      | Some (Json.List items) ->
        List.filter_map
          (fun it ->
            match (str_member "stage" it, str_member "status" it) with
            | Some name, Some status ->
              Some
                {
                  st_name = name;
                  st_status = status;
                  st_ms = Option.value ~default:0. (member_float "ms" it);
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
        r_id = Option.value ~default:"?" (str_member "id" j);
        r_time_s = Option.value ~default:0. (member_float "time_unix_s" j);
        r_cmd = Option.value ~default:"?" (str_member "cmd" j);
        r_label = Option.value ~default:"" (str_member "label" j);
        r_git_rev = str_member "git_rev" j;
        r_device = str_member "device" j;
        r_fingerprint = str_member "device_fingerprint" j;
        r_recipe = str_member "recipe" j;
        r_jobs = Option.value ~default:1 (int_member "jobs" j);
        r_cores = Option.value ~default:1 (int_member "cores" j);
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

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

(* Opt-in durability for daemon mode: a long-running compile service is
   exactly the process whose ledger survives crashes, so it can ask for
   an fsync per record. Everything else keeps the cheap default. *)
let sync_env_var = "HLSB_LEDGER_SYNC"

let sync_requested () =
  match Sys.getenv_opt sync_env_var with
  | Some ("1" | "true" | "on" | "yes") -> true
  | _ -> false

(* One locked single-buffer write per record: the advisory lock
   serializes concurrent writers (same guarantee Store gets from
   write-then-rename, adapted to an append-only file) and the whole
   line goes down in one [Unix.write]. A short or failed write used to
   leave a torn line for every later reader to skip — now the file is
   truncated back to its pre-append length (we still hold the lock, and
   O_APPEND writes land at the end, so the recorded length is exact)
   and the append is reported as failed instead of half-published. *)
let append_line ?(sync = sync_requested ()) ~path line =
  mkdir_p (Filename.dirname path);
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
    match read_file path with
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
