module Json = Hlsb_telemetry.Json
module Trace = Hlsb_telemetry.Trace

type level = Debug | Info | Warn | Error | Off

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"
  | Off -> "off"

let level_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "debug" -> Ok Debug
  | "info" -> Ok Info
  | "warn" | "warning" -> Ok Warn
  | "error" -> Ok Error
  | "off" | "none" -> Ok Off
  | other -> Error (Printf.sprintf "unknown log level %S" other)

(* Numeric rank for threshold comparison; [Off] outranks everything so
   nothing passes it. *)
let rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3 | Off -> 4

type format = Text | Jsonl

let env_var = "HLSB_LOG"

let parse_spec s : (level option * format option, string) result =
  let tokens =
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.filter (( <> ) "")
  in
  List.fold_left
    (fun (acc : (level option * format option, string) result) tok ->
      match acc with
      | (Stdlib.Error _ : (_, string) result) as e -> e
      | Stdlib.Ok (lvl, fmt) -> (
        match String.lowercase_ascii tok with
        | "json" | "jsonl" -> Stdlib.Ok (lvl, Some Jsonl)
        | "text" -> Stdlib.Ok (lvl, Some Text)
        | _ -> (
          match level_of_string tok with
          | Stdlib.Ok l -> Stdlib.Ok (Some l, fmt)
          | Stdlib.Error e -> Stdlib.Error e)))
    (Stdlib.Ok (None, None))
    tokens

(* Ambient configuration from HLSB_LOG, read once. A malformed spec must
   not take the process down (it is environment, not a flag): fall back
   to the defaults silently — there is no log to complain into yet. *)
let env_level, env_format =
  match Sys.getenv_opt env_var with
  | None -> (None, None)
  | Some s -> ( match parse_spec s with Ok lf -> lf | Error _ -> (None, None))

let threshold = Atomic.make (Option.value ~default:Warn env_level)
let fmt = Atomic.make (Option.value ~default:Text env_format)

let set_level l = Atomic.set threshold l
let current_level () = Atomic.get threshold
let set_format f = Atomic.set fmt f

let stderr_sink line =
  output_string stderr (line ^ "\n");
  flush stderr

let sink = Atomic.make stderr_sink
let set_sink f = Atomic.set sink f
let reset_sink () = Atomic.set sink stderr_sink

let would_log level =
  level <> Off && rank level >= rank (Atomic.get threshold)

(* Emission is serialized so records from pool worker domains never
   interleave mid-line on a shared sink. *)
let emit_lock = Mutex.create ()

let render_text level ~attrs msg =
  let attr_s =
    match attrs with
    | [] -> ""
    | a ->
      " ["
      ^ String.concat ", "
          (List.map (fun (k, v) -> k ^ "=" ^ Json.to_string v) a)
      ^ "]"
  in
  Printf.sprintf "hlsb %-5s %s%s" (level_name level) msg attr_s

let render_json level ~attrs msg =
  let span =
    match Trace.current_span_id () with
    | None -> Json.Null
    | Some id -> Json.Int id
  in
  Json.to_string
    (Json.Obj
       (("ts", Json.Float (Unix.gettimeofday ()))
        :: ("level", Json.Str (level_name level))
        :: ("tid", Json.Int (Domain.self () :> int))
        :: ("span", span)
        :: ("msg", Json.Str msg)
        :: attrs))

let emit level ~attrs msg =
  let line =
    match Atomic.get fmt with
    | Text -> render_text level ~attrs msg
    | Jsonl -> render_json level ~attrs msg
  in
  Mutex.lock emit_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock emit_lock)
    (fun () -> (Atomic.get sink) line)

let logf level ?(attrs = []) f =
  if would_log level then Printf.ksprintf (fun msg -> emit level ~attrs msg) f
  else Printf.ikfprintf (fun () -> ()) () f

let debug ?attrs f = logf Debug ?attrs f
let info f = logf Info f
let warn f = logf Warn f
let error ?attrs f = logf Error ?attrs f
