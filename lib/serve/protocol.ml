module Json = Hlsb_telemetry.Json
module Diag = Hlsb_util.Diag
module Style = Hlsb_ctrl.Style
module Plan = Hlsb_transform.Plan
module Schedule = Hlsb_sched.Schedule

let schema = "hlsbd/1"
let max_frame_bytes = 64 * 1024 * 1024

type compile_req = {
  cp_design : string;
  cp_recipe : Style.recipe;
  cp_target_mhz : float option;
  cp_inject : Schedule.inject option;
}

type cc_req = {
  cc_name : string;
  cc_source : string;
  cc_recipe : Style.recipe;
  cc_plan : Plan.t;
}

type verb =
  | Compile of compile_req
  | Cc of cc_req
  | Status
  | Gc
  | Shutdown

type request = { q_id : string; q_ns : string; q_verb : verb }

type response = {
  p_id : string;
  p_hit : bool;
  p_key : string;
  p_artifact : string;
  p_error : Diag.t option;
}

let ok ?(hit = false) ?(key = "") ~id artifact =
  { p_id = id; p_hit = hit; p_key = key; p_artifact = artifact; p_error = None }

let fail ~id d =
  { p_id = id; p_hit = false; p_key = ""; p_artifact = ""; p_error = Some d }

let verb_name = function
  | Compile _ -> "compile"
  | Cc _ -> "cc"
  | Status -> "status"
  | Gc -> "gc"
  | Shutdown -> "shutdown"

(* ---- codec helpers ------------------------------------------------- *)

let ( let* ) = Result.bind

let expect_schema j =
  let* s = Json.str_field "schema" j in
  if s = schema then Ok ()
  else Error (Printf.sprintf "schema mismatch: got %S, want %S" s schema)

(* ---- Diag ---------------------------------------------------------- *)

let entity_to_json (e : Diag.entity) =
  let kind, name =
    match e with
    | Diag.Kernel n -> ("kernel", n)
    | Diag.Channel n -> ("channel", n)
    | Diag.Net n -> ("net", n)
    | Diag.Process n -> ("process", n)
    | Diag.Design n -> ("design", n)
  in
  Json.Obj [ ("kind", Json.Str kind); ("name", Json.Str name) ]

let entity_of_json j =
  let* kind = Json.str_field "kind" j in
  let* name = Json.str_field "name" j in
  match kind with
  | "kernel" -> Ok (Diag.Kernel name)
  | "channel" -> Ok (Diag.Channel name)
  | "net" -> Ok (Diag.Net name)
  | "process" -> Ok (Diag.Process name)
  | "design" -> Ok (Diag.Design name)
  | k -> Error (Printf.sprintf "unknown entity kind %S" k)

let diag_to_json (d : Diag.t) =
  Json.Obj
    [
      ("stage", Json.Str d.Diag.d_stage);
      ("severity", Json.Str (Diag.severity_label d.Diag.d_severity));
      ( "entity",
        match d.Diag.d_entity with
        | None -> Json.Null
        | Some e -> entity_to_json e );
      ("message", Json.Str d.Diag.d_message);
    ]

let diag_of_json j =
  let* stage = Json.str_field "stage" j in
  let* sev_s = Json.str_field "severity" j in
  let* severity =
    match sev_s with
    | "error" -> Ok Diag.Error
    | "warning" -> Ok Diag.Warning
    | s -> Error (Printf.sprintf "unknown severity %S" s)
  in
  let* entity =
    match Json.member "entity" j with
    | None | Some Json.Null -> Ok None
    | Some e ->
      let* e = entity_of_json e in
      Ok (Some e)
  in
  let* message = Json.str_field "message" j in
  Ok
    {
      Diag.d_stage = stage;
      d_severity = severity;
      d_entity = entity;
      d_message = message;
    }

(* ---- verbs --------------------------------------------------------- *)

let recipe_of_json j =
  let* s = Json.str_field "recipe" j in
  match Style.of_string s with
  | Ok r -> Ok r
  | Error d -> Error d.Diag.d_message

let inject_to_json (i : Schedule.inject) =
  Json.Obj
    [ ("top", Json.Int i.Schedule.inj_top); ("levels", Json.Int i.inj_levels) ]

let inject_of_json j =
  let* top = Json.int_field "top" j in
  let* levels = Json.int_field "levels" j in
  Ok { Schedule.inj_top = top; inj_levels = levels }

(* A verb's fields, in wire order: its name, then its arguments. A
   request prefixes them with its own header fields. *)
let verb_fields v =
  ("verb", Json.Str (verb_name v))
  ::
  (match v with
  | Compile c ->
    [
      ("design", Json.Str c.cp_design);
      ("recipe", Json.Str (Style.to_string c.cp_recipe));
    ]
    @ (match c.cp_target_mhz with
      | None -> []
      | Some f -> [ ("target_mhz", Json.Float f) ])
    @ (match c.cp_inject with
      | None -> []
      | Some i -> [ ("inject", inject_to_json i) ])
  | Cc c ->
    [
      ("name", Json.Str c.cc_name);
      ("source", Json.Str c.cc_source);
      ("recipe", Json.Str (Style.to_string c.cc_recipe));
      ("plan", Json.Str (Plan.to_string c.cc_plan));
    ]
  | Status | Gc | Shutdown -> [])

let verb_to_json v = Json.Obj (verb_fields v)

let verb_of_json j =
  let* v = Json.str_field "verb" j in
  match v with
  | "compile" ->
    let* design = Json.str_field "design" j in
    let* recipe = recipe_of_json j in
    let* target_mhz = Json.opt_field Json.float_field "target_mhz" j in
    let* inject =
      match Json.member "inject" j with
      | None | Some Json.Null -> Ok None
      | Some i ->
        let* i = inject_of_json i in
        Ok (Some i)
    in
    Ok
      (Compile
         {
           cp_design = design;
           cp_recipe = recipe;
           cp_target_mhz = target_mhz;
           cp_inject = inject;
         })
  | "cc" ->
    let* name = Json.str_field "name" j in
    let* source = Json.str_field "source" j in
    let* recipe = recipe_of_json j in
    let* plan_s = Json.str_field "plan" j in
    let* plan = Plan.of_string plan_s in
    Ok { cc_name = name; cc_source = source; cc_recipe = recipe; cc_plan = plan }
    |> Result.map (fun c -> Cc c)
  | "status" -> Ok Status
  | "gc" -> Ok Gc
  | "shutdown" -> Ok Shutdown
  | v -> Error (Printf.sprintf "unknown verb %S" v)

(* ---- request / response -------------------------------------------- *)

let request_to_json r =
  Json.Obj
    (("schema", Json.Str schema)
     :: ("id", Json.Str r.q_id)
     :: ("ns", Json.Str r.q_ns)
     :: verb_fields r.q_verb)

let request_of_json j =
  let* () = expect_schema j in
  let* id = Json.str_field "id" j in
  let* ns = Json.str_field "ns" j in
  let* verb = verb_of_json j in
  Ok { q_id = id; q_ns = ns; q_verb = verb }

let response_to_json p =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("id", Json.Str p.p_id);
      ("ok", Json.Bool (p.p_error = None));
      ("hit", Json.Bool p.p_hit);
      ("key", Json.Str p.p_key);
      ("artifact", Json.Str p.p_artifact);
      ( "error",
        match p.p_error with None -> Json.Null | Some d -> diag_to_json d );
    ]

let response_of_json j =
  let* () = expect_schema j in
  let* id = Json.str_field "id" j in
  let* key = Json.str_field "key" j in
  let* artifact = Json.str_field "artifact" j in
  let hit = Result.value ~default:false (Json.bool_field "hit" j) in
  let* error =
    match Json.member "error" j with
    | None | Some Json.Null -> Ok None
    | Some d ->
      let* d = diag_of_json d in
      Ok (Some d)
  in
  Ok { p_id = id; p_hit = hit; p_key = key; p_artifact = artifact; p_error = error }

(* ---- framing ------------------------------------------------------- *)

let write_all fd bytes =
  let len = Bytes.length bytes in
  let off = ref 0 in
  (try
     while !off < len do
       let n = Unix.write fd bytes !off (len - !off) in
       if n = 0 then raise Exit;
       off := !off + n
     done
   with Exit -> ());
  !off = len

let write_frame fd j =
  let line = Json.to_string ~minify:true j ^ "\n" in
  match write_all fd (Bytes.of_string line) with
  | true -> Ok ()
  | false -> Error "short write on socket"
  | exception Unix.Unix_error (e, _, _) ->
    Error (Printf.sprintf "socket write: %s" (Unix.error_message e))

let read_frame fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let rec newline_at () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> newline_at ()
    | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "socket read: %s" (Unix.error_message e))
    | 0 -> if Buffer.length buf = 0 then Error "connection closed" else Ok ()
    | n -> (
      match Bytes.index_opt (Bytes.sub chunk 0 n) '\n' with
      | Some i ->
        Buffer.add_subbytes buf chunk 0 i;
        Ok ()
      | None ->
        Buffer.add_subbytes buf chunk 0 n;
        if Buffer.length buf > max_frame_bytes then Error "frame too large"
        else newline_at ())
  in
  let* () = newline_at () in
  Json.of_string (Buffer.contents buf)
