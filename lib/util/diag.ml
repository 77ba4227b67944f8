type severity = Error | Warning

type entity =
  | Kernel of string
  | Channel of string
  | Net of string
  | Process of string
  | Design of string

type t = {
  d_stage : string;
  d_severity : severity;
  d_entity : entity option;
  d_message : string;
}

exception Diagnostic of t

let error ?entity ~stage message =
  { d_stage = stage; d_severity = Error; d_entity = entity; d_message = message }

let warning ~stage message =
  {
    d_stage = stage;
    d_severity = Warning;
    d_entity = None;
    d_message = message;
  }

let fail ?entity ~stage fmt =
  Printf.ksprintf (fun msg -> raise (Diagnostic (error ?entity ~stage msg))) fmt

let entity_label = function
  | Kernel n -> "kernel " ^ n
  | Channel n -> "channel " ^ n
  | Net n -> "net " ^ n
  | Process n -> "process " ^ n
  | Design n -> "design " ^ n

let severity_label = function Error -> "error" | Warning -> "warning"

let to_string d =
  Printf.sprintf "%s[%s]%s %s"
    (severity_label d.d_severity)
    d.d_stage
    (match d.d_entity with
    | None -> ""
    | Some e -> " " ^ entity_label e ^ ":")
    d.d_message

let () =
  Printexc.register_printer (function
    | Diagnostic d -> Some (to_string d)
    | _ -> None)
