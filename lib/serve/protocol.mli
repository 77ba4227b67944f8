(** The versioned [hlsbd/1] wire protocol: newline-delimited JSON over a
    Unix-domain stream socket, one request and one response per
    connection.

    Every request carries the schema tag, a client-chosen id (echoed
    back), a namespace (store isolation), and a verb. Compile-flavoured
    responses carry the artifact bytes verbatim as a JSON string plus
    the store key and whether the bytes came from the store — the
    byte-identity contract is that [p_artifact] for a hit equals the
    [p_artifact] that populated the store. Failures carry the full
    structured diagnostic ({!Hlsb_util.Diag.t}) as data: stage,
    severity, offending entity, message — exactly what [Pipeline.run]
    returns on failure. *)

module Json = Hlsb_telemetry.Json
module Diag = Hlsb_util.Diag

val schema : string
(** ["hlsbd/1"]. A request or response with any other tag is rejected,
    never half-understood. *)

type compile_req = {
  cp_design : string;  (** suite design name, exact or relaxed *)
  cp_recipe : Hlsb_ctrl.Style.recipe;
  cp_target_mhz : float option;
  cp_inject : Hlsb_sched.Schedule.inject option;
}

type cc_req = {
  cc_name : string;  (** design name for the program session *)
  cc_source : string;  (** the C-subset source text itself *)
  cc_recipe : Hlsb_ctrl.Style.recipe;
  cc_plan : Hlsb_transform.Plan.t;
}

type explore_req = {
  ex_design : string;
  ex_budget : int;
  ex_max_probes : int;
}

type verb =
  | Compile of compile_req
  | Cc of cc_req
  | Characterize of string  (** device name *)
  | Explore of explore_req
  | Status
  | Gc
  | Shutdown

type request = { q_id : string; q_ns : string; q_verb : verb }

type response = {
  p_id : string;  (** echo of the request id *)
  p_hit : bool;  (** artifact served from the content-addressed store *)
  p_key : string;  (** store key; [""] for control verbs *)
  p_artifact : string;  (** payload bytes; [""] on error *)
  p_error : Diag.t option;  (** [None] iff the request succeeded *)
}

val ok : ?hit:bool -> ?key:string -> id:string -> string -> response
val fail : id:string -> Diag.t -> response

val verb_name : verb -> string
(** ["compile"] | ["cc"] | ["characterize"] | ["explore"] | ["status"]
    | ["gc"] | ["shutdown"] — used in spans, gauges, and ledger labels. *)

(** {1 Codec} *)

val diag_to_json : Diag.t -> Json.t
val diag_of_json : Json.t -> (Diag.t, string) result
(** Lossless round-trip of the structured diagnostic, including the
    entity constructor. *)

val verb_to_json : verb -> Json.t
(** The verb's canonical encoding, as it appears inside a request. The
    daemon keys its store on it. *)

val request_to_json : request -> Json.t
val request_of_json : Json.t -> (request, string) result
val response_to_json : response -> Json.t
val response_of_json : Json.t -> (response, string) result

(** {1 Framing}

    One JSON document per line; the encoder never emits a raw newline
    (strings are RFC 8259-escaped), so lines frame documents exactly. *)

val write_frame : Unix.file_descr -> Json.t -> (unit, string) result

val read_frame : Unix.file_descr -> (Json.t, string) result
(** Read up to the first ['\n'] (or EOF) and parse. Refuses frames over
    {!max_frame_bytes}. *)

val max_frame_bytes : int
(** 64 MiB — a generous bound on source files and artifacts that still
    stops a runaway peer from ballooning the daemon. *)
