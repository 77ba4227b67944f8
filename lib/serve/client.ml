let ns_env_var = "HLSBD_NS"

let default_ns () =
  match Sys.getenv_opt ns_env_var with
  | Some ns when ns <> "" -> Store.sanitize_ns ns
  | _ -> Printf.sprintf "uid%d" (Unix.geteuid ())

let id_counter = Atomic.make 0

let fresh_id () =
  Printf.sprintf "%d-%d" (Unix.getpid ()) (Atomic.fetch_and_add id_counter 1)

let ( let* ) = Result.bind

let request ?socket (req : Protocol.request) =
  let socket =
    match socket with Some s -> s | None -> Daemon.ambient_socket ()
  in
  let fd =
    try Ok (Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0)
    with Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "socket: %s" (Unix.error_message e))
  in
  let* fd = fd in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      match Unix.connect fd (Unix.ADDR_UNIX socket) with
      | exception Unix.Unix_error (e, _, _) ->
        Error
          (Printf.sprintf "no daemon on %s: %s" socket (Unix.error_message e))
      | () ->
        let* () = Protocol.write_frame fd (Protocol.request_to_json req) in
        let* j = Protocol.read_frame fd in
        let* resp = Protocol.response_of_json j in
        if resp.Protocol.p_id <> req.Protocol.q_id then
          Error
            (Printf.sprintf "response id %S does not echo request id %S"
               resp.Protocol.p_id req.Protocol.q_id)
        else Ok resp)

let call ?socket verb =
  request ?socket
    { Protocol.q_id = fresh_id (); q_ns = default_ns (); q_verb = verb }

let available ?socket () =
  match call ?socket Protocol.Status with
  | Ok resp -> resp.Protocol.p_error = None
  | Error _ -> false
