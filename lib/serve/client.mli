(** Client side of the hlsbd protocol: connect to the daemon's Unix
    socket, send one framed request, read the framed response.

    Resolution: the socket comes from [$HLSBD_SOCKET] (else
    [.hlsb/hlsbd.sock]); the store namespace from [$HLSBD_NS] (else a
    per-uid default, so unrelated users sharing a daemon cannot see each
    other's artifacts). A connection failure is an [Error] the caller is
    expected to treat as "no daemon": [hlsbc --daemon] falls back to the
    in-process pipeline, printing the same bytes either way. *)

val fresh_id : unit -> string
(** A unique-enough request id: pid + a monotonic per-process counter. *)

val request :
  ?socket:string ->
  Protocol.request ->
  (Protocol.response, string) result
(** One round-trip: connect (default socket {!Daemon.ambient_socket}),
    write the request frame, read the response frame, verify the echoed
    id. [Error] covers no-daemon (connect refused / missing socket),
    framing failures, and id mismatches — never raises. *)

val call : ?socket:string -> Protocol.verb -> (Protocol.response, string) result
(** {!request} with a {!fresh_id} and the ambient namespace. *)

val available : ?socket:string -> unit -> bool
(** True when a daemon answers a [status] request on the socket. *)
