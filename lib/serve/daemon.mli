(** The hlsbd compile daemon: a long-running process that owns the
    persistent worker {!Hlsb_util.Pool}, keeps one warm
    [Core.Pipeline.session] per (design, device) input, and backs every
    [compile] and [cc] request with the content-addressed artifact
    {!Store} — so a repeat compile from any client process is a store
    hit returning byte-identical artifact bytes. The other three verbs
    ([status], [gc], [shutdown]) are the daemon's own controls.

    Requests arrive one per connection over a Unix-domain socket in the
    {!Protocol} framing. The accept loop drains every connection already
    pending into a batch (the queue-depth gauge is the batch size) and
    hands the batch to [Pool.map_list], so independent requests compile
    in parallel on the persistent domains while requests for the same
    session serialize on that session's lock.

    Ops surface, per request: a [serve.request] telemetry span tagged
    with verb/ns/key/hit, the [serve.*] gauges
    (queue depth, requests, store hit rate, store bytes/entries), and
    one [hlsb-run/1] ledger record with [r_cmd = "serve"], appended
    with [~sync:true] so an acknowledged request's record survives a
    crash. *)

module Json = Hlsb_telemetry.Json

val socket_env_var : string
(** ["HLSBD_SOCKET"]. *)

val ambient_socket : unit -> string
(** [$HLSBD_SOCKET] when set and non-empty, else [".hlsb/hlsbd.sock"]. *)

type t

val create :
  ?budget_bytes:int -> ?store_root:string -> ?ledger:bool -> unit -> t
(** A daemon state: opened store (root defaults to
    {!Store.ambient_root}), empty session table, zeroed request
    counters. [?ledger] (default [true]) controls the per-request ledger
    records — tests turn it off. *)

val store : t -> Store.t

val store_key : device:Hlsb_device.Device.t -> Protocol.verb -> string
(** The store key a [compile] or [cc] verb is filed under: the device
    fingerprint plus {!Protocol.verb_to_json} of the verb. {!handle}
    first resolves the verb's names (a relaxed design name to its suite
    name), so every spelling of one request shares one entry. *)

val handle : t -> Protocol.request -> Protocol.response
(** Serve one request against the daemon state — the entire protocol
    semantics, independent of any socket, so tests can drive it
    in-process. Store lookup first; on miss, compile in the (created on
    demand) session and publish the artifact before responding. Never
    raises: every failure becomes a [p_error] diagnostic. *)

val serve : ?max_requests:int -> t -> socket:string -> (unit, string) result
(** Bind the socket (replacing a stale file), loop accepting
    connections, and serve until a [shutdown] request (or
    [?max_requests] — tests bound the loop). Each drained batch is
    dispatched over the persistent pool. The socket file is unlinked on
    the way out. *)
