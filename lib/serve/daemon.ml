module Json = Hlsb_telemetry.Json
module Metrics = Hlsb_telemetry.Metrics
module Trace = Hlsb_telemetry.Trace
module Diag = Hlsb_util.Diag
module Pool = Hlsb_util.Pool
module Atomic_file = Hlsb_util.Atomic_file
module Ledger = Hlsb_obs.Ledger
module Log = Hlsb_obs.Log
module Pipeline = Core.Pipeline
module Style = Hlsb_ctrl.Style
module Suite = Hlsb_designs.Suite
module Spec = Hlsb_designs.Spec
module Device = Hlsb_device.Device

let socket_env_var = "HLSBD_SOCKET"
let default_socket = Filename.concat ".hlsb" "hlsbd.sock"

let ambient_socket () =
  match Sys.getenv_opt socket_env_var with
  | Some s when s <> "" -> s
  | _ -> default_socket

(* One warm pipeline session per distinct compile input; requests that
   share the session serialize on its lock while unrelated requests run
   in parallel on the pool. *)
type slot = { sl_session : Pipeline.session; sl_mutex : Mutex.t }

type t = {
  d_store : Store.t;
  d_ledger : bool;
  d_sessions : (string, slot) Hashtbl.t;
  d_sessions_mu : Mutex.t;
  d_mu : Mutex.t;
  mutable d_requests : int;
  d_stop : bool Atomic.t;
}

let create ?budget_bytes ?store_root ?(ledger = true) () =
  let root = match store_root with Some r -> r | None -> Store.ambient_root () in
  {
    d_store = Store.open_ ?budget_bytes ~root ();
    d_ledger = ledger;
    d_sessions = Hashtbl.create 16;
    d_sessions_mu = Mutex.create ();
    d_mu = Mutex.create ();
    d_requests = 0;
    d_stop = Atomic.make false;
  }

let store t = t.d_store
let requests_served t = Mutex.protect t.d_mu (fun () -> t.d_requests)

let session_for t ~key mk =
  Mutex.protect t.d_sessions_mu (fun () ->
    match Hashtbl.find_opt t.d_sessions key with
    | Some slot -> slot
    | None ->
      let slot = { sl_session = mk (); sl_mutex = Mutex.create () } in
      Hashtbl.add t.d_sessions key slot;
      slot)

let artifact_of_result r =
  Json.to_string ~minify:false (Pipeline.result_to_json r) ^ "\n"

(* The store key of a [compile] or [cc] verb: the device's fingerprint
   and the verb's own wire encoding, its names already resolved. The
   encoding carries every input the artifact depends on (recipe, target,
   injection, plan, cc source), and Json spells each float so that it
   reads back exactly, so distinct requests never share a key. *)
let store_key ~device verb =
  Store.key
    ~parts:
      [ Device.fingerprint device; Json.to_string (Protocol.verb_to_json verb) ]

(* The store-backed serving discipline shared by [compile] and [cc]:
   look the key up in the client's namespace; on miss run the compile
   thunk, publish the bytes, and answer with exactly the bytes the store
   now holds — so hit and miss responses are byte-identical.
   This is the daemon's only store lookup, so the store's own hit and
   miss counters are exactly these verbs'. *)
let serve_artifact t ~id ~ns ~device verb compile =
  let key = store_key ~device verb in
  match Store.find t.d_store ~ns ~key with
  | Some bytes -> Protocol.ok ~hit:true ~key ~id bytes
  | None ->
    let bytes = compile () in
    (match Store.put t.d_store ~ns ~key bytes with
    | Ok () -> ()
    | Error msg -> Log.warn "artifact store put %s: %s" key msg);
    Protocol.ok ~hit:false ~key ~id bytes

let run_artifact slot run =
  Mutex.protect slot.sl_mutex (fun () ->
    match run slot.sl_session with
    | Ok r -> artifact_of_result r
    | Error d -> raise (Diag.Diagnostic d))

let handle_compile t ~id ~ns (c : Protocol.compile_req) =
  match Suite.resolve c.cp_design with
  | None ->
    Protocol.fail ~id
      (Diag.error ~stage:"serve"
         ~entity:(Diag.Design c.cp_design)
         (Printf.sprintf "unknown design %S (hlsbc list names them)"
            c.cp_design))
  | Some spec ->
    let slot =
      session_for t ~key:("design:" ^ spec.Spec.sp_name) (fun () ->
        Pipeline.of_spec spec)
    in
    serve_artifact t ~id ~ns ~device:spec.Spec.sp_device
      (Protocol.Compile { c with cp_design = spec.Spec.sp_name })
      (fun () ->
        run_artifact slot
          (Pipeline.run ?target_mhz:c.cp_target_mhz ?inject:c.cp_inject
             ~recipe:c.cp_recipe))

let handle_cc t ~id ~ns (c : Protocol.cc_req) =
  match Hlsb_frontend.Frontend.parse c.cc_source with
  | Error e ->
    Protocol.fail ~id
      (Diag.error ~stage:"parse"
         ~entity:(Diag.Design c.cc_name)
         (Format.asprintf "%a" Hlsb_frontend.Frontend.pp_error e))
  | Ok program ->
    let device = Device.ultrascale_plus in
    let slot =
      session_for t
        ~key:(Printf.sprintf "cc:%s\x00%s" c.cc_name c.cc_source)
        (fun () -> Pipeline.of_program ~device ~name:c.cc_name program)
    in
    serve_artifact t ~id ~ns ~device (Protocol.Cc c) (fun () ->
      run_artifact slot (Pipeline.run ~plan:c.cc_plan ~recipe:c.cc_recipe))

let status_json t =
  let st = Store.stats t.d_store in
  let requests = Mutex.protect t.d_mu (fun () -> t.d_requests) in
  Json.Obj
    [
      ("schema", Json.Str "hlsbd-status/1");
      ("pid", Json.Int (Unix.getpid ()));
      ("requests", Json.Int requests);
      ("hits", Json.Int st.Store.st_hits);
      ("misses", Json.Int st.Store.st_misses);
      ("hit_rate", Json.Float (Store.hit_rate t.d_store));
      ( "store",
        Json.Obj
          [
            ("root", Json.Str (Store.root t.d_store));
            ("budget_bytes", Json.Int (Store.budget_bytes t.d_store));
            ("entries", Json.Int st.Store.st_entries);
            ("bytes", Json.Int st.Store.st_bytes);
            ("puts", Json.Int st.Store.st_puts);
            ("evictions", Json.Int st.Store.st_evictions);
          ] );
    ]

let record_request t (req : Protocol.request) (resp : Protocol.response)
    (st : Ledger.stage) =
  Metrics.incr "serve.requests";
  Metrics.set_gauge "serve.store_hit_rate" (Store.hit_rate t.d_store);
  if t.d_ledger && Ledger.enabled () then begin
    let label =
      Printf.sprintf "%s %s"
        (Protocol.verb_name req.Protocol.q_verb)
        (match req.Protocol.q_verb with
        | Protocol.Compile c -> c.Protocol.cp_design
        | Protocol.Cc c -> c.Protocol.cc_name
        | Protocol.Status | Protocol.Gc | Protocol.Shutdown -> "-")
    in
    let recipe =
      match req.Protocol.q_verb with
      | Protocol.Compile c -> Some (Style.label c.Protocol.cp_recipe)
      | Protocol.Cc c -> Some (Style.label c.Protocol.cc_recipe)
      | _ -> None
    in
    let cache =
      [
        ("serve.hit", if resp.Protocol.p_hit then 1 else 0);
        ("serve.ok", if resp.Protocol.p_error = None then 1 else 0);
      ]
    in
    let st =
      if resp.Protocol.p_error = None then st
      else { st with Ledger.st_status = Ledger.Failed }
    in
    match
      Ledger.append ~sync:true
        (Ledger.make ?recipe ~stages:[ st ] ~cache ~cmd:"serve" ~label ())
    with
    | Ok _ -> ()
    | Error msg -> Log.warn "run ledger: %s" msg
  end

let handle t (req : Protocol.request) =
  let id = req.Protocol.q_id in
  let ns = req.Protocol.q_ns in
  let resp, st =
    Ledger.measure "serve" (fun () ->
      Trace.with_span "serve.request"
        ~attrs:
          [
            ("verb", Json.Str (Protocol.verb_name req.Protocol.q_verb));
            ("ns", Json.Str ns);
          ]
        (fun () ->
          try
            match req.Protocol.q_verb with
            | Protocol.Compile c -> handle_compile t ~id ~ns c
            | Protocol.Cc c -> handle_cc t ~id ~ns c
            | Protocol.Status ->
              Protocol.ok ~id
                (Json.to_string ~minify:false (status_json t) ^ "\n")
            | Protocol.Gc ->
              let evicted = Store.gc t.d_store in
              Protocol.ok ~id
                (Json.to_string ~minify:false
                   (Json.Obj
                      [
                        ("schema", Json.Str "hlsbd-gc/1");
                        ("evicted", Json.Int evicted);
                      ])
                ^ "\n")
            | Protocol.Shutdown ->
              Atomic.set t.d_stop true;
              Protocol.ok ~id ""
          with
          | Diag.Diagnostic d -> Protocol.fail ~id d
          | exn ->
            Protocol.fail ~id
              (Diag.error ~stage:"serve" (Printexc.to_string exn))))
  in
  let resp = match resp with Ok r -> r | Error e -> raise e in
  Mutex.protect t.d_mu (fun () -> t.d_requests <- t.d_requests + 1);
  record_request t req resp st;
  resp

(* ---- the socket loop ----------------------------------------------- *)

let serve_conn t conn =
  Fun.protect
    ~finally:(fun () -> try Unix.close conn with Unix.Unix_error _ -> ())
    (fun () ->
      match Protocol.read_frame conn with
      | Error msg -> Log.warn "hlsbd: bad request frame: %s" msg
      | Ok j -> (
        let resp =
          match Protocol.request_of_json j with
          | Ok req -> handle t req
          | Error msg ->
            (* Echo the frame's id when it has one, so the client reports
               this diagnostic rather than an id mismatch. *)
            let id = Result.value ~default:"" (Json.str_field "id" j) in
            Protocol.fail ~id (Diag.error ~stage:"protocol" msg)
        in
        match Protocol.write_frame conn (Protocol.response_to_json resp) with
        | Ok () -> ()
        | Error msg -> Log.warn "hlsbd: response write: %s" msg))

let serve ?max_requests t ~socket =
  let dir = Filename.dirname socket in
  if dir <> "" && dir <> "." then Atomic_file.mkdir_p dir;
  (try Unix.unlink socket with Unix.Unix_error _ | Sys_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match
    Unix.bind fd (Unix.ADDR_UNIX socket);
    Unix.listen fd 64
  with
  | exception Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error (Printf.sprintf "bind %s: %s" socket (Unix.error_message e))
  | () ->
    Log.info "hlsbd: listening on %s (store %s)" socket (Store.root t.d_store);
    let served = ref 0 in
    let under_budget () =
      match max_requests with None -> true | Some n -> !served < n
    in
    (* Drain every connection already pending behind the one accept we
       blocked on: the batch is the daemon's scheduling unit, and its
       size is the queue-depth gauge. *)
    let drain_pending first =
      let batch = ref [ first ] in
      served := !served + 1;
      let rec go () =
        if under_budget () then
          match Unix.select [ fd ] [] [] 0. with
          | [ _ ], _, _ -> (
            match Unix.accept fd with
            | conn, _ ->
              batch := conn :: !batch;
              served := !served + 1;
              go ()
            | exception Unix.Unix_error _ -> ())
          | _ -> ()
      in
      go ();
      List.rev !batch
    in
    while Atomic.get t.d_stop = false && under_budget () do
      match Unix.accept fd with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error (e, _, _) ->
        Log.warn "hlsbd: accept: %s" (Unix.error_message e);
        Atomic.set t.d_stop true
      | conn, _ ->
        let batch = drain_pending conn in
        Metrics.set_gauge_int "serve.queue_depth" (List.length batch);
        ignore (Pool.map_list (serve_conn t) batch)
    done;
    (try Unix.close fd with Unix.Unix_error _ -> ());
    (try Unix.unlink socket with Unix.Unix_error _ | Sys_error _ -> ());
    Log.info "hlsbd: stopped after %d request(s)" (requests_served t);
    Ok ()
