(* Compile-service tests: the content-addressed store (round-trip,
   namespace isolation, key scheme and sensitivity, LRU eviction, and
   its faults: corrupt entries, a killed writer's temp file, a root that
   is not a directory), cross-PROCESS concurrency on the hardened writer
   (two re-exec'd worker processes hammering Store.put on shared keys
   must leave only complete entries), the hlsbd protocol codec and
   framing, and the daemon itself — in-process via Daemon.handle (repeat
   compile is a store hit, byte-identical to the in-process Pipeline
   result) and over a real Unix socket via Client. *)

module Json = Hlsb_telemetry.Json
module Metrics = Hlsb_telemetry.Metrics
module Diag = Hlsb_util.Diag
module Atomic_file = Hlsb_util.Atomic_file
module Calibrate = Hlsb_delay.Calibrate
module Device = Hlsb_device.Device
module Style = Hlsb_ctrl.Style
module Spec = Hlsb_designs.Spec
module Suite = Hlsb_designs.Suite
module Store = Hlsb_serve.Store
module Protocol = Hlsb_serve.Protocol
module Daemon = Hlsb_serve.Daemon
module Client = Hlsb_serve.Client
module Ledger = Hlsb_obs.Ledger

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let with_temp_dir f =
  let base = Filename.temp_file "hlsb-serve" "" in
  Sys.remove base;
  Sys.mkdir base 0o755;
  Fun.protect ~finally:(fun () -> rm_rf base) (fun () -> f base)

(* ---- store round-trip / isolation / keys ---- *)

let test_store_roundtrip () =
  with_temp_dir (fun root ->
    let t = Store.open_ ~root () in
    let key = Store.key ~parts:[ "compile"; "devfp"; "vec"; "optimized" ] in
    Alcotest.(check (option string)) "cold miss" None (Store.find t ~ns:"a" ~key);
    (match Store.put t ~ns:"a" ~key "artifact-bytes\n" with
    | Ok () -> ()
    | Error m -> Alcotest.fail m);
    Alcotest.(check (option string))
      "hit returns the bytes" (Some "artifact-bytes\n")
      (Store.find t ~ns:"a" ~key);
    let st = Store.stats t in
    Alcotest.(check int) "one entry" 1 st.Store.st_entries;
    Alcotest.(check int) "hit counted" 1 st.Store.st_hits;
    Alcotest.(check int) "miss counted" 1 st.Store.st_misses;
    Alcotest.(check int) "put counted" 1 st.Store.st_puts;
    Alcotest.(check int) "bytes on disk"
      (String.length "artifact-bytes\n")
      st.Store.st_bytes)

let test_store_namespace_isolation () =
  with_temp_dir (fun root ->
    let t = Store.open_ ~root () in
    let key = Store.key ~parts:[ "k" ] in
    (match Store.put t ~ns:"alice" ~key "alice-bytes" with
    | Ok () -> ()
    | Error m -> Alcotest.fail m);
    Alcotest.(check (option string))
      "other namespace cannot see it" None
      (Store.find t ~ns:"bob" ~key);
    Alcotest.(check (option string))
      "owner still hits" (Some "alice-bytes")
      (Store.find t ~ns:"alice" ~key))

let test_store_key_sensitivity () =
  let base = [ "compile"; "fp"; "rev"; "design"; "optimized||@300" ] in
  let k = Store.key ~parts:base in
  Alcotest.(check string) "key is deterministic" k (Store.key ~parts:base);
  List.iteri
    (fun i _ ->
      let tweaked = List.mapi (fun j p -> if i = j then p ^ "x" else p) base in
      Alcotest.(check bool)
        (Printf.sprintf "part %d changes the key" i)
        true
        (Store.key ~parts:tweaked <> k))
    base;
  (* '\x00' joining means parts cannot alias across boundaries *)
  Alcotest.(check bool) "no concatenation aliasing" true
    (Store.key ~parts:[ "ab"; "c" ] <> Store.key ~parts:[ "a"; "bc" ])

let test_store_key_scheme () =
  let parts = [ "compile"; "fp"; "design"; "optimized" ] in
  Alcotest.(check int) "build id is 32 hex digits" 32
    (String.length Build_id.digest);
  Alcotest.(check string) "key = MD5 of schema, build id, parts"
    (Digest.to_hex
       (Digest.string
          (String.concat "\x00" (Store.schema :: Build_id.digest :: parts))))
    (Store.key ~parts)

let entry_path root ~ns ~key =
  Filename.concat
    (Filename.concat (Filename.concat root ns) (String.sub key 0 2))
    key

let write_file path bytes =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc bytes)

let put_ok t ~ns ~key bytes =
  match Store.put t ~ns ~key bytes with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

(* [f ()] with stderr sent to a temp file: its result and the lines it
   printed there. *)
let capture_stderr f =
  let path = Filename.temp_file "hlsb-stderr" ".txt" in
  let saved = Unix.dup Unix.stderr in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  let v =
    Fun.protect
      ~finally:(fun () ->
        flush stderr;
        Unix.dup2 saved Unix.stderr;
        Unix.close saved)
      f
  in
  let lines =
    String.split_on_char '\n' (Option.get (Atomic_file.read path))
    |> List.filter (( <> ) "")
  in
  Sys.remove path;
  (v, lines)

let test_store_corrupt_entries_evicted () =
  with_temp_dir (fun root ->
    let t = Store.open_ ~root () in
    let payload = "artifact-bytes\n" ^ String.make 200 'p' in
    let flip_last file =
      let b = Bytes.of_string file in
      let i = Bytes.length b - 3 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
      Bytes.to_string b
    in
    List.iter
      (fun (what, corrupt) ->
        let key = Store.key ~parts:[ "fault"; what ] in
        let path = entry_path root ~ns:"f" ~key in
        put_ok t ~ns:"f" ~key payload;
        write_file path (corrupt (Option.get (Atomic_file.read path)));
        let misses = (Store.stats t).Store.st_misses in
        let got, lines = capture_stderr (fun () -> Store.find t ~ns:"f" ~key) in
        Alcotest.(check (option string)) (what ^ " reads as None") None got;
        Alcotest.(check int) (what ^ " counts a miss") (misses + 1)
          (Store.stats t).Store.st_misses;
        Alcotest.(check bool) (what ^ " entry evicted") false
          (Sys.file_exists path);
        Alcotest.(check int) (what ^ " warns once") 1 (List.length lines);
        Alcotest.(check bool) (what ^ " warning is a store diagnostic") true
          (String.starts_with ~prefix:"warning[store]" (List.hd lines));
        put_ok t ~ns:"f" ~key payload;
        Alcotest.(check (option string)) (what ^ " rewritten by the next put")
          (Some payload) (Store.find t ~ns:"f" ~key))
      [
        ("truncated", fun file -> String.sub file 0 (String.length file - 7));
        ("bit-flipped", flip_last);
        ("garbage", fun _ -> "not a store entry");
      ])

let test_store_leftover_temp_ignored () =
  with_temp_dir (fun root ->
    (* budget 0: gc would evict every entry it can see *)
    let t = Store.open_ ~budget_bytes:0 ~root () in
    let key = Store.key ~parts:[ "killed writer" ] in
    let path = entry_path root ~ns:"k" ~key in
    let tmp = path ^ ".tmp." ^ Atomic_file.temp_suffix () in
    Atomic_file.mkdir_p (Filename.dirname path);
    write_file tmp "half-written";
    Alcotest.(check (option string)) "find ignores the temp file" None
      (Store.find t ~ns:"k" ~key);
    let st = Store.stats t in
    Alcotest.(check int) "stats count no entry" 0 st.Store.st_entries;
    Alcotest.(check int) "stats count no bytes" 0 st.Store.st_bytes;
    put_ok t ~ns:"k" ~key:(Store.key ~parts:[ "live" ]) "live";
    Alcotest.(check int) "gc evicts only the real entry" 1 (Store.gc t);
    Alcotest.(check bool) "temp file left alone" true (Sys.file_exists tmp))

let test_store_root_is_a_file () =
  with_temp_dir (fun dir ->
    let root = Filename.concat dir "not-a-dir" in
    write_file root "x";
    let t = Store.open_ ~root () in
    Alcotest.(check bool) "put returns Error" true
      (Result.is_error (Store.put t ~ns:"n" ~key:(Store.key ~parts:[ "k" ]) "v"));
    Alcotest.(check (option string)) "find misses" None
      (Store.find t ~ns:"n" ~key:(Store.key ~parts:[ "k" ]));
    (* calibration over such a root still answers, from memory, and says
       once per process that it could not persist *)
    let i32 = Hlsb_ir.Dtype.Int 32 in
    let lookup cal factor =
      let reg = Metrics.create () in
      let d, lines =
        capture_stderr (fun () ->
          Metrics.with_registry reg (fun () ->
            Calibrate.resolved_delay (Calibrate.resolve cal Hlsb_ir.Op.Add i32) ~factor))
      in
      (d, lines, reg)
    in
    let cal = Calibrate.create ~cache_dir:root Device.ultrascale_plus in
    let d, lines, reg = lookup cal 64 in
    Alcotest.(check (float 0.)) "same delay as an uncached calibrator"
      (Calibrate.resolved_delay
         (Calibrate.resolve (Calibrate.create Device.ultrascale_plus) Hlsb_ir.Op.Add i32)
         ~factor:64)
      d;
    Alcotest.(check int) "one warning line" 1 (List.length lines);
    Alcotest.(check bool) "warning is a store diagnostic" true
      (String.starts_with ~prefix:"warning[store]" (List.hd lines));
    Alcotest.(check int) "failed persist counted" 1
      (Metrics.counter_value reg "calibrate.persist_errors");
    let _, lines, reg = lookup cal 8 in
    Alcotest.(check int) "second lookup answered from memory" 0
      (Metrics.counter_value reg "calibrate.curve_builds");
    Alcotest.(check int) "nothing more to persist" 0 (List.length lines);
    let _, lines, reg =
      lookup (Calibrate.create ~cache_dir:root Device.ultrascale_plus) 8
    in
    Alcotest.(check int) "a second failure is counted" 1
      (Metrics.counter_value reg "calibrate.persist_errors");
    Alcotest.(check int) "but not warned again" 0 (List.length lines))

let test_store_lru_eviction () =
  with_temp_dir (fun root ->
    (* budget of 3 payloads; 5 puts with strictly increasing mtimes *)
    let payload i = Printf.sprintf "payload-%d-%s" i (String.make 100 'x') in
    let bytes = String.length (payload 0) in
    let t = Store.open_ ~budget_bytes:(3 * bytes) ~root () in
    let keys = List.init 5 (fun i -> Store.key ~parts:[ "e"; string_of_int i ]) in
    List.iteri
      (fun i key ->
        (match Store.put t ~ns:"n" ~key (payload i) with
        | Ok () -> ()
        | Error m -> Alcotest.fail m);
        (* the LRU clock is mtime: age each entry behind the next *)
        let path =
          Filename.concat
            (Filename.concat (Filename.concat root "n")
               (String.sub key 0 2))
            key
        in
        let age = float_of_int (1000 - (100 * i)) in
        Unix.utimes path (Unix.gettimeofday () -. age)
          (Unix.gettimeofday () -. age))
      keys;
    ignore (Store.gc t);
    let st = Store.stats t in
    Alcotest.(check int) "evicted down to budget" 3 st.Store.st_entries;
    Alcotest.(check bool) "within budget" true (st.Store.st_bytes <= 3 * bytes);
    (* oldest two (0, 1) evicted; newest three survive *)
    List.iteri
      (fun i key ->
        let got = Store.find t ~ns:"n" ~key in
        if i < 2 then
          Alcotest.(check (option string))
            (Printf.sprintf "entry %d evicted" i)
            None got
        else
          Alcotest.(check (option string))
            (Printf.sprintf "entry %d survives" i)
            (Some (payload i)) got)
      keys)

(* Opening reads no entries; the byte total is read on the first put, so
   a second handle on a populated root still evicts to its budget. *)
let test_store_second_handle_evicts () =
  with_temp_dir (fun root ->
    let payload i = Printf.sprintf "payload-%d-%s" i (String.make 100 'x') in
    let bytes = String.length (payload 0) in
    let key i = Store.key ~parts:[ "e"; string_of_int i ] in
    let put t i =
      match Store.put t ~ns:"n" ~key:(key i) (payload i) with
      | Ok () -> ()
      | Error m -> Alcotest.fail m
    in
    let first = Store.open_ ~root () in
    List.iter (put first) [ 0; 1; 2; 3 ];
    let second = Store.open_ ~budget_bytes:(2 * bytes) ~root () in
    put second 4;
    let st = Store.stats second in
    Alcotest.(check bool) "within budget after the first put" true
      (st.Store.st_bytes <= 2 * bytes);
    Alcotest.(check int) "evicted the older entries" 3 st.Store.st_evictions;
    Alcotest.(check (option string)) "the new entry survives" (Some (payload 4))
      (Store.find second ~ns:"n" ~key:(key 4)))

let test_sanitize_ns () =
  Alcotest.(check string) "passthrough" "uid1000" (Store.sanitize_ns "uid1000");
  Alcotest.(check string) "lowered and stripped" "alicehost"
    (Store.sanitize_ns "Alice@Host!");
  Alcotest.(check string) "empty becomes default" "default"
    (Store.sanitize_ns "../..")

(* ---- cross-process writers (the temp-name collision bug) ---- *)

let hammer_iters = 30
let hammer_keys = 8
let worker_env_var = "HLSB_T_SERVE_WORKER"

let hammer_payload tag k =
  Printf.sprintf "%s:%d:%s\n" tag k (String.make 2048 tag.[0])

(* Re-exec'd worker body: hammer Store.put against a root shared with a
   sibling process. Returns the exit code. *)
let worker spec =
  match String.split_on_char '|' spec with
  | [ "hammer"; store_root; ns; tag ] ->
    let st = Store.open_ ~root:store_root () in
    let ok = ref true in
    for i = 0 to hammer_iters - 1 do
      let k = i mod hammer_keys in
      let key = Store.key ~parts:[ "hammer"; string_of_int k ] in
      (match Store.put st ~ns ~key (hammer_payload tag k) with
      | Ok () -> ()
      | Error _ -> ok := false)
    done;
    if !ok then 0 else 1
  | _ ->
    prerr_endline ("t_serve worker: bad spec " ^ spec);
    2

let spawn_worker spec =
  let env =
    Array.append (Unix.environment ())
      [| Printf.sprintf "%s=%s" worker_env_var spec |]
  in
  Unix.create_process_env Sys.executable_name
    [| Sys.executable_name |]
    env Unix.stdin Unix.stdout Unix.stderr

let test_multiprocess_writers () =
  with_temp_dir (fun store_root ->
    let spec tag = String.concat "|" [ "hammer"; store_root; "ns"; tag ] in
    let p1 = spawn_worker (spec "aa") in
    let p2 = spawn_worker (spec "bb") in
    let wait p =
      match Unix.waitpid [] p with
      | _, Unix.WEXITED 0 -> ()
      | _, Unix.WEXITED n ->
        Alcotest.failf "writer process exited with %d (torn file seen?)" n
      | _ -> Alcotest.fail "writer process killed"
    in
    wait p1;
    wait p2;
    (* every hammered store entry is one writer's payload, never an
       interleaving *)
    let st = Store.open_ ~root:store_root () in
    for k = 0 to hammer_keys - 1 do
      let key = Store.key ~parts:[ "hammer"; string_of_int k ] in
      match Store.find st ~ns:"ns" ~key with
      | None -> Alcotest.failf "store entry %d missing" k
      | Some bytes ->
        Alcotest.(check bool)
          (Printf.sprintf "entry %d is a complete payload" k)
          true
          (bytes = hammer_payload "aa" k || bytes = hammer_payload "bb" k)
    done)

(* ---- protocol codec + framing ---- *)

let sample_requests =
  [
    {
      Protocol.q_id = "1";
      q_ns = "alice";
      q_verb =
        Protocol.Compile
          {
            Protocol.cp_design = "Vector Arithmetic";
            cp_recipe = Style.optimized;
            cp_target_mhz = Some 350.;
            cp_inject = Some { Hlsb_sched.Schedule.inj_top = 2; inj_levels = 1 };
          };
    };
    {
      Protocol.q_id = "2";
      q_ns = "bob";
      q_verb =
        Protocol.Cc
          {
            Protocol.cc_name = "k";
            cc_source = "void k() {\n}\n";
            cc_recipe = Style.original;
            cc_plan =
              (match Hlsb_transform.Plan.of_string "unroll=4;channel-reuse" with
              | Ok p -> p
              | Error _ -> assert false);
          };
    };
    { Protocol.q_id = "3"; q_ns = "c"; q_verb = Protocol.Status };
    { Protocol.q_id = "4"; q_ns = "d"; q_verb = Protocol.Gc };
    { Protocol.q_id = "5"; q_ns = "e"; q_verb = Protocol.Shutdown };
  ]

let test_protocol_request_roundtrip () =
  List.iter
    (fun req ->
      let j = Protocol.request_to_json req in
      (* through the actual wire bytes, not just the tree *)
      let text = Json.to_string ~minify:true j in
      match Json.of_string text with
      | Error m -> Alcotest.fail m
      | Ok j' -> (
        match Protocol.request_of_json j' with
        | Error m -> Alcotest.fail m
        | Ok req' ->
          Alcotest.(check bool)
            (Printf.sprintf "request %s round-trips" req.Protocol.q_id)
            true (req = req')))
    sample_requests

let test_protocol_response_roundtrip () =
  let diag =
    Diag.error ~stage:"lower"
      ~entity:(Diag.Channel "c0")
      "fifo width mismatch"
  in
  let samples =
    [
      Protocol.ok ~hit:true ~key:"abc" ~id:"1" "artifact\nbytes\n";
      Protocol.ok ~id:"2" "";
      Protocol.fail ~id:"3" diag;
    ]
  in
  List.iter
    (fun resp ->
      match Protocol.response_of_json (Protocol.response_to_json resp) with
      | Error m -> Alcotest.fail m
      | Ok resp' ->
        Alcotest.(check bool)
          (Printf.sprintf "response %s round-trips" resp.Protocol.p_id)
          true (resp = resp'))
    samples;
  (* the diagnostic payload survives with stage and entity intact *)
  match Protocol.diag_of_json (Protocol.diag_to_json diag) with
  | Error m -> Alcotest.fail m
  | Ok d ->
    Alcotest.(check string) "stage" "lower" d.Diag.d_stage;
    Alcotest.(check bool) "entity" true (d.Diag.d_entity = Some (Diag.Channel "c0"))

let test_protocol_rejects_wrong_schema () =
  let j =
    Json.Obj
      [ ("schema", Json.Str "hlsbd/999"); ("id", Json.Str "x");
        ("ns", Json.Str "n"); ("verb", Json.Str "status") ]
  in
  Alcotest.(check bool) "wrong schema rejected" true
    (Result.is_error (Protocol.request_of_json j))

let test_framing_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      let req = List.hd sample_requests in
      (* artifact bytes with embedded newlines must frame cleanly *)
      let resp = Protocol.ok ~id:"1" "line1\nline2\n" in
      (match Protocol.write_frame a (Protocol.request_to_json req) with
      | Ok () -> ()
      | Error m -> Alcotest.fail m);
      (match Protocol.read_frame b with
      | Error m -> Alcotest.fail m
      | Ok j ->
        Alcotest.(check bool) "request over the wire" true
          (Protocol.request_of_json j = Ok req));
      (match Protocol.write_frame b (Protocol.response_to_json resp) with
      | Ok () -> ()
      | Error m -> Alcotest.fail m);
      match Protocol.read_frame a with
      | Error m -> Alcotest.fail m
      | Ok j ->
        Alcotest.(check bool) "response over the wire" true
          (Protocol.response_of_json j = Ok resp))

(* ---- the daemon ---- *)

let vec_spec =
  match Suite.find "Vector Arithmetic" with
  | Some s -> s
  | None -> Alcotest.fail "Vector Arithmetic missing from the suite"

let compile_verb =
  Protocol.Compile
    {
      Protocol.cp_design = vec_spec.Spec.sp_name;
      cp_recipe = Style.optimized;
      cp_target_mhz = None;
      cp_inject = None;
    }

let req ?(ns = "t") id verb = { Protocol.q_id = id; q_ns = ns; q_verb = verb }

let check_ok (resp : Protocol.response) =
  match resp.Protocol.p_error with
  | None -> resp
  | Some d -> Alcotest.failf "daemon error: %s" (Diag.to_string d)

let test_daemon_repeat_compile_hits_byte_identical () =
  with_temp_dir (fun root ->
    let t = Daemon.create ~store_root:root ~ledger:false () in
    let r1 = check_ok (Daemon.handle t (req "1" compile_verb)) in
    Alcotest.(check bool) "first compile misses" false r1.Protocol.p_hit;
    let r2 = check_ok (Daemon.handle t (req "2" compile_verb)) in
    Alcotest.(check bool) "repeat compile is a store hit" true
      r2.Protocol.p_hit;
    Alcotest.(check string) "same key" r1.Protocol.p_key r2.Protocol.p_key;
    Alcotest.(check string) "byte-identical artifact" r1.Protocol.p_artifact
      r2.Protocol.p_artifact;
    (* ... and byte-identical to what an in-process compile prints *)
    let r =
      Core.Pipeline.run_exn (Core.Pipeline.of_spec vec_spec)
        ~recipe:Style.optimized
    in
    Alcotest.(check string) "matches the in-process result record"
      (Json.to_string ~minify:false (Core.Pipeline.result_to_json r) ^ "\n")
      r1.Protocol.p_artifact;
    (* a different namespace cannot be served from alice's artifacts *)
    let r3 = check_ok (Daemon.handle t (req ~ns:"other" "3" compile_verb)) in
    Alcotest.(check bool) "fresh namespace misses" false r3.Protocol.p_hit;
    Alcotest.(check string) "but compiles the same bytes"
      r1.Protocol.p_artifact r3.Protocol.p_artifact;
    (* a persisted store serves a brand-new daemon (a new process, as far
       as keys are concerned) from disk *)
    let t2 = Daemon.create ~store_root:root ~ledger:false () in
    let r4 = check_ok (Daemon.handle t2 (req "4" compile_verb)) in
    Alcotest.(check bool) "fresh daemon hits the persisted store" true
      r4.Protocol.p_hit;
    Alcotest.(check string) "same bytes from disk" r1.Protocol.p_artifact
      r4.Protocol.p_artifact)

(* The daemon files a compile under the device fingerprint and the
   verb's wire encoding. A relaxed design name resolves to the suite name
   first, so it hits that name's entry; every input the artifact depends
   on changes the key, so a changed request misses. *)
let pc_source =
  {|void pc(stream<int> &in_fifo, stream<int> &out_fifo) {
  int tmp[64];
  for (int i = 0; i < 64; i++) { tmp[i] = in_fifo.read() * 3; }
  for (int i = 0; i < 64; i++) { out_fifo.write(tmp[i] + 1); }
}
|}

let test_daemon_keys () =
  with_temp_dir (fun root ->
    let t = Daemon.create ~store_root:root ~ledger:false () in
    let r1 = check_ok (Daemon.handle t (req "1" compile_verb)) in
    let relaxed =
      Protocol.Compile
        {
          Protocol.cp_design = "vector-arithmetic";
          cp_recipe = Style.optimized;
          cp_target_mhz = None;
          cp_inject = None;
        }
    in
    let r2 = check_ok (Daemon.handle t (req "2" relaxed)) in
    Alcotest.(check bool) "a relaxed name hits the suite name's entry" true
      r2.Protocol.p_hit;
    Alcotest.(check string) "under the same key" r1.Protocol.p_key
      r2.Protocol.p_key;
    Alcotest.(check string) "which is store_key of the verb"
      (Daemon.store_key ~device:vec_spec.Spec.sp_device compile_verb)
      r1.Protocol.p_key);
  let compile ?(recipe = Style.optimized) ?target_mhz ?inject () =
    Daemon.store_key ~device:vec_spec.Spec.sp_device
      (Protocol.Compile
         {
           Protocol.cp_design = vec_spec.Spec.sp_name;
           cp_recipe = recipe;
           cp_target_mhz = target_mhz;
           cp_inject = inject;
         })
  in
  let plan s = Result.get_ok (Hlsb_transform.Plan.of_string s) in
  let cc ?(plan = Hlsb_transform.Plan.identity) ?(source = pc_source) () =
    Daemon.store_key ~device:Device.ultrascale_plus
      (Protocol.Cc
         {
           Protocol.cc_name = "pc";
           cc_source = source;
           cc_recipe = Style.optimized;
           cc_plan = plan;
         })
  in
  let inject top levels =
    { Hlsb_sched.Schedule.inj_top = top; inj_levels = levels }
  in
  Alcotest.(check string) "a key is deterministic" (compile ~target_mhz:300. ())
    (compile ~target_mhz:300. ());
  List.iter
    (fun (name, a, b) ->
      Alcotest.(check bool) (name ^ " misses") true (a <> b))
    [
      ( "391.2341 vs 391.2344 MHz",
        compile ~target_mhz:391.2341 (),
        compile ~target_mhz:391.2344 () );
      ("0.1 +. 0.2 vs 0.3 MHz", compile ~target_mhz:(0.1 +. 0.2) (),
       compile ~target_mhz:0.3 ());
      ("no target vs 300 MHz", compile (), compile ~target_mhz:300. ());
      ("no injection vs one", compile (), compile ~inject:(inject 1 1) ());
      ( "a different injection",
        compile ~inject:(inject 1 1) (),
        compile ~inject:(inject 2 1) () );
      ("a different recipe", compile (), compile ~recipe:Style.original ());
      ("a different plan", cc (), cc ~plan:(plan "stream=tmp") ());
      ("a different cc source", cc (), cc ~source:(pc_source ^ "\n") ());
      ( "another device",
        cc (),
        Daemon.store_key ~device:Device.alveo_u50
          (Protocol.Cc
             {
               Protocol.cc_name = "pc";
               cc_source = pc_source;
               cc_recipe = Style.optimized;
               cc_plan = Hlsb_transform.Plan.identity;
             }) );
    ]

let test_daemon_error_is_structured () =
  with_temp_dir (fun root ->
    let t = Daemon.create ~store_root:root ~ledger:false () in
    let bad =
      Protocol.Compile
        {
          Protocol.cp_design = "No Such Design";
          cp_recipe = Style.optimized;
          cp_target_mhz = None;
          cp_inject = None;
        }
    in
    match (Daemon.handle t (req "1" bad)).Protocol.p_error with
    | None -> Alcotest.fail "unknown design must fail"
    | Some d ->
      Alcotest.(check string) "stage" "serve" d.Diag.d_stage;
      Alcotest.(check bool) "entity names the design" true
        (d.Diag.d_entity = Some (Diag.Design "No Such Design")))

let test_daemon_status_and_gc () =
  with_temp_dir (fun root ->
    let t = Daemon.create ~store_root:root ~ledger:false () in
    ignore (check_ok (Daemon.handle t (req "1" compile_verb)));
    ignore (check_ok (Daemon.handle t (req "2" compile_verb)));
    let status = check_ok (Daemon.handle t (req "3" Protocol.Status)) in
    (match Json.of_string status.Protocol.p_artifact with
    | Error m -> Alcotest.fail m
    | Ok j ->
      Alcotest.(check bool) "status schema" true
        (Json.member "schema" j = Some (Json.Str "hlsbd-status/1"));
      Alcotest.(check bool) "one hit, one miss" true
        (Json.member "hits" j = Some (Json.Int 1)
        && Json.member "misses" j = Some (Json.Int 1));
      (match Json.member "hit_rate" j with
      | Some (Json.Float r) ->
        Alcotest.(check (float 0.)) "hit rate after a repeat compile" 0.5 r
      | _ -> Alcotest.fail "hit_rate missing"));
    let gc = check_ok (Daemon.handle t (req "4" Protocol.Gc)) in
    match Json.of_string gc.Protocol.p_artifact with
    | Error m -> Alcotest.fail m
    | Ok j ->
      Alcotest.(check bool) "gc evicts nothing under budget" true
        (Json.member "evicted" j = Some (Json.Int 0)))

let test_daemon_over_socket () =
  with_temp_dir (fun root ->
    let sock = Filename.temp_file "hlsbd-t" ".sock" in
    Sys.remove sock;
    let t = Daemon.create ~store_root:root ~ledger:false () in
    let server = Domain.spawn (fun () -> Daemon.serve t ~socket:sock) in
    let rec await n =
      if n = 0 then Alcotest.fail "daemon socket never appeared"
      else if Sys.file_exists sock then ()
      else (
        Unix.sleepf 0.05;
        await (n - 1))
    in
    await 100;
    let call verb =
      match Client.call ~socket:sock verb with
      | Ok resp -> check_ok resp
      | Error m -> Alcotest.failf "client: %s" m
    in
    Alcotest.(check bool) "daemon answers status" true
      (Client.available ~socket:sock ());
    let r1 = call compile_verb in
    let r2 = call compile_verb in
    Alcotest.(check bool) "second socket compile hits" true r2.Protocol.p_hit;
    Alcotest.(check string) "byte-identical over the socket"
      r1.Protocol.p_artifact r2.Protocol.p_artifact;
    (* A frame naming a verb the protocol does not serve gets a
       structured refusal, and the daemon answers the next request. *)
    List.iter
      (fun verb ->
        let frame =
          Json.Obj
            [
              ("schema", Json.Str Protocol.schema);
              ("id", Json.Str "raw");
              ("ns", Json.Str "t");
              ("verb", Json.Str verb);
            ]
        in
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        let resp =
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () ->
              Unix.connect fd (Unix.ADDR_UNIX sock);
              Result.bind (Protocol.write_frame fd frame) (fun () ->
                Result.bind (Protocol.read_frame fd) Protocol.response_of_json))
        in
        match resp with
        | Error m -> Alcotest.failf "%s frame: %s" verb m
        | Ok { Protocol.p_error = None; _ } ->
          Alcotest.failf "verb %S must be refused" verb
        | Ok { Protocol.p_error = Some d; p_id; _ } ->
          Alcotest.(check string) (verb ^ ": echoes the frame's id") "raw" p_id;
          Alcotest.(check string) (verb ^ ": protocol stage") "protocol"
            d.Diag.d_stage;
          Alcotest.(check string) (verb ^ ": names the verb")
            (Printf.sprintf "unknown verb %S" verb)
            d.Diag.d_message)
      [ "explore"; "characterize" ];
    let r3 = call compile_verb in
    Alcotest.(check bool) "compile answered after refusals" true
      r3.Protocol.p_hit;
    ignore (call Protocol.Shutdown);
    (match Domain.join server with
    | Ok () -> ()
    | Error m -> Alcotest.failf "serve loop: %s" m);
    Alcotest.(check bool) "socket file removed on exit" false
      (Sys.file_exists sock);
    Alcotest.(check bool) "daemon no longer answers" false
      (Client.available ~socket:sock ()))

(* ---- ledger sync (satellite: torn-append hardening) ---- *)

let test_ledger_sync_append () =
  let path = Filename.temp_file "hlsb-ledger-sync" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let run = Ledger.make ~cmd:"serve" ~label:"sync-test" () in
      (match Ledger.append ~path ~sync:true run with
      | Ok p -> Alcotest.(check string) "path echoed" path p
      | Error m -> Alcotest.fail m);
      match Ledger.load ~path with
      | Error m -> Alcotest.fail m
      | Ok [ loaded ] ->
        Alcotest.(check string) "record intact" run.Ledger.r_id
          loaded.Ledger.r_id
      | Ok l -> Alcotest.failf "expected 1 record, got %d" (List.length l))

(* ---- atomic writer (same-process concurrency) ---- *)

let test_atomic_file_concurrent_writers () =
  with_temp_dir (fun dir ->
    let path = Filename.concat dir "contended" in
    let payload tag = Printf.sprintf "%s:%s\n" tag (String.make 4096 tag.[0]) in
    let tags = [| "a"; "b"; "c"; "d" |] in
    let domains =
      Array.map
        (fun tag ->
          Domain.spawn (fun () ->
            for _ = 1 to 20 do
              Atomic_file.write_exn ~path (payload tag)
            done))
        tags
    in
    Array.iter Domain.join domains;
    match Atomic_file.read path with
    | None -> Alcotest.fail "file missing after concurrent writers"
    | Some bytes ->
      Alcotest.(check bool) "file is one writer's complete payload" true
        (Array.exists (fun tag -> bytes = payload tag) tags))

(* Output paths come from the command line; renaming over a pipe or a
   device (--trace /dev/stdout) would replace it with a plain file. *)
let test_atomic_file_refuses_special_files () =
  with_temp_dir (fun dir ->
    let fifo = Filename.concat dir "fifo" in
    Unix.mkfifo fifo 0o600;
    (match Atomic_file.write ~path:fifo "bytes" with
    | Ok () -> Alcotest.fail "a pipe was replaced"
    | Error _ -> ());
    Alcotest.(check bool) "the pipe is still a pipe" true
      ((Unix.stat fifo).Unix.st_kind = Unix.S_FIFO);
    Alcotest.(check (list string)) "no temp file left" [ "fifo" ]
      (Array.to_list (Sys.readdir dir));
    match Atomic_file.write ~path:(Filename.concat dir "file") "bytes" with
    | Ok () -> ()
    | Error m -> Alcotest.fail m)

(* A full disk: the writer lands part of the bytes and then fails. The
   put is an [Error], leaves no entry and no temp file, and a later find
   misses; a write that stops making progress fails the same way. *)
let test_store_short_write () =
  List.iter
    (fun (what, fail) ->
      with_temp_dir (fun root ->
        let t = Store.open_ ~root () in
        let key = Store.key ~parts:[ "short write"; what ] in
        let calls = ref 0 in
        let full_disk fd b off len =
          incr calls;
          if !calls = 1 then Unix.write fd b off (max 1 (len / 2)) else fail ()
        in
        let r =
          Atomic_file.with_write full_disk (fun () ->
            Store.put t ~ns:"n" ~key (String.make 4096 'x'))
        in
        Alcotest.(check bool) (what ^ ": put returns Error") true (Result.is_error r);
        Alcotest.(check bool) (what ^ ": the disk was written") true (!calls >= 2);
        let st = Store.stats t in
        Alcotest.(check int) (what ^ ": no entry") 0 st.Store.st_entries;
        Alcotest.(check int) (what ^ ": no put counted") 0 st.Store.st_puts;
        let rec files dir =
          Array.to_list (Sys.readdir dir)
          |> List.concat_map (fun f ->
               let p = Filename.concat dir f in
               if Sys.is_directory p then files p else [ p ])
        in
        Alcotest.(check (list string)) (what ^ ": no temp file left") [] (files root);
        Alcotest.(check (option string)) (what ^ ": find misses") None
          (Store.find t ~ns:"n" ~key)))
    [
      ("ENOSPC", fun () -> raise (Unix.Unix_error (Unix.ENOSPC, "write", "")));
      ("no progress", fun () -> 0);
    ]

let test_atomic_temp_suffix_unique () =
  let n = 64 in
  let seen = Hashtbl.create n in
  for _ = 1 to n do
    Hashtbl.replace seen (Atomic_file.temp_suffix ()) ()
  done;
  Alcotest.(check int) "suffixes never repeat in-process" n
    (Hashtbl.length seen)

let suite =
  [
    Alcotest.test_case "store: round-trip + stats" `Quick test_store_roundtrip;
    Alcotest.test_case "store: namespace isolation" `Quick
      test_store_namespace_isolation;
    Alcotest.test_case "store: key sensitivity" `Quick
      test_store_key_sensitivity;
    Alcotest.test_case "store: LRU eviction to budget" `Quick
      test_store_lru_eviction;
    Alcotest.test_case "store: key = MD5 of schema, build id, parts" `Quick
      test_store_key_scheme;
    Alcotest.test_case "store: corrupt entries miss, evict, rewrite" `Quick
      test_store_corrupt_entries_evicted;
    Alcotest.test_case "store: killed writer's temp file ignored" `Quick
      test_store_leftover_temp_ignored;
    Alcotest.test_case "store: root is a file; calibration still answers"
      `Quick test_store_root_is_a_file;
    Alcotest.test_case "store: namespace sanitization" `Quick test_sanitize_ns;
    Alcotest.test_case "store: a second handle evicts on its first put" `Quick
      test_store_second_handle_evicts;
    Alcotest.test_case "cross-process: concurrent writers leave whole files"
      `Slow test_multiprocess_writers;
    Alcotest.test_case "protocol: request round-trip" `Quick
      test_protocol_request_roundtrip;
    Alcotest.test_case "protocol: response + diag round-trip" `Quick
      test_protocol_response_roundtrip;
    Alcotest.test_case "protocol: schema mismatch rejected" `Quick
      test_protocol_rejects_wrong_schema;
    Alcotest.test_case "protocol: socket framing" `Quick test_framing_roundtrip;
    Alcotest.test_case "daemon: repeat compile hits, byte-identical" `Slow
      test_daemon_repeat_compile_hits_byte_identical;
    Alcotest.test_case "daemon: keys are the verb's wire form" `Quick
      test_daemon_keys;
    Alcotest.test_case "daemon: structured error responses" `Quick
      test_daemon_error_is_structured;
    Alcotest.test_case "daemon: status + gc verbs" `Slow
      test_daemon_status_and_gc;
    Alcotest.test_case "daemon: full client/server over a Unix socket" `Slow
      test_daemon_over_socket;
    Alcotest.test_case "ledger: fsynced append round-trips" `Quick
      test_ledger_sync_append;
    Alcotest.test_case "atomic writer: concurrent domains" `Quick
      test_atomic_file_concurrent_writers;
    Alcotest.test_case "atomic writer: refuses pipes and devices" `Quick
      test_atomic_file_refuses_special_files;
    Alcotest.test_case "store: a short write leaves no entry" `Quick
      test_store_short_write;
    Alcotest.test_case "atomic writer: unique temp suffixes" `Quick
      test_atomic_temp_suffix_unique;
  ]
