(* Transform-layer tests: golden rewrites for every pass, plan-grammar
   round-trips, printer round-trips, semantic equivalence of transformed
   programs under the Exec reference evaluator, per-plan pipeline
   stage caching, and channel-reuse idempotence. *)

open Hlsb_ir
module Ast = Hlsb_frontend.Ast
module Frontend = Hlsb_frontend.Frontend
module Pass = Hlsb_transform.Pass
module Plan = Hlsb_transform.Plan
module Reuse = Hlsb_transform.Reuse
module Pipeline = Core.Pipeline
module Style = Hlsb_ctrl.Style
module Device = Hlsb_device.Device
module Gen = Hlsb_fuzz.Gen
module Oracle = Hlsb_fuzz.Oracle
module Exec = Hlsb_fuzz.Exec
module Rng = Hlsb_util.Rng
module Diag = Hlsb_util.Diag
module Metrics = Hlsb_telemetry.Metrics

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%a" Frontend.pp_error e

let parse src = ok (Frontend.parse src)

let apply plan_s program =
  match Plan.of_string plan_s with
  | Error m -> Alcotest.failf "plan %S does not parse: %s" plan_s m
  | Ok plan -> (
    match Plan.apply_source plan program with
    | Ok p -> p
    | Error d ->
      Alcotest.failf "plan %S inapplicable: %s" plan_s (Diag.to_string d))

(* Golden comparison through the printer: both sides rendered by
   [Ast.to_source], so the check pins structure without depending on the
   incoming text's whitespace. *)
let check_golden name ~expected actual =
  Alcotest.(check string) name (Ast.to_source (parse expected)) (Ast.to_source actual)

(* ---- golden rewrites ---- *)

let src_loop =
  "void f(stream<int> &a, stream<int> &b) {\n\
  \  for (int i = 0; i < 4; i++) {\n\
  \    b.write(a.read() + i);\n\
  \  }\n\
   }\n"

let test_unroll_full () =
  check_golden "unroll=4 replicates the body"
    ~expected:
      "void f(stream<int> &a, stream<int> &b) {\n\
      \  b.write(a.read() + 0);\n\
      \  b.write(a.read() + 1);\n\
      \  b.write(a.read() + 2);\n\
      \  b.write(a.read() + 3);\n\
       }\n"
    (apply "unroll=4" (parse src_loop))

let test_unroll_partial () =
  check_golden "unroll=2 leaves a residual loop"
    ~expected:
      "void f(stream<int> &a, stream<int> &b) {\n\
      \  for (int i = 0; i < 2; i++) {\n\
      \    b.write(a.read() + (i * 2 + 0));\n\
      \    b.write(a.read() + (i * 2 + 1));\n\
      \  }\n\
       }\n"
    (apply "unroll=i:2" (parse src_loop))

let src_fissionable =
  "void f(stream<int> &a, stream<int> &b, stream<int> &c, stream<int> &d) {\n\
  \  for (int i = 0; i < 8; i++) {\n\
  \    b.write(a.read() + 1);\n\
  \    d.write(c.read() * 2);\n\
  \  }\n\
   }\n"

let src_fissioned =
  "void f(stream<int> &a, stream<int> &b, stream<int> &c, stream<int> &d) {\n\
  \  for (int i = 0; i < 8; i++) {\n\
  \    b.write(a.read() + 1);\n\
  \  }\n\
  \  for (int i = 0; i < 8; i++) {\n\
  \    d.write(c.read() * 2);\n\
  \  }\n\
   }\n"

let test_fission () =
  check_golden "fission splits stream-disjoint statements"
    ~expected:src_fissioned
    (apply "fission" (parse src_fissionable))

let test_fusion () =
  check_golden "fusion merges twin-header independent loops"
    ~expected:src_fissionable
    (apply "fusion=i" (parse src_fissioned))

let test_fusion_fission_inverse () =
  let p = parse src_fissionable in
  check_golden "fusion . fission = identity"
    ~expected:src_fissionable
    (apply "fission;fusion" p)

let test_stream_insert () =
  let p =
    parse
      "void pc(stream<int> &a, stream<int> &b) {\n\
      \  int t[16];\n\
      \  for (int i = 0; i < 16; i++) {\n\
      \    t[i] = a.read() * 3;\n\
      \  }\n\
      \  for (int j = 0; j < 16; j++) {\n\
      \    b.write(t[j] + 1);\n\
      \  }\n\
       }\n"
  in
  check_golden "stream=t turns the array into a FIFO"
    ~expected:
      "void pc(stream<int> &a, stream<int> &b) {\n\
      \  stream<int> t;\n\
      \  for (int i = 0; i < 16; i++) {\n\
      \    t.write(a.read() * 3);\n\
      \  }\n\
      \  for (int j = 0; j < 16; j++) {\n\
      \    b.write(t.read() + 1);\n\
      \  }\n\
       }\n"
    (apply "stream=t" p)

let src_big_array =
  "void f(stream<int> &a, stream<int> &b) {\n\
  \  int t[256];\n\
  \  for (int i = 0; i < 256; i++) {\n\
  \    t[i] = a.read();\n\
  \  }\n\
  \  for (int j = 0; j < 256; j++) {\n\
  \    b.write(t[j]);\n\
  \  }\n\
   }\n"

let test_partition_reaches_buffer () =
  let p' = apply "partition=cyclic:t:4" (parse src_big_array) in
  let has_pragma =
    List.exists
      (fun f ->
        List.exists
          (function
            | Ast.Pragma_stmt s ->
              s = "HLS array_partition variable=t cyclic factor=4"
            | _ -> false)
          f.Ast.f_body)
      p'
  in
  Alcotest.(check bool) "partition pragma inserted" true has_pragma;
  let k = ok (Frontend.kernel_of_program p') in
  let banked =
    Array.exists
      (fun (b : Dag.buffer) -> b.Dag.b_name = "t" && b.Dag.b_partition = 4)
      (Dag.buffers k.Kernel.dag)
  in
  Alcotest.(check bool) "elaborated buffer carries partition 4" true banked

let test_inapplicable_is_structured () =
  List.iter
    (fun plan_s ->
      let plan =
        match Plan.of_string plan_s with
        | Ok p -> p
        | Error m -> Alcotest.failf "plan %S does not parse: %s" plan_s m
      in
      match Plan.apply_source plan (parse src_loop) with
      | Ok _ -> Alcotest.failf "plan %S unexpectedly applied" plan_s
      | Error d ->
        Alcotest.(check string)
          (plan_s ^ " rejects at the transform stage")
          "transform" d.Diag.d_stage)
    [ "unroll=k:2"; "unroll=3"; "fission"; "fusion"; "stream"; "partition=cyclic:2" ]

(* ---- plan grammar ---- *)

let test_plan_roundtrip () =
  List.iter
    (fun s ->
      match Plan.of_string s with
      | Error m -> Alcotest.failf "plan %S rejected: %s" s m
      | Ok p -> Alcotest.(check string) ("canonical: " ^ s) s (Plan.to_string p))
    [
      "";
      "unroll=4";
      "unroll=i:2;partition=cyclic:t:4;fission";
      "stream=t;pragmas;channel-reuse";
      "fusion=j;fission=i";
    ];
  List.iter
    (fun s ->
      match Plan.of_string s with
      | Ok _ -> Alcotest.failf "plan %S unexpectedly parsed" s
      | Error _ -> ())
    [ "unroll"; "unroll=i:"; "partition=block:2"; "bogus"; "stream=;fission" ]

let test_pragma_requests_and_warnings () =
  let p =
    parse
      "void f(stream<int> &a, stream<int> &b) {\n\
       #pragma HLS mystery_knob on\n\
      \  for (int i = 0; i < 4; i++) {\n\
       #pragma HLS unroll factor=2\n\
      \    b.write(a.read() + i);\n\
      \  }\n\
       }\n"
  in
  let reqs, warns = Pass.requests_of_pragmas p in
  Alcotest.(check int) "one typed request" 1 (List.length reqs);
  (match reqs with
  | [ Pass.Unroll { u_loop = Some "i"; u_factor = 2 } ] -> ()
  | _ -> Alcotest.fail "unroll pragma did not become a typed request");
  match warns with
  | [ d ] ->
    let contains_sub ~sub s =
      let n = String.length s and m = String.length sub in
      let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
      at 0
    in
    Alcotest.(check bool) "warning names the pragma" true
      (contains_sub ~sub:"mystery_knob" d.Diag.d_message)
  | l -> Alcotest.failf "expected one warning, got %d" (List.length l)

(* ---- printer + semantic equivalence over generated programs ---- *)

let gen_case seed =
  match Gen.generate Gen.Ksrc (Rng.create seed) with
  | Gen.Src c -> c
  | _ -> Alcotest.fail "Ksrc generated a non-src case"

let prop_printer_roundtrip =
  QCheck.Test.make ~count:60 ~name:"parse . to_source = id on generated sources"
    QCheck.small_nat (fun seed ->
      let c = gen_case seed in
      let p = parse (Gen.src_source c) in
      parse (Ast.to_source p) = p)

let prop_transform_equivalence =
  QCheck.Test.make ~count:60
    ~name:"generated plans preserve per-stream semantics"
    QCheck.small_nat (fun seed ->
      match Oracle.check Oracle.Transform (Gen.Src (gen_case seed)) with
      | Oracle.Pass -> true
      | Oracle.Fail msg -> QCheck.Test.fail_report msg)

(* The oracle would be vacuous if every generated plan were rejected:
   over a fixed seed range, a healthy share must actually rewrite the
   program. Deterministic, so a generator regression fails loudly. *)
let test_generated_plans_apply () =
  let applied = ref 0 and rewritten = ref 0 in
  for seed = 0 to 149 do
    let c = gen_case seed in
    let p = parse (Gen.src_source c) in
    match Plan.of_string c.Gen.sc_plan with
    | Error m -> Alcotest.failf "generated plan %S invalid: %s" c.Gen.sc_plan m
    | Ok plan -> (
      match Plan.apply_source plan p with
      | Error _ -> ()
      | Ok p' ->
        if not (Plan.is_identity plan) then begin
          incr applied;
          if p' <> p then incr rewritten
        end)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "plans applied on %d/150 cases (need >= 25)" !applied)
    true (!applied >= 25);
  Alcotest.(check bool)
    (Printf.sprintf "plans rewrote the program on %d/150 cases (need >= 15)"
       !rewritten)
    true (!rewritten >= 15)

let test_exec_detects_divergence () =
  let k src = ok (Frontend.kernel_of_string src) in
  let k0 = k "void f(stream<int> &a, stream<int> &b) { b.write(a.read() + 1); }" in
  let k1 = k "void f(stream<int> &a, stream<int> &b) { b.write(a.read() + 2); }" in
  let inputs _ i = Int64.of_int (i + 10) in
  let r0 = Exec.run k0.Kernel.dag ~inputs in
  let r1 = Exec.run k1.Kernel.dag ~inputs in
  Alcotest.(check bool) "same program agrees with itself" true
    (Exec.diff r0 r0 = None);
  Alcotest.(check bool) "different constants diverge" true
    (Exec.diff r0 r1 <> None)

(* ---- pipeline integration: per-plan stage caching ---- *)

let pc_src =
  "void pc(stream<int> &a, stream<int> &b) {\n\
  \  int t[16];\n\
  \  for (int i = 0; i < 16; i++) {\n\
  \    t[i] = a.read() * 3;\n\
  \  }\n\
  \  for (int i = 0; i < 16; i++) {\n\
  \    b.write(t[i] + 1);\n\
  \  }\n\
   }\n"

let test_pipeline_plan_caching () =
  let session =
    Pipeline.of_program ~device:Device.ultrascale_plus ~name:"pc_test"
      (parse pc_src)
  in
  let plan =
    match Plan.of_string "unroll=2" with
    | Ok p -> p
    | Error m -> Alcotest.fail m
  in
  let r1 = Pipeline.run_exn session ~plan ~recipe:Style.optimized in
  let runs_of name =
    try List.assoc name (Pipeline.stage_runs session) with Not_found -> 0
  in
  Alcotest.(check int) "one transform execution" 1 (runs_of "transform");
  let r2 = Pipeline.run_exn session ~plan ~recipe:Style.optimized in
  Alcotest.(check int) "recompile reuses the transformed program" 1
    (runs_of "transform");
  let transform_cached =
    List.exists
      (fun (st : Hlsb_obs.Ledger.stage) ->
        st.Hlsb_obs.Ledger.st_name = "transform"
        && st.Hlsb_obs.Ledger.st_status = Hlsb_obs.Ledger.Cached)
      (Pipeline.last_run session)
  in
  Alcotest.(check bool) "transform stage reports Cached on recompile" true
    transform_cached;
  Alcotest.(check (float 0.0001)) "cached recompile is byte-stable"
    r1.Pipeline.fr_fmax_mhz r2.Pipeline.fr_fmax_mhz;
  (* a different plan shares nothing: the transform stage runs again *)
  let plan4 =
    match Plan.of_string "unroll=4" with
    | Ok p -> p
    | Error m -> Alcotest.fail m
  in
  ignore (Pipeline.run_exn session ~plan:plan4 ~recipe:Style.optimized);
  Alcotest.(check int) "new plan re-runs the transform stage" 2
    (runs_of "transform")

let test_identity_plan_matches_default () =
  let program = parse pc_src in
  let compile plan =
    let session =
      Pipeline.of_program ~device:Device.ultrascale_plus ~name:"pc_id" program
    in
    Pipeline.run_exn ?plan session ~recipe:Style.optimized
  in
  let a = compile None and b = compile (Some Plan.identity) in
  Alcotest.(check (float 0.0001)) "identity plan = no plan"
    a.Pipeline.fr_fmax_mhz b.Pipeline.fr_fmax_mhz

let test_source_plan_on_ir_session_fails () =
  let session =
    Pipeline.of_kernel ~device:Device.ultrascale_plus
      (ok
         (Frontend.kernel_of_string
            "void k(stream<int> &a, stream<int> &b) { b.write(a.read()); }"))
  in
  let plan =
    match Plan.of_string "unroll=2" with
    | Ok p -> p
    | Error m -> Alcotest.fail m
  in
  match Pipeline.run session ~plan ~recipe:Style.optimized with
  | Ok _ -> Alcotest.fail "source plan on an IR session should fail"
  | Error d ->
    Alcotest.(check string) "diagnosed at the transform stage" "transform"
      d.Diag.d_stage

(* ---- channel reuse ---- *)

(* One producer writing the same value into two identical channels read
   by one consumer: the canonical over-wide communication. *)
let duplicated_network () =
  let df = Dataflow.create () in
  let pd = Dag.create () in
  let fin = Dag.add_fifo pd ~name:"in" ~dtype:(Dtype.Int 32) ~depth:2 in
  let fa = Dag.add_fifo pd ~name:"a" ~dtype:(Dtype.Int 32) ~depth:2 in
  let fb = Dag.add_fifo pd ~name:"b" ~dtype:(Dtype.Int 32) ~depth:2 in
  let v = Dag.fifo_read pd ~fifo:fin in
  ignore (Dag.fifo_write pd ~fifo:fa ~value:v);
  ignore (Dag.fifo_write pd ~fifo:fb ~value:v);
  let cd = Dag.create () in
  let fa' = Dag.add_fifo cd ~name:"a" ~dtype:(Dtype.Int 32) ~depth:2 in
  let fb' = Dag.add_fifo cd ~name:"b" ~dtype:(Dtype.Int 32) ~depth:2 in
  let fout = Dag.add_fifo cd ~name:"out" ~dtype:(Dtype.Int 32) ~depth:2 in
  let ra = Dag.fifo_read cd ~fifo:fa' in
  let rb = Dag.fifo_read cd ~fifo:fb' in
  let s = Dag.op cd Op.Add ~dtype:(Dtype.Int 32) [ ra; rb ] in
  ignore (Dag.fifo_write cd ~fifo:fout ~value:s);
  let p =
    Dataflow.add_process df ~name:"prod"
      ~kernel:(Kernel.create ~name:"prod" pd) ()
  in
  let c =
    Dataflow.add_process df ~name:"cons"
      ~kernel:(Kernel.create ~name:"cons" cd) ()
  in
  ignore (Dataflow.add_channel df ~name:"in" ~src:(-1) ~dst:p ~dtype:(Dtype.Int 32) ());
  ignore (Dataflow.add_channel df ~name:"a" ~src:p ~dst:c ~dtype:(Dtype.Int 32) ());
  ignore (Dataflow.add_channel df ~name:"b" ~src:p ~dst:c ~dtype:(Dtype.Int 32) ());
  ignore (Dataflow.add_channel df ~name:"out" ~src:c ~dst:(-1) ~dtype:(Dtype.Int 32) ());
  df

let test_channel_reuse_merges_and_is_idempotent () =
  let df = duplicated_network () in
  let df', s = Reuse.run df in
  Alcotest.(check int) "one pair merged" 1 s.Reuse.rs_merged;
  Alcotest.(check int) "channel count drops by one" 3 s.Reuse.rs_channels_after;
  Alcotest.(check bool) "broadcast factor shrank" true
    (s.Reuse.rs_broadcast_after < s.Reuse.rs_broadcast_before);
  Alcotest.(check (list string)) "merged network is well-formed" []
    (List.map (fun p -> p.Dataflow.pb_message) (Dataflow.problems df'));
  let df'', s2 = Reuse.run df' in
  Alcotest.(check int) "second run merges nothing" 0 s2.Reuse.rs_merged;
  Alcotest.(check bool) "second run returns the network unchanged" true
    (df'' == df')

let suite =
  [
    Alcotest.test_case "unroll: full replication" `Quick test_unroll_full;
    Alcotest.test_case "unroll: partial with residual loop" `Quick
      test_unroll_partial;
    Alcotest.test_case "fission golden" `Quick test_fission;
    Alcotest.test_case "fusion golden" `Quick test_fusion;
    Alcotest.test_case "fusion . fission = identity" `Quick
      test_fusion_fission_inverse;
    Alcotest.test_case "stream insertion golden" `Quick test_stream_insert;
    Alcotest.test_case "partition reaches the elaborated buffer" `Quick
      test_partition_reaches_buffer;
    Alcotest.test_case "inapplicable requests are structured" `Quick
      test_inapplicable_is_structured;
    Alcotest.test_case "plan grammar round-trips" `Quick test_plan_roundtrip;
    Alcotest.test_case "pragmas become requests + warnings" `Quick
      test_pragma_requests_and_warnings;
    QCheck_alcotest.to_alcotest prop_printer_roundtrip;
    QCheck_alcotest.to_alcotest prop_transform_equivalence;
    Alcotest.test_case "generated plans actually apply" `Quick
      test_generated_plans_apply;
    Alcotest.test_case "Exec detects planted divergence" `Quick
      test_exec_detects_divergence;
    Alcotest.test_case "pipeline caches the transform per plan" `Quick
      test_pipeline_plan_caching;
    Alcotest.test_case "identity plan matches the default path" `Quick
      test_identity_plan_matches_default;
    Alcotest.test_case "source plan on IR session is diagnosed" `Quick
      test_source_plan_on_ir_session_fails;
    Alcotest.test_case "channel reuse merges and is idempotent" `Quick
      test_channel_reuse_merges_and_is_idempotent;
  ]
