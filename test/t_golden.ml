(* Golden bytes: the MD5 of everything a compile hands a reader — the
   result JSON, the timing JSON (critical-path cell names included) and
   the DOT of the final netlist (every cell, net, name and sink order) —
   for the 20 Suite compiles (10 designs x {original, optimized}) and the
   ~104k-cell bm420x2 point. The digests in [golden.digests] pin
   "same netlists, names and sink order" across backend refactors: a
   change that moves any of them is a behaviour change, not a speed-up.
   On a mismatch the test prints the full recomputed file. *)

module Pipeline = Core.Pipeline
module Style = Hlsb_ctrl.Style
module Design = Hlsb_rtlgen.Design
module Export = Hlsb_netlist.Export
module Json = Hlsb_telemetry.Json
module Spec = Hlsb_designs.Spec

let golden_file = "golden.digests"

let bm420x2 () =
  let table1 = Option.get (Hlsb_designs.Suite.find "Modular Squaring") in
  Spec.make ~name:"bm420x2" ~broadcast:"Pipe. Ctrl. & Data"
    ~device:Hlsb_device.Device.ultrascale_plus
    ~build:(Hlsb_designs.Bigmul.build_point ~bits:420 ~limb:7 ~lanes:2)
    ~paper:table1.Spec.sp_paper

let hex s = Digest.to_hex (Digest.string s)

(* One line per (design, recipe, artifact): "<design>|<recipe> <what> <md5>". *)
let lines_of (spec : Spec.t) recipes =
  let session = Pipeline.of_spec spec in
  List.concat_map
    (fun recipe ->
      let r = Pipeline.run_exn session ~recipe in
      let timing =
        match Pipeline.dump_after session ~recipe Pipeline.Sta with
        | Ok s -> s
        | Error d -> failwith (Hlsb_util.Diag.to_string d)
      in
      let key = spec.Spec.sp_name ^ "|" ^ Style.label recipe in
      [
        key ^ " result " ^ hex (Json.to_string (Pipeline.result_to_json r));
        key ^ " timing " ^ hex timing;
        key ^ " dot " ^ hex (Export.to_dot r.Pipeline.fr_design.Design.netlist);
      ])
    recipes

let current () =
  List.concat_map
    (fun s -> lines_of s [ Style.original; Style.optimized ])
    Hlsb_designs.Suite.all
  @ lines_of (bm420x2 ()) [ Style.original ]

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let test_golden () =
  let want = read_lines golden_file and got = current () in
  if want <> got then begin
    prerr_endline "--- recomputed golden.digests ---";
    List.iter prerr_endline got
  end;
  Alcotest.(check int) "entries" 63 (List.length got);
  Alcotest.(check (list string)) "digests" want got

(* Stamping replicated kernels writes the netlist that lowering each
   kernel writes: the Verilog (every cell, net, name and port) of the 20
   Suite compiles and of bm420x2 under both recipes equals a reference
   whose schedules share no entries, so that it lowers every kernel with
   [Lower.lower]. *)
let test_stamped_verilog () =
  let module Schedule = Hlsb_sched.Schedule in
  let module Metrics = Hlsb_telemetry.Metrics in
  let verilog (spec : Spec.t) recipe ~unshare =
    let device = spec.Spec.sp_device in
    let df = spec.Spec.sp_build () in
    let reg = Metrics.create () in
    let v =
      Metrics.with_registry reg (fun () ->
        let scheds = Design.schedule_processes ~device ~recipe df in
        let scheds =
          if not unshare then scheds
          else
            Array.map
              (Option.map (fun (s : Schedule.t) ->
                 { s with Schedule.entries = Array.copy s.Schedule.entries }))
              scheds
        in
        let dp = Design.lower_processes ~device ~recipe ~name:spec.Spec.sp_name df scheds in
        Export.to_verilog (Design.emit_sync ~device ~recipe df dp).Design.netlist)
    in
    let count = Metrics.counter_value reg in
    (v, count "sched.kernels_shared", count "lower.kernels_stamped")
  in
  let first_diff a b =
    let rec go i = function
      | x :: xs, y :: ys ->
        if x = y then go (i + 1) (xs, ys) else Printf.sprintf "line %d: %S vs %S" i x y
      | [], [] -> "no line"
      | _ -> Printf.sprintf "line %d: one export is longer" i
    in
    go 1 (String.split_on_char '\n' a, String.split_on_char '\n' b)
  in
  List.iter
    (fun (spec : Spec.t) ->
      List.iter
        (fun recipe ->
          let what = spec.Spec.sp_name ^ " [" ^ Style.label recipe ^ "]" in
          let got, shared, stamped = verilog spec recipe ~unshare:false in
          let want, _, unstamped = verilog spec recipe ~unshare:true in
          Alcotest.(check int) (what ^ ": one stamp per shared schedule") shared stamped;
          Alcotest.(check int) (what ^ ": the reference stamps nothing") 0 unstamped;
          if got <> want then
            Alcotest.failf "%s: Verilog differs from per-kernel lowering at %s" what
              (first_diff got want))
        [ Style.original; Style.optimized ])
    (Hlsb_designs.Suite.all @ [ bm420x2 () ])

let suite =
  [
    Alcotest.test_case "Table-1 + bm420x2 output digests" `Slow test_golden;
    Alcotest.test_case "stamped Verilog equals per-kernel lowering" `Slow
      test_stamped_verilog;
  ]
