(* Netlist structure tests: cells, nets, validation, macros, and the shared
   structures (memory banks, AND trees, fanout trees). *)

module Netlist = Hlsb_netlist.Netlist
module Macro = Hlsb_netlist.Macro
module Structs = Hlsb_netlist.Structs
module Device = Hlsb_device.Device

let dev = Device.ultrascale_plus

let reg nl name = Structs.add_register nl ~name ~width:32

let test_add_cells_nets () =
  let nl = Netlist.create ~name:"t" in
  let a = reg nl "a" in
  let b = reg nl "b" in
  let n = Netlist.add_net nl ~name:"ab" ~driver:a ~sinks:[ b ] ~width:32 () in
  Alcotest.(check int) "cells" 2 (Netlist.n_cells nl);
  Alcotest.(check int) "nets" 1 (Netlist.n_nets nl);
  Alcotest.(check int) "fanout" 1 (Netlist.fanout nl n);
  Alcotest.(check string) "net name" "ab" (Netlist.net_name nl n)

let test_net_checks () =
  let nl = Netlist.create ~name:"t" in
  let a = reg nl "a" in
  Alcotest.(check bool) "bad sink" true
    (try ignore (Netlist.add_net nl ~name:"x" ~driver:a ~sinks:[ 7 ] ~width:1 ()); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad width" true
    (try ignore (Netlist.add_net nl ~name:"x" ~driver:a ~sinks:[] ~width:0 ()); false
     with Invalid_argument _ -> true);
  let port =
    Netlist.add_cell nl ~name:"o" ~kind:Netlist.Port_out ~delay:0.
      ~res:Netlist.zero_res
  in
  Alcotest.(check bool) "port cannot drive" true
    (try ignore (Netlist.add_net nl ~name:"x" ~driver:port ~sinks:[ a ] ~width:1 ()); false
     with Invalid_argument _ -> true)

let test_max_fanout_by_class () =
  let nl = Netlist.create ~name:"t" in
  let a = reg nl "a" in
  let sinks = List.init 10 (fun i -> reg nl (Printf.sprintf "s%d" i)) in
  ignore
    (Netlist.add_net nl ~cls:Netlist.Ctrl_pipeline ~name:"stall" ~driver:a
       ~sinks ~width:1 ());
  ignore (Netlist.add_net nl ~name:"d" ~driver:a ~sinks:[ List.hd sinks ] ~width:1 ());
  (match Netlist.max_fanout_net nl () with
  | Some n -> Alcotest.(check int) "overall max" 10 (Netlist.fanout nl n)
  | None -> Alcotest.fail "no nets");
  match Netlist.max_fanout_net nl ~cls:Netlist.Data () with
  | Some n -> Alcotest.(check int) "data max" 1 (Netlist.fanout nl n)
  | None -> Alcotest.fail "no data nets"

let test_resources_accumulate () =
  let nl = Netlist.create ~name:"t" in
  ignore
    (Netlist.add_cell nl ~name:"m" ~kind:Netlist.Comb ~delay:1.
       ~res:(Macro.float_mul `F32));
  ignore (reg nl "r");
  let r = Netlist.total_resources nl in
  Alcotest.(check int) "dsp" 3 r.Netlist.r_dsps;
  Alcotest.(check int) "ff" (90 + 32) r.Netlist.r_ffs

let test_utilization () =
  let nl = Netlist.create ~name:"t" in
  ignore
    (Netlist.add_cell nl ~name:"big" ~kind:Netlist.Comb ~delay:1.
       ~res:{ Netlist.zero_res with Netlist.r_luts = dev.Device.luts / 2 });
  let lut, _, _, _ = Netlist.utilization nl dev in
  Alcotest.(check (float 0.01)) "half the luts" 0.5 lut

let test_validate_comb_cycle () =
  let nl = Netlist.create ~name:"t" in
  let c1 =
    Netlist.add_cell nl ~name:"c1" ~kind:Netlist.Comb ~delay:0.1
      ~res:Netlist.zero_res
  in
  let c2 =
    Netlist.add_cell nl ~name:"c2" ~kind:Netlist.Comb ~delay:0.1
      ~res:Netlist.zero_res
  in
  ignore (Netlist.add_net nl ~name:"a" ~driver:c1 ~sinks:[ c2 ] ~width:1 ());
  ignore (Netlist.add_net nl ~name:"b" ~driver:c2 ~sinks:[ c1 ] ~width:1 ());
  Alcotest.(check bool) "cycle flagged" true
    (match Netlist.validate nl with Error _ -> true | Ok () -> false)

let test_validate_seq_feedback_ok () =
  (* feedback through a register is legal *)
  let nl = Netlist.create ~name:"t" in
  let r = reg nl "r" in
  let c =
    Netlist.add_cell nl ~name:"c" ~kind:Netlist.Comb ~delay:0.1
      ~res:Netlist.zero_res
  in
  ignore (Netlist.add_net nl ~name:"a" ~driver:r ~sinks:[ c ] ~width:1 ());
  ignore (Netlist.add_net nl ~name:"b" ~driver:c ~sinks:[ r ] ~width:1 ());
  match Netlist.validate nl with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* ---- Arcs ---- *)

(* The order invariant, restated with per-cell cons lists: walking nets
   forward and consing each arc onto its cell's list leaves every list in
   reverse net-encounter order, which is the slice order [Netlist.arcs]
   promises. Flattened cell by cell, the lists must equal its arrays. *)
let reference_arcs nl =
  let n = Netlist.n_cells nl in
  let fi = Array.make n [] and fo = Array.make n [] in
  for nid = 0 to Netlist.n_nets nl - 1 do
    let d = Netlist.driver nl nid in
    for k = 0 to Netlist.fanout nl nid - 1 do
      let s = Netlist.sink nl nid k in
      fi.(s) <- (d, nid) :: fi.(s);
      fo.(d) <- s :: fo.(d)
    done
  done;
  let offsets lists =
    let off = Array.make (n + 1) 0 in
    Array.iteri (fun c l -> off.(c + 1) <- off.(c) + List.length l) lists;
    off
  in
  let flat f lists = Array.of_list (List.concat_map (List.map f) (Array.to_list lists)) in
  {
    Netlist.fanin =
      { Netlist.in_off = offsets fi; in_driver = flat fst fi; in_net = flat snd fi };
    out_off = offsets fo;
    out_sink = flat Fun.id fo;
  }

(* A random netlist of every cell kind. Besides random nets (sink lists
   drawn from a few cells, so duplicates are common) it always carries a
   sinkless net and a net whose sinks repeat a cell and include its own
   driver. *)
let random_netlist rng name =
  let module Rng = Hlsb_util.Rng in
  let nl = Netlist.create ~name in
  let kinds = [| Netlist.Comb; Netlist.Seq; Netlist.Mem; Netlist.Port_in; Netlist.Port_out |] in
  let n = 2 + Rng.int rng 12 in
  let drivers = ref [] in
  for i = 0 to n - 1 do
    let kind = if i < 2 then Netlist.Seq else kinds.(Rng.int rng 5) in
    let c =
      Netlist.add_cell nl ~name:(Printf.sprintf "c%d" i) ~kind ~delay:0.1
        ~res:Netlist.zero_res
    in
    if kind <> Netlist.Port_out then drivers := c :: !drivers
  done;
  let drivers = Array.of_list !drivers in
  (* a random prefix of the sinks is pushed, the rest passed as a list *)
  let net sinks driver =
    let k = Rng.int rng (List.length sinks + 1) in
    List.iteri (fun i s -> if i < k then Netlist.push_sink nl s) sinks;
    ignore
      (Netlist.add_net nl ~name:(Printf.sprintf "n%d" (Netlist.n_nets nl)) ~driver
         ~sinks:(List.filteri (fun i _ -> i >= k) sinks)
         ~width:1 ())
  in
  net [] drivers.(0);
  for _ = 1 to Rng.int rng 16 do
    let pool = 1 + Rng.int rng n in
    net
      (List.init (Rng.int rng 6) (fun _ -> Rng.int rng pool))
      drivers.(Rng.int rng (Array.length drivers))
  done;
  let d = drivers.(Rng.int rng (Array.length drivers)) in
  let s = Rng.int rng n in
  net [ s; d; s ] d;
  nl

let prop_arcs_order =
  QCheck.Test.make ~count:200 ~name:"arcs equal the cons-list reference, in order"
    QCheck.small_nat
    (fun seed ->
      let rng = Hlsb_util.Rng.create seed in
      let a = random_netlist rng "a" in
      Netlist.arcs a = reference_arcs a)

(* ---- Names ---- *)

(* A netlist whose every cell and net is named by random pieces — empty,
   long, shared prefixes, negative and extreme ints — plus an optional
   tail, some written before an add that is rejected. Returns the netlist
   and the eagerly concatenated names, cells and nets in id order. *)
let named_netlist rng name =
  let module Rng = Hlsb_util.Rng in
  let nl = Netlist.create ~name in
  let piece () =
    match Rng.int rng 6 with
    | 0 -> `S ""
    | 1 -> `S (String.make (1 + Rng.int rng 300) 'x')
    | 2 -> `S [| "k."; "k.v"; "k.v1_" |].(Rng.int rng 3)
    | 3 -> `I (Rng.int rng 1000 - 500)
    | 4 -> `I [| min_int; max_int; 0; -1; -10 |].(Rng.int rng 5)
    | _ -> `S (String.init (Rng.int rng 5) (fun _ -> Char.chr (32 + Rng.int rng 95)))
  in
  (* write a random name, returning its expected spelling and the tail *)
  let write () =
    let pieces = List.init (Rng.int rng 5) (fun _ -> piece ()) in
    List.iter
      (function `S s -> Netlist.name_str nl s | `I i -> Netlist.name_int nl i)
      pieces;
    let tail = if Rng.int rng 2 = 0 then None else Some (String.make (Rng.int rng 3) 't') in
    let spelled =
      String.concat ""
        (List.map (function `S s -> s | `I i -> string_of_int i) pieces)
    in
    (spelled ^ Option.value ~default:"" tail, tail)
  in
  let cells = ref [] and nets = ref [] in
  let add_cell () =
    let expected, name = write () in
    ignore (Netlist.add_cell ?name nl ~kind:Netlist.Seq ~delay:0. ~res:Netlist.zero_res);
    cells := expected :: !cells
  in
  add_cell ();
  for _ = 1 to 1 + Rng.int rng 30 do
    match Rng.int rng 3 with
    | 0 -> add_cell ()
    | 1 ->
      let expected, name = write () in
      let n = Netlist.n_cells nl in
      ignore
        (Netlist.add_net ?name nl ~driver:(Rng.int rng n)
           ~sinks:(List.init (Rng.int rng 4) (fun _ -> Rng.int rng n))
           ~width:1 ());
      nets := expected :: !nets
    | _ ->
      (* a rejected add discards the pieces written for it *)
      ignore (write ());
      (try ignore (Netlist.add_cell nl ~kind:Netlist.Seq ~delay:(-1.) ~res:Netlist.zero_res)
       with Invalid_argument _ -> ())
  done;
  (nl, List.rev !cells, List.rev !nets)

let names_of nl =
  ( List.init (Netlist.n_cells nl) (Netlist.cell_name nl),
    List.init (Netlist.n_nets nl) (Netlist.net_name nl) )

let prop_names_spelled =
  QCheck.Test.make ~count:200 ~name:"names spell their pieces"
    QCheck.small_nat
    (fun seed ->
      let rng = Hlsb_util.Rng.create seed in
      let a, a_cells, a_nets = named_netlist rng "a" in
      let plain = names_of a = (a_cells, a_nets) in
      (* pieces written ahead of an add name the element added next *)
      Netlist.name_str a "pending.";
      Netlist.name_int a (-7);
      ignore (Netlist.add_cell a ~name:"_end" ~kind:Netlist.Seq ~delay:0. ~res:Netlist.zero_res);
      plain && names_of a = (a_cells @ [ "pending.-7_end" ], a_nets))

(* ---- Macro ---- *)

let test_macro_int_mul () =
  let r = Macro.int_mul 32 in
  Alcotest.(check int) "32x32 needs 4 dsp48" 4 r.Netlist.r_dsps;
  let r18 = Macro.int_mul 18 in
  Alcotest.(check int) "18x18 fits one" 1 r18.Netlist.r_dsps

let test_macro_fifo_mapping () =
  let small = Macro.fifo ~width:8 ~depth:16 in
  Alcotest.(check int) "small fifo uses no bram" 0 small.Netlist.r_bram18;
  let big = Macro.fifo ~width:512 ~depth:128 in
  Alcotest.(check bool) "big fifo uses bram" true (big.Netlist.r_bram18 > 0)

let test_macro_register () =
  Alcotest.(check int) "ffs" 48 (Macro.register 48).Netlist.r_ffs

(* ---- Structs ---- *)

let test_membank_units () =
  let nl = Netlist.create ~name:"t" in
  let mb = Structs.add_membank dev nl ~name:"m" ~width:32 ~depth:4096 () in
  let expected = Device.bram18_for ~width:32 ~depth:4096 in
  Alcotest.(check int) "unit count" expected mb.Structs.mb_n_units;
  Alcotest.(check int) "unit cells" expected (Array.length mb.Structs.mb_units);
  (* each unit is exactly one BRAM18 *)
  Array.iter
    (fun u ->
      Alcotest.(check int) "one bram each" 1 (Netlist.bram18 nl u))
    mb.Structs.mb_units;
  Alcotest.(check int) "comb read (no pipeline)" 0 mb.Structs.mb_read_latency

let test_membank_read_pipeline () =
  let nl = Netlist.create ~name:"t" in
  let mb =
    Structs.add_membank dev nl ~read_pipeline:true ~name:"m" ~width:32
      ~depth:(512 * 300) ()
  in
  (* 300 units -> two cascade levels (16:1), both registered *)
  Alcotest.(check bool) "read latency >= 2" true (mb.Structs.mb_read_latency >= 2)

let test_membank_write_broadcast () =
  let nl = Netlist.create ~name:"t" in
  let mb = Structs.add_membank dev nl ~name:"m" ~width:32 ~depth:65536 () in
  let src = Structs.add_register nl ~name:"src" ~width:32 in
  let n = Structs.connect_write nl ~name:"w" ~driver:src mb ~width:32 in
  Alcotest.(check int) "write fanout = units" mb.Structs.mb_n_units
    (Netlist.fanout nl n);
  Alcotest.(check bool) "classed as data broadcast" true
    (Netlist.net_class nl n = Netlist.Data_broadcast)

let test_and_tree_structure () =
  let nl = Netlist.create ~name:"t" in
  let inputs = List.init 20 (fun i -> Structs.add_register nl ~name:(Printf.sprintf "d%d" i) ~width:1) in
  let cells_before = Netlist.n_cells nl in
  let root = Structs.add_and_tree dev nl ~name:"sync" ~inputs in
  Alcotest.(check bool) "root is new cell" true (root >= cells_before);
  (* 20 -> 4 -> 1: 5 LUTs *)
  Alcotest.(check int) "lut count" 5 (Netlist.n_cells nl - cells_before);
  (* single input returns identity *)
  let single = Structs.add_and_tree dev nl ~name:"s1" ~inputs:[ root ] in
  Alcotest.(check int) "identity" root single

let test_reg_chain () =
  let nl = Netlist.create ~name:"t" in
  let regs = Structs.add_reg_chain nl ~name:"c" ~width:8 ~length:5 in
  Alcotest.(check int) "five regs" 5 (List.length regs);
  Alcotest.(check int) "four links" 4 (Netlist.n_nets nl)

let test_fanout_tree_reaches_all () =
  let nl = Netlist.create ~name:"t" in
  let src = Structs.add_register nl ~name:"src" ~width:16 in
  let sinks = List.init 100 (fun i -> Structs.add_register nl ~name:(Printf.sprintf "k%d" i) ~width:16) in
  let levels =
    Structs.add_fanout_tree nl ~name:"ft" ~driver:src ~sinks:(Array.of_list sinks) ~width:16
      ~levels:2 ~leaf_fanout:8
  in
  Alcotest.(check int) "levels" 2 levels;
  (* every sink is reachable from src through nets *)
  let n = Netlist.n_cells nl in
  let adj = Array.make n [] in
  for nid = 0 to Netlist.n_nets nl - 1 do
    let d = Netlist.driver nl nid in
    for k = 0 to Netlist.fanout nl nid - 1 do
      adj.(d) <- Netlist.sink nl nid k :: adj.(d)
    done
  done;
  let seen = Array.make n false in
  let rec dfs v =
    if not seen.(v) then begin
      seen.(v) <- true;
      List.iter dfs adj.(v)
    end
  in
  dfs src;
  List.iter
    (fun s -> Alcotest.(check bool) "sink reached" true seen.(s))
    sinks;
  (* leaf fanout bound respected *)
  for nid = 0 to Netlist.n_nets nl - 1 do
    Alcotest.(check bool) "fanout bounded" true (Netlist.fanout nl nid <= 13)
  done

let test_fanout_tree_bad_args () =
  let nl = Netlist.create ~name:"t" in
  let src = Structs.add_register nl ~name:"s" ~width:1 in
  Alcotest.(check bool) "no sinks" true
    (try
       ignore
         (Structs.add_fanout_tree nl ~name:"f" ~driver:src ~sinks:[||] ~width:1
            ~levels:1 ~leaf_fanout:4);
       false
     with Invalid_argument _ -> true)

(* A slice copy: shifted ids, the same fields, renamed names with a tail
   and a head splice; and the copies it refuses, leaving the netlist as it
   was. *)
let test_copy_slice () =
  let nl = Netlist.create ~name:"t" in
  let outside = reg nl "outside" in
  let from = Netlist.mark nl in
  let a = reg nl "k.in_x" in
  let res = { Netlist.zero_res with Netlist.r_bram18 = 1 } in
  let b = Netlist.add_cell nl ~name:"k.buf_u0" ~kind:Netlist.Mem ~delay:0.9 ~res in
  ignore
    (Netlist.add_net nl ~cls:Netlist.Data_broadcast ~name:"k.n" ~driver:a
       ~sinks:[ b; b ] ~width:3 ());
  let upto = Netlist.mark nl in
  let splice ~lo ~tail ~len w =
    {
      Netlist.sp_net = false;
      sp_lo = lo;
      sp_hi = lo + 1;
      sp_tail = tail;
      sp_len = len;
      sp_with = w;
    }
  in
  Netlist.copy_slice nl ~from ~upto ~drop:2 ~prefix:"pe12."
    ~splices:[ splice ~lo:0 ~tail:true ~len:1 "long_x"; splice ~lo:1 ~tail:false ~len:3 "m" ];
  Alcotest.(check int) "cells" 5 (Netlist.n_cells nl);
  Alcotest.(check (list string)) "cell names"
    [ "outside"; "k.in_x"; "k.buf_u0"; "pe12.in_long_x"; "pe12.m_u0" ]
    (List.init 5 (Netlist.cell_name nl));
  Alcotest.(check string) "net name" "pe12.n" (Netlist.net_name nl 1);
  Alcotest.(check int) "driver shifted" (a + 2) (Netlist.driver nl 1);
  Alcotest.(check (list int)) "sinks shifted" [ b + 2; b + 2 ]
    (List.init (Netlist.fanout nl 1) (Netlist.sink nl 1));
  Alcotest.(check int) "width" 3 (Netlist.width nl 1);
  Alcotest.(check bool) "class" true (Netlist.net_class nl 1 = Netlist.Data_broadcast);
  Alcotest.(check bool) "kind" true (Netlist.kind nl (b + 2) = Netlist.Mem);
  Alcotest.(check (float 0.)) "delay" 0.9 (Netlist.delay nl (b + 2));
  Alcotest.(check int) "resources" 1 (Netlist.bram18 nl (b + 2));
  let refused what f =
    let cells = Netlist.n_cells nl and nets = Netlist.n_nets nl in
    Alcotest.(check bool) what true
      (try f (); false with Invalid_argument _ -> true);
    Alcotest.(check (pair int int)) (what ^ ": unchanged") (cells, nets)
      (Netlist.n_cells nl, Netlist.n_nets nl)
  in
  let from2 = Netlist.mark nl in
  ignore (Netlist.add_net nl ~name:"k.o" ~driver:outside ~sinks:[ a ] ~width:1 ());
  let upto2 = Netlist.mark nl in
  refused "a net leaving the slice" (fun () ->
    Netlist.copy_slice nl ~from:from2 ~upto:upto2 ~drop:0 ~prefix:"" ~splices:[]);
  refused "a name shorter than the prefix" (fun () ->
    Netlist.copy_slice nl ~from ~upto ~drop:20 ~prefix:"" ~splices:[]);
  Netlist.name_str nl "pending.";
  refused "pending pieces" (fun () ->
    Netlist.copy_slice nl ~from ~upto ~drop:0 ~prefix:"" ~splices:[])

let suite =
  [
    Alcotest.test_case "cells and nets" `Quick test_add_cells_nets;
    Alcotest.test_case "slice copy" `Quick test_copy_slice;
    Alcotest.test_case "net checks" `Quick test_net_checks;
    Alcotest.test_case "max fanout by class" `Quick test_max_fanout_by_class;
    Alcotest.test_case "resources accumulate" `Quick test_resources_accumulate;
    Alcotest.test_case "utilization" `Quick test_utilization;
    Alcotest.test_case "comb cycle flagged" `Quick test_validate_comb_cycle;
    Alcotest.test_case "seq feedback legal" `Quick test_validate_seq_feedback_ok;
    Alcotest.test_case "macro int mul" `Quick test_macro_int_mul;
    Alcotest.test_case "macro fifo mapping" `Quick test_macro_fifo_mapping;
    Alcotest.test_case "macro register" `Quick test_macro_register;
    Alcotest.test_case "membank units" `Quick test_membank_units;
    Alcotest.test_case "membank read pipeline" `Quick test_membank_read_pipeline;
    Alcotest.test_case "membank write broadcast" `Quick test_membank_write_broadcast;
    Alcotest.test_case "and tree structure" `Quick test_and_tree_structure;
    Alcotest.test_case "reg chain" `Quick test_reg_chain;
    Alcotest.test_case "fanout tree reaches all" `Quick test_fanout_tree_reaches_all;
    Alcotest.test_case "fanout tree bad args" `Quick test_fanout_tree_bad_args;
    QCheck_alcotest.to_alcotest prop_arcs_order;
    QCheck_alcotest.to_alcotest prop_names_spelled;
  ]
