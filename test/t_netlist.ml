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
let reference_arcs_of n nets =
  let fi = Array.make n [] and fo = Array.make n [] in
  Array.iteri
    (fun nid (d, sinks) ->
      List.iter
        (fun s ->
          fi.(s) <- (d, nid) :: fi.(s);
          fo.(d) <- s :: fo.(d))
        sinks)
    nets;
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

let reference_arcs nl =
  reference_arcs_of (Netlist.n_cells nl)
    (Array.init (Netlist.n_nets nl) (fun nid ->
         (Netlist.driver nl nid, List.init (Netlist.fanout nl nid) (Netlist.sink nl nid))))

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

(* ---- The store against a reference model ---- *)

(* A list-based model of the store: cells and nets as records, the name
   being written as one string, the pushed sinks as a list. Random runs of
   every writer ([name_str], [name_int], [push_sink], [add_cell],
   [add_net], [reserve], [copy_slice]), rejected calls and 32-bit edge
   values included, must leave every accessor agreeing with it. *)
type mcell = {
  mc_kind : Netlist.cell_kind;
  mc_delay : float;
  mc_res : Netlist.resources;
  mc_name : string;
}

type mnet = {
  mn_driver : int;
  mn_sinks : int list;
  mn_width : int;
  mn_cls : Netlist.net_class;
  mn_name : string;
}

type model = {
  mutable cells : mcell list;  (* newest first *)
  mutable nets : mnet list;  (* newest first *)
  mutable pending : string;  (* name pieces written since the last add *)
  mutable pushed : int list;  (* sinks pushed since the last net, newest first *)
  mutable marks : Netlist.mark list;  (* newest first *)
}

let max32 = 0x7fff_ffff
let fits32 v = v >= -max32 - 1 && v <= max32

let model_mark m =
  let bytes f l = List.fold_left (fun a x -> a + String.length (f x)) 0 l in
  {
    Netlist.m_cells = List.length m.cells;
    m_nets = List.length m.nets;
    m_sinks = List.fold_left (fun a n -> a + List.length n.mn_sinks) 0 m.nets;
    m_names = bytes (fun c -> c.mc_name) m.cells + bytes (fun n -> n.mn_name) m.nets;
  }

(* [name] as [copy_slice] rewrites it, or [None] when it is too short. *)
let rewrite ~drop ~prefix (sp : Netlist.splice option) name =
  let len = String.length name - drop in
  match sp with
  | None -> if len < 0 then None else Some (prefix ^ String.sub name drop len)
  | Some sp ->
    let keep = len - sp.Netlist.sp_len in
    if keep < 0 then None
    else if sp.Netlist.sp_tail then Some (prefix ^ String.sub name drop keep ^ sp.Netlist.sp_with)
    else Some (prefix ^ sp.Netlist.sp_with ^ String.sub name (drop + sp.Netlist.sp_len) keep)

(* The model's copy of a slice between two marks, or [None] when
   [copy_slice] must reject it. *)
let model_copy m ~(from : Netlist.mark) ~(upto : Netlist.mark) ~drop ~prefix ~splices =
  let cells = Array.of_list (List.rev m.cells) and nets = Array.of_list (List.rev m.nets) in
  let shift = Array.length cells - from.Netlist.m_cells in
  let inside c = c >= from.Netlist.m_cells && c < upto.Netlist.m_cells in
  let exception Reject in
  let name ~net i n =
    let sp =
      List.find_opt
        (fun (sp : Netlist.splice) ->
          sp.Netlist.sp_net = net && sp.Netlist.sp_lo <= i && i < sp.Netlist.sp_hi)
        splices
    in
    match rewrite ~drop ~prefix sp n with Some s -> s | None -> raise Reject
  in
  match
    ( List.init (upto.Netlist.m_cells - from.Netlist.m_cells) (fun i ->
          let c = cells.(from.Netlist.m_cells + i) in
          { c with mc_name = name ~net:false i c.mc_name }),
      List.init (upto.Netlist.m_nets - from.Netlist.m_nets) (fun i ->
          let n = nets.(from.Netlist.m_nets + i) in
          if not (inside n.mn_driver && List.for_all inside n.mn_sinks) then raise Reject;
          {
            n with
            mn_driver = n.mn_driver + shift;
            mn_sinks = List.map (fun s -> s + shift) n.mn_sinks;
            mn_name = name ~net:true i n.mn_name;
          }) )
  with
  | copy -> Some copy
  | exception Reject -> None

let raises f = match f () with _ -> false | exception Invalid_argument _ -> true

(* One random writer call on both the store and the model; false when the
   store accepts what the model rejects, or the other way round. *)
let step rng nl m =
  let module Rng = Hlsb_util.Rng in
  let pick a = a.(Rng.int rng (Array.length a)) in
  let n_cells = List.length m.cells in
  let cell_id () = Rng.int rng (n_cells + 2) - 1 in
  let is_cell c = c >= 0 && c < n_cells in
  let tail () = if Rng.bool rng then None else Some (String.make (Rng.int rng 3) 't') in
  (* A call either raises, discarding the pending pieces and sinks, or
     lands. *)
  let add ~rejected f landed =
    if rejected then begin
      m.pending <- "";
      m.pushed <- [];
      raises f
    end
    else begin
      landed (f ());
      true
    end
  in
  match Rng.int rng 10 with
  | 0 ->
    (* long pieces carry the arena across chunk boundaries *)
    let s =
      match Rng.int rng 5 with
      | 0 -> ""
      | 1 -> "k.v1_"
      | 2 -> String.make (1 + Rng.int rng 40) 'x'
      | 3 when Rng.bool rng ->
        (* fill the arena up to a 16 KB chunk boundary, then write an
           empty piece there *)
        let len = (model_mark m).Netlist.m_names + String.length m.pending in
        let fill = String.make (16384 - (len mod 16384)) 'z' in
        Netlist.name_str nl fill;
        m.pending <- m.pending ^ fill;
        ""
      | _ ->
        let o = Rng.int rng 26 in
        String.init (Rng.int rng 9000) (fun k -> Char.chr (97 + ((o + k) mod 26)))
    in
    Netlist.name_str nl s;
    m.pending <- m.pending ^ s;
    true
  | 1 ->
    let i = pick [| 0; -1; 42; -500; min_int; max_int |] in
    Netlist.name_int nl i;
    m.pending <- m.pending ^ string_of_int i;
    true
  | 2 ->
    let s = cell_id () in
    add ~rejected:(not (is_cell s))
      (fun () -> Netlist.push_sink nl s)
      (fun () -> m.pushed <- s :: m.pushed)
  | 3 | 4 ->
    let kind = pick [| Netlist.Comb; Netlist.Seq; Netlist.Mem; Netlist.Port_in; Netlist.Port_out |] in
    let delay = pick [| 0.; 0.25; 1.5; -1. |] in
    let edge () = pick [| 0; 7; max32; max32 + 1; -max32 - 1; -max32 - 2 |] in
    let res =
      if Rng.int rng 3 = 0 then
        { Netlist.r_luts = edge (); r_ffs = edge (); r_bram18 = edge (); r_dsps = edge () }
      else { Netlist.r_luts = Rng.int rng 50; r_ffs = Rng.int rng 50; r_bram18 = 0; r_dsps = 1 }
    in
    let name = tail () in
    let rejected =
      delay < 0.
      || not
           (fits32 res.Netlist.r_luts && fits32 res.Netlist.r_ffs
           && fits32 res.Netlist.r_bram18 && fits32 res.Netlist.r_dsps)
    in
    let cell = { mc_kind = kind; mc_delay = delay; mc_res = res; mc_name = m.pending ^ Option.value ~default:"" name } in
    (* a cell seals the name; pushed sinks wait for the next net *)
    add ~rejected
      (fun () -> Netlist.add_cell ?name nl ~kind ~delay ~res)
      (fun c ->
        if c = n_cells then m.cells <- cell :: m.cells;
        m.pending <- "")
  | 5 | 6 ->
    let driver = cell_id () in
    let sinks = List.init (Rng.int rng 4) (fun _ -> cell_id ()) in
    let width = pick [| 1; 32; 512; max32; 0; max32 + 1 |] in
    let cls = pick [| Netlist.Data; Netlist.Data_broadcast; Netlist.Ctrl_sync; Netlist.Ctrl_pipeline |] in
    let name = tail () in
    let rejected =
      (not (is_cell driver))
      || (not (List.for_all is_cell sinks))
      || width < 1 || width > max32
      || (List.nth m.cells (n_cells - 1 - driver)).mc_kind = Netlist.Port_out
    in
    let net =
      {
        mn_driver = driver;
        mn_sinks = List.rev_append m.pushed sinks;
        mn_width = width;
        mn_cls = cls;
        mn_name = m.pending ^ Option.value ~default:"" name;
      }
    in
    add ~rejected
      (fun () -> Netlist.add_net ~cls ?name nl ~driver ~sinks ~width ())
      (fun _ ->
        m.nets <- net :: m.nets;
        m.pending <- "";
        m.pushed <- [])
  | 7 ->
    Netlist.reserve nl ~cells:(Rng.int rng 40) ~nets:(Rng.int rng 40)
      ~sinks:(Rng.int rng 90) ~name_bytes:(Rng.int rng 40000);
    true
  | 8 ->
    m.marks <- Netlist.mark nl :: m.marks;
    true
  | _ when n_cells > 2000 || (Netlist.mark nl).Netlist.m_names > 500_000 ->
    (* a copy can double the store: keep runs small *)
    true
  | _ ->
    let marks = Array.of_list (List.rev (Netlist.mark nl :: m.marks)) in
    let i = Rng.int rng (Array.length marks) in
    let upto = marks.(i + Rng.int rng (Array.length marks - i)) in
    (* now and then a pair that bounds no slice *)
    let bad = Rng.int rng 8 = 0 in
    let from = if bad then { (marks.(i)) with Netlist.m_sinks = -1 } else marks.(i) in
    let drop = Rng.int rng 3 and prefix = pick [| ""; "pe1."; "copy_" |] in
    let splice net count =
      if count = 0 || Rng.bool rng then []
      else
        let lo = Rng.int rng count in
        [
          {
            Netlist.sp_net = net;
            sp_lo = lo;
            sp_hi = lo + 1 + Rng.int rng (count - lo);
            sp_tail = Rng.bool rng;
            sp_len = Rng.int rng 3;
            sp_with = pick [| ""; "Q"; "_r7" |];
          };
        ]
    in
    let splices =
      splice false (upto.Netlist.m_cells - from.Netlist.m_cells)
      @ splice true (upto.Netlist.m_nets - from.Netlist.m_nets)
    in
    let copy () = Netlist.copy_slice nl ~from ~upto ~drop ~prefix ~splices in
    (* a rejected copy leaves the pending pieces in place *)
    match
      if bad || m.pending <> "" || m.pushed <> [] then None
      else model_copy m ~from ~upto ~drop ~prefix ~splices
    with
    | None -> raises copy
    | Some (cells, nets) ->
      copy ();
      m.cells <- List.rev_append cells m.cells;
      m.nets <- List.rev_append nets m.nets;
      true

(* Every accessor of [nl] against the model; fails naming the first
   disagreement. *)
let agree nl m =
  let cells = Array.of_list (List.rev m.cells) and nets = Array.of_list (List.rev m.nets) in
  let expect what ok = if not ok then QCheck.Test.fail_reportf "%s disagrees" what in
  expect "n_cells" (Netlist.n_cells nl = Array.length cells);
  expect "n_nets" (Netlist.n_nets nl = Array.length nets);
  expect "mark" (Netlist.mark nl = model_mark m);
  Array.iteri
    (fun c x ->
      let r = x.mc_res in
      expect (Printf.sprintf "cell %d" c)
        (Netlist.kind nl c = x.mc_kind
        && Netlist.delay nl c = x.mc_delay
        && Netlist.luts nl c = r.Netlist.r_luts
        && Netlist.ffs nl c = r.Netlist.r_ffs
        && Netlist.bram18 nl c = r.Netlist.r_bram18
        && Netlist.dsps nl c = r.Netlist.r_dsps
        && Netlist.cell_name nl c = x.mc_name))
    cells;
  Array.iteri
    (fun n x ->
      expect (Printf.sprintf "net %d" n)
        (Netlist.driver nl n = x.mn_driver
        && Netlist.width nl n = x.mn_width
        && Netlist.net_class nl n = x.mn_cls
        && Netlist.net_name nl n = x.mn_name
        && List.init (Netlist.fanout nl n) (Netlist.sink nl n) = x.mn_sinks))
    nets;
  expect "delays" (Netlist.delays nl = Array.map (fun x -> x.mc_delay) cells);
  expect "total_resources"
    (Netlist.total_resources nl
    = Array.fold_left (fun a x -> Netlist.add_res a x.mc_res) Netlist.zero_res cells);
  let widest cls =
    let best = ref None in
    Array.iteri
      (fun n x ->
        let f = List.length x.mn_sinks in
        if cls = None || cls = Some x.mn_cls then
          match !best with Some (_, bf) when bf >= f -> () | _ -> best := Some (n, f))
      nets;
    Option.map fst !best
  in
  List.iter
    (fun cls -> expect "max_fanout_net" (Netlist.max_fanout_net nl ?cls () = widest cls))
    [ None; Some Netlist.Data; Some Netlist.Data_broadcast; Some Netlist.Ctrl_sync; Some Netlist.Ctrl_pipeline ];
  expect "arcs"
    (Netlist.arcs nl
    = reference_arcs_of (Array.length cells)
        (Array.map (fun x -> (x.mn_driver, x.mn_sinks)) nets))

let prop_store_model =
  QCheck.Test.make ~count:300 ~name:"store agrees with a list model"
    QCheck.small_nat
    (fun seed ->
      let rng = Hlsb_util.Rng.create seed in
      let nl = Netlist.create ~name:"m" in
      let m = { cells = []; nets = []; pending = ""; pushed = []; marks = [] } in
      for k = 1 to 1 + Hlsb_util.Rng.int rng 120 do
        if not (step rng nl m) then
          QCheck.Test.fail_reportf "step %d: the store and the model disagree on acceptance" k
      done;
      agree nl m;
      (* The 32-bit edge: 2^31 - 1 is stored; 2^31 is rejected, leaving the
         store as it was and discarding the pending name and sinks, so the
         next cell is named by its own pieces alone and the next net has
         no sinks. *)
      let top = { Netlist.zero_res with Netlist.r_dsps = max32 } in
      let c = Netlist.add_cell nl ~name:"edge" ~kind:Netlist.Seq ~delay:0. ~res:top in
      m.cells <-
        { mc_kind = Netlist.Seq; mc_delay = 0.; mc_res = top; mc_name = m.pending ^ "edge" }
        :: m.cells;
      m.pending <- "";
      Netlist.name_str nl "over";
      Netlist.push_sink nl c;
      let before = Netlist.mark nl in
      let over = { Netlist.zero_res with Netlist.r_luts = max32 + 1 } in
      let rejected = raises (fun () -> Netlist.add_cell nl ~kind:Netlist.Seq ~delay:0. ~res:over) in
      let unchanged = Netlist.mark nl = before && Netlist.n_cells nl = c + 1 in
      ignore (Netlist.add_cell nl ~name:"next" ~kind:Netlist.Comb ~delay:0. ~res:Netlist.zero_res);
      ignore (Netlist.add_net nl ~name:"n" ~driver:c ~sinks:[] ~width:1 ());
      m.cells <-
        { mc_kind = Netlist.Comb; mc_delay = 0.; mc_res = Netlist.zero_res; mc_name = "next" }
        :: m.cells;
      m.nets <-
        { mn_driver = c; mn_sinks = []; mn_width = 1; mn_cls = Netlist.Data; mn_name = "n" }
        :: m.nets;
      agree nl m;
      Netlist.dsps nl c = max32 && rejected && unchanged)

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
    QCheck_alcotest.to_alcotest prop_store_model;
  ]
