open Hlsb_ir

type error = {
  err_message : string;
  err_line : int option;
}

let pp_error fmt e =
  match e.err_line with
  | Some l -> Format.fprintf fmt "line %d: %s" l e.err_message
  | None -> Format.pp_print_string fmt e.err_message

let wrap f =
  try Ok (f ()) with
  | Lexer.Error (msg, line) -> Error { err_message = msg; err_line = Some line }
  | Parser.Error (msg, line) -> Error { err_message = msg; err_line = Some line }
  | Elab.Error msg -> Error { err_message = msg; err_line = None }

let parse src = wrap (fun () -> Parser.program (Lexer.tokenize src))

let has_dataflow_pragma (f : Ast.func) =
  List.exists
    (function
      | Ast.Pragma_stmt p ->
        List.mem "dataflow"
          (String.split_on_char ' ' (String.lowercase_ascii p))
      | _ -> false)
    f.Ast.f_body

let kernel_of_program program =
  wrap (fun () ->
    let f =
      match List.filter (fun f -> not (has_dataflow_pragma f)) program with
      | [ f ] -> f
      | [] -> raise (Elab.Error "no kernel function found")
      | fs ->
        raise
          (Elab.Error
             (Printf.sprintf "%d kernel functions found" (List.length fs)))
    in
    Elab.kernel_of_func program f)

let kernel_of_string src =
  match parse src with
  | Error e -> Error e
  | Ok program -> kernel_of_program program

(* Elaborate a chosen top function into a dataflow network; raises the
   Elab/parser exceptions, [wrap] at the callers turns them into errors. *)
let design_of_top program top_f =
    if has_dataflow_pragma top_f then Elab.dataflow_of_func program top_f
    else begin
      (* wrap a single kernel into a one-process network *)
      let kernel = Elab.kernel_of_func program top_f in
      let df = Dataflow.create () in
      let p = Dataflow.add_process df ~name:kernel.Kernel.name ~kernel () in
      let dag = kernel.Kernel.dag in
      let reads = Hashtbl.create 4 and writes = Hashtbl.create 4 in
      Dag.iter dag (fun v ->
        match Dag.kind dag v with
        | Dag.Fifo_read f ->
          Hashtbl.replace reads (Dag.fifo dag f).Dag.f_name
            (Dag.fifo dag f).Dag.f_dtype
        | Dag.Fifo_write f ->
          Hashtbl.replace writes (Dag.fifo dag f).Dag.f_name
            (Dag.fifo dag f).Dag.f_dtype
        | _ -> ());
      (* a fifo both written and read by the kernel is internal (stream
         insertion creates these): it is not a port of the network *)
      Hashtbl.iter
        (fun name dtype ->
          if not (Hashtbl.mem writes name) then
            ignore (Dataflow.add_channel df ~name ~src:(-1) ~dst:p ~dtype ()))
        reads;
      Hashtbl.iter
        (fun name dtype ->
          if not (Hashtbl.mem reads name) then
            ignore (Dataflow.add_channel df ~name ~src:p ~dst:(-1) ~dtype ()))
        writes;
      df
    end

let design_of_program program =
  wrap (fun () ->
    let top_f =
      match List.filter has_dataflow_pragma program with
      | [ f ] -> f
      | [] -> (
        match List.rev program with
        | f :: _ -> f
        | [] -> raise (Elab.Error "empty program"))
      | _ -> raise (Elab.Error "several dataflow regions")
    in
    design_of_top program top_f)

let design_of_string src =
  match parse src with
  | Error e -> Error e
  | Ok program -> design_of_program program
