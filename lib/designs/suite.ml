let all =
  [
    Genome.spec;
    Lstm.spec;
    Face_detect.spec;
    Matmul.spec;
    Stream_buffer.spec;
    Stencil.spec;
    Vector_arith.spec;
    Hbm_stencil.spec;
    Pattern_match.spec;
    Bigmul.spec;
  ]

let find name = List.find_opt (fun s -> s.Spec.sp_name = name) all

(* Case-insensitive, with everything but letters and digits dropped. *)
let normalize name =
  String.to_seq name
  |> Seq.filter_map (fun c ->
       match c with
       | 'A' .. 'Z' -> Some (Char.lowercase_ascii c)
       | 'a' .. 'z' | '0' .. '9' -> Some c
       | _ -> None)
  |> String.of_seq

let resolve name =
  match find name with
  | Some _ as exact -> exact
  | None -> (
    let n = normalize name in
    let matches p = List.filter (fun s -> p (normalize s.Spec.sp_name)) all in
    match matches (String.equal n) with
    | [ s ] -> Some s
    | _ -> (
      match matches (String.starts_with ~prefix:n) with
      | [ s ] when n <> "" -> Some s
      | _ -> None))
