(* splice DOC FRESH: print DOC with the fenced block after each
   [<!-- experiments:NAME -->] marker replaced by NAME's block from FRESH
   (the output of [hlsbc experiments]). Exits 1 when DOC names a section
   FRESH lacks, or FRESH has a section DOC never places. *)

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'

let marker line =
  let pre = "<!-- experiments:" and post = " -->" in
  let n = String.length line and lp = String.length pre in
  if
    String.starts_with ~prefix:pre line
    && String.ends_with ~suffix:post line
    && n > lp + String.length post
  then Some (String.sub line lp (n - lp - String.length post))
  else None

let is_fence line = String.starts_with ~prefix:"```" line

(* The fenced block opening [lines], and what follows it; no block when
   [lines] does not open with a fence. *)
let take_block lines =
  match lines with
  | first :: rest when is_fence first ->
    let rec go acc = function
      | l :: tl when is_fence l -> (List.rev (l :: acc), tl)
      | l :: tl -> go (l :: acc) tl
      | [] -> (List.rev acc, [])
    in
    go [ first ] rest
  | _ -> ([], lines)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let () =
  let doc, fresh =
    match Sys.argv with
    | [| _; d; f |] -> (read_lines d, read_lines f)
    | _ -> fail "usage: splice DOC FRESH"
  in
  let rec blocks acc = function
    | [] -> List.rev acc
    | l :: tl -> (
      match marker l with
      | Some name ->
        let b, rest = take_block tl in
        blocks ((name, b) :: acc) rest
      | None -> blocks acc tl)
  in
  let fresh = blocks [] fresh in
  let placed = Hashtbl.create 16 in
  let rec splice acc = function
    | [] -> List.rev acc
    | l :: tl -> (
      match marker l with
      | None -> splice (l :: acc) tl
      | Some name ->
        let b =
          match List.assoc_opt name fresh with
          | Some b -> b
          | None -> fail "splice: no fresh block for section %S" name
        in
        Hashtbl.replace placed name ();
        let _, rest = take_block tl in
        splice (List.rev_append b (l :: acc)) rest)
  in
  let out = splice [] doc in
  List.iter
    (fun (name, _) ->
      if not (Hashtbl.mem placed name) then
        fail "splice: section %S has no marker in the document" name)
    fresh;
  print_string (String.concat "\n" out)
