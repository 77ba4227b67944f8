type align =
  | Left
  | Right

type row =
  | Cells of string list
  | Rule

type t = {
  headers : (string * align) list;
  mutable rows : row list; (* reversed *)
}

let create ~headers = { headers; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.headers then
    invalid_arg "Table.add_row: arity mismatch";
  t.rows <- Cells cells :: t.rows

let add_rule t = t.rows <- Rule :: t.rows

let render t =
  let ncols = List.length t.headers in
  let widths = Array.make ncols 0 in
  let measure cells =
    List.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)) cells
  in
  measure (List.map fst t.headers);
  List.iter (function Cells c -> measure c | Rule -> ()) t.rows;
  let pad align width s =
    let n = width - String.length s in
    if n <= 0 then s
    else
      match align with
      | Left -> s ^ String.make n ' '
      | Right -> String.make n ' ' ^ s
  in
  let aligns = List.map snd t.headers in
  let buf = Buffer.create 256 in
  let emit_cells cells =
    Buffer.add_string buf "| ";
    List.iteri
      (fun i (c, a) ->
        if i > 0 then Buffer.add_string buf " | ";
        Buffer.add_string buf (pad a widths.(i) c))
      (List.combine cells aligns);
    Buffer.add_string buf " |\n"
  in
  let emit_rule () =
    Buffer.add_char buf '+';
    Array.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) '-');
        Buffer.add_char buf '+')
      widths;
    Buffer.add_char buf '\n'
  in
  emit_rule ();
  emit_cells (List.map fst t.headers);
  emit_rule ();
  List.iter
    (function Cells c -> emit_cells c | Rule -> emit_rule ())
    (List.rev t.rows);
  emit_rule ();
  Buffer.contents buf
