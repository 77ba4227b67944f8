type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* JSON has no NaN/Infinity; clamp to null like most encoders. *)
let float_repr f =
  match Float.classify_float f with
  | Float.FP_nan | Float.FP_infinite -> "null"
  | _ ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.1f" f
    else
      let s = Printf.sprintf "%.17g" f in
      let short = Printf.sprintf "%.12g" f in
      if float_of_string short = f then short else s

let to_string ?(minify = true) v =
  let buf = Buffer.create 256 in
  let nl indent =
    if not minify then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make indent ' ')
    end
  in
  let rec go indent = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | Str s -> escape buf s
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          nl (indent + 2);
          go (indent + 2) item)
        items;
      nl indent;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_char buf ',';
          nl (indent + 2);
          escape buf k;
          Buffer.add_char buf ':';
          if not minify then Buffer.add_char buf ' ';
          go (indent + 2) item)
        fields;
      nl indent;
      Buffer.add_char buf '}'
  in
  go 0 v;
  Buffer.contents buf

exception Parse of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some x when x = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
          advance ();
          (if !pos >= n then fail "unterminated escape"
           else
             match s.[!pos] with
             | '"' -> Buffer.add_char buf '"'; advance ()
             | '\\' -> Buffer.add_char buf '\\'; advance ()
             | '/' -> Buffer.add_char buf '/'; advance ()
             | 'n' -> Buffer.add_char buf '\n'; advance ()
             | 'r' -> Buffer.add_char buf '\r'; advance ()
             | 't' -> Buffer.add_char buf '\t'; advance ()
             | 'b' -> Buffer.add_char buf '\b'; advance ()
             | 'f' -> Buffer.add_char buf '\012'; advance ()
             | 'u' ->
               advance ();
               if !pos + 4 > n then fail "short \\u escape";
               let code = int_of_string ("0x" ^ String.sub s !pos 4) in
               pos := !pos + 4;
               (* Only BMP code points below 0x80 are emitted raw by our
                  encoder; decode those, keep others as replacement. *)
               if code < 0x80 then Buffer.add_char buf (Char.chr code)
               else Buffer.add_string buf "\xef\xbf\xbd"
             | c -> fail (Printf.sprintf "bad escape \\%c" c));
          go ()
        | c -> Buffer.add_char buf c; advance (); go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let numchar c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && numchar s.[!pos] do
      advance ()
    done;
    let lit = String.sub s start (!pos - start) in
    if String.contains lit '.' || String.contains lit 'e' || String.contains lit 'E'
    then Float (float_of_string lit)
    else
      match int_of_string_opt lit with
      | Some i -> Int i
      | None -> Float (float_of_string lit)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); fields ((k, v) :: acc)
          | Some '}' -> advance (); List.rev ((k, v) :: acc)
          | _ -> fail "expected , or }"
        in
        Obj (fields [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); items (v :: acc)
          | Some ']' -> advance (); List.rev (v :: acc)
          | _ -> fail "expected , or ]"
        in
        List (items [])
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected %c" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse msg -> Error msg
  | exception Failure msg -> Error msg

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let field what conv key j =
  match member key j with
  | None -> Error (Printf.sprintf "field %S missing" key)
  | Some v -> (
    match conv v with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "field %S: expected %s" key what))

let str_field = field "string" (function Str s -> Some s | _ -> None)
let int_field = field "int" (function Int i -> Some i | _ -> None)
let float_field = field "number" to_float
let bool_field = field "bool" (function Bool b -> Some b | _ -> None)

let opt_field get key j =
  match member key j with
  | None | Some Null -> Ok None
  | Some _ -> Result.map Option.some (get key j)

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> x = y || (Float.is_nan x && Float.is_nan y)
  | Str x, Str y -> x = y
  | List xs, List ys ->
    List.length xs = List.length ys && List.for_all2 equal xs ys
  | Obj xs, Obj ys ->
    let sort = List.sort (fun (k1, _) (k2, _) -> compare k1 k2) in
    let xs = sort xs and ys = sort ys in
    List.length xs = List.length ys
    && List.for_all2 (fun (k1, v1) (k2, v2) -> k1 = k2 && equal v1 v2) xs ys
  | _ -> false
