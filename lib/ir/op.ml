type cmp =
  | Lt
  | Le
  | Gt
  | Ge
  | Eq
  | Ne

type t =
  | Add
  | Sub
  | Mul
  | Div
  | Fadd
  | Fsub
  | Fmul
  | Fdiv
  | And_
  | Or_
  | Xor
  | Not
  | Shl
  | Shr
  | Icmp of cmp
  | Fcmp of cmp
  | Select
  | Min
  | Max
  | Abs
  | Log2
  | Concat
  | Slice of int * int

let arity = function
  | Not | Abs | Log2 | Slice _ -> 1
  | Add | Sub | Mul | Div | Fadd | Fsub | Fmul | Fdiv | And_ | Or_ | Xor | Shl
  | Shr | Icmp _ | Fcmp _ | Min | Max ->
    2
  | Select -> 3
  | Concat -> -1

let result_is_bool = function
  | Icmp _ | Fcmp _ -> true
  | Add | Sub | Mul | Div | Fadd | Fsub | Fmul | Fdiv | And_ | Or_ | Xor | Not
  | Shl | Shr | Select | Min | Max | Abs | Log2 | Concat | Slice _ ->
    false

let cmp_to_string = function
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"
  | Eq -> "eq"
  | Ne -> "ne"

let to_string = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Fadd -> "fadd"
  | Fsub -> "fsub"
  | Fmul -> "fmul"
  | Fdiv -> "fdiv"
  | And_ -> "and"
  | Or_ -> "or"
  | Xor -> "xor"
  | Not -> "not"
  | Shl -> "shl"
  | Shr -> "shr"
  | Icmp c -> "icmp_" ^ cmp_to_string c
  | Fcmp c -> "fcmp_" ^ cmp_to_string c
  | Select -> "select"
  | Min -> "min"
  | Max -> "max"
  | Abs -> "abs"
  | Log2 -> "log2"
  | Concat -> "concat"
  | Slice (hi, lo) -> Printf.sprintf "slice[%d:%d]" hi lo

let spell put put_int = function
  | Icmp c ->
    put "icmp_";
    put (cmp_to_string c)
  | Fcmp c ->
    put "fcmp_";
    put (cmp_to_string c)
  | Slice (hi, lo) ->
    put "slice[";
    put_int hi;
    put ":";
    put_int lo;
    put "]"
  | o -> put (to_string o)

(* The operators [code] numbers, in code order: all but [Slice]. *)
let coded =
  let cmps = [| Lt; Le; Gt; Ge; Eq; Ne |] in
  Array.concat
    [
      [|
        Add; Sub; Mul; Div; Fadd; Fsub; Fmul; Fdiv; And_; Or_; Xor; Not; Shl; Shr;
        Select; Min; Max; Abs; Log2; Concat;
      |];
      Array.map (fun c -> Icmp c) cmps;
      Array.map (fun c -> Fcmp c) cmps;
    ]

let n_codes = Array.length coded
let of_code c = coded.(c)

let cmp_index = function Lt -> 0 | Le -> 1 | Gt -> 2 | Ge -> 3 | Eq -> 4 | Ne -> 5

let code = function
  | Add -> 0
  | Sub -> 1
  | Mul -> 2
  | Div -> 3
  | Fadd -> 4
  | Fsub -> 5
  | Fmul -> 6
  | Fdiv -> 7
  | And_ -> 8
  | Or_ -> 9
  | Xor -> 10
  | Not -> 11
  | Shl -> 12
  | Shr -> 13
  | Select -> 14
  | Min -> 15
  | Max -> 16
  | Abs -> 17
  | Log2 -> 18
  | Concat -> 19
  | Icmp c -> 20 + cmp_index c
  | Fcmp c -> 26 + cmp_index c
  | Slice _ -> -1

let equal a b = a = b
