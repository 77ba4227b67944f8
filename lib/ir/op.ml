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

let equal a b = a = b
