type t =
  | Bool
  | Int of int
  | Uint of int
  | Float32
  | Float64

let width = function
  | Bool -> 1
  | Int w | Uint w -> w
  | Float32 -> 32
  | Float64 -> 64

let is_float = function
  | Float32 | Float64 -> true
  | Bool | Int _ | Uint _ -> false

let equal a b = a = b

let max_width = 512

let code = function
  | Bool -> 0
  | Float32 -> 1
  | Float64 -> 2
  | Int w -> (2 * w) + 1
  | Uint w -> (2 * w) + 2

(* Every valid dtype, indexed by its code: built once, shared by all. *)
let by_code =
  Array.init
    ((2 * max_width) + 3)
    (fun c ->
      match c with
      | 0 -> Bool
      | 1 -> Float32
      | 2 -> Float64
      | c when c land 1 = 1 -> Int (c / 2)
      | c -> Uint ((c / 2) - 1))

let of_code c = by_code.(c)

let to_string = function
  | Bool -> "bool"
  | Int w -> Printf.sprintf "i%d" w
  | Uint w -> Printf.sprintf "u%d" w
  | Float32 -> "f32"
  | Float64 -> "f64"

let validate = function
  | Bool | Float32 | Float64 -> ()
  | Int w | Uint w ->
    if w < 1 || w > max_width then invalid_arg "Dtype: integer width out of [1,512]"
