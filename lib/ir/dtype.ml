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

let to_string = function
  | Bool -> "bool"
  | Int w -> Printf.sprintf "i%d" w
  | Uint w -> Printf.sprintf "u%d" w
  | Float32 -> "f32"
  | Float64 -> "f64"

let validate = function
  | Bool | Float32 | Float64 -> ()
  | Int w | Uint w ->
    if w < 1 || w > 512 then invalid_arg "Dtype: integer width out of [1,512]"
