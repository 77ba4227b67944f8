type 'a t = {
  mutable data : 'a array;
  mutable len : int;
}

let create () = { data = [||]; len = 0 }

let length t = t.len

let grow t witness =
  let cap = max 8 (2 * Array.length t.data) in
  let data = Array.make cap witness in
  Array.blit t.data 0 data 0 t.len;
  t.data <- data

let push t x =
  if t.len = Array.length t.data then grow t x;
  t.data.(t.len) <- x;
  t.len <- t.len + 1;
  t.len - 1

let check t i = if i < 0 || i >= t.len then invalid_arg "Vec: index out of range"

let get t i =
  check t i;
  t.data.(i)

let to_array t = Array.sub t.data 0 t.len

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done
