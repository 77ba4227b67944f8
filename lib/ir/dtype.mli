(** Datatypes carried by IR values. Widths drive both resource estimation
    (registers, buffer bits) and the delay library (per-width operator
    delays). *)

type t =
  | Bool
  | Int of int  (** signed integer of the given bit width, 1..512 *)
  | Uint of int  (** unsigned integer of the given bit width, 1..512 *)
  | Float32
  | Float64

val width : t -> int
(** Storage width in bits. *)

val is_float : t -> bool
val equal : t -> t -> bool

val code : t -> int
(** A distinct small code per valid dtype ({!validate}): at most 1026. *)

val of_code : int -> t
(** The valid dtype with this {!code}, shared: it does not allocate. *)

val to_string : t -> string

val validate : t -> unit
(** Raises [Invalid_argument] on zero/negative/oversized integer widths. *)
