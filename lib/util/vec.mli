(** Growable array (OCaml 5.1 lacks [Dynarray]); used by graph builders. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val push : 'a t -> 'a -> int
(** Appends and returns the index of the new element. *)

val get : 'a t -> int -> 'a
val to_array : 'a t -> 'a array
val iteri : (int -> 'a -> unit) -> 'a t -> unit
