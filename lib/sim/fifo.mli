(** Bounded FIFO used by the cycle-accurate pipeline models. Push onto a
    full FIFO records an overflow (the failure skid sizing must prevent)
    instead of raising, so simulations can report it. *)

type 'a t

val create : depth:int -> 'a t
(** Raises [Invalid_argument] if [depth < 1]. *)

val depth : 'a t -> int
val length : 'a t -> int
val is_empty : 'a t -> bool
val is_full : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Appends; on a full FIFO the element is dropped and the overflow flag
    set. *)

val pop : 'a t -> 'a option

val overflowed : 'a t -> bool
val max_occupancy : 'a t -> int
(** High-water mark over the FIFO's lifetime. *)
