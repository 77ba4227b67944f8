(** Operator kinds of the operation DAG. The set mirrors what the paper's
    benchmarks exercise: integer/float arithmetic, comparisons, selects
    (ternaries), the [log2] if-else chain of the genome kernel, and shifts
    for the scatter/gather of wide memory words. *)

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
  | Select  (** [select cond a b]; the mux of a C ternary *)
  | Min
  | Max
  | Abs
  | Log2  (** priority-encoder if-else chain (genome kernel line 11) *)
  | Concat  (** bit concatenation, e.g. packing 8 x i64 into an i512 word *)
  | Slice of int * int  (** [Slice (hi, lo)] bit extraction *)

val arity : t -> int
(** Number of operands; [Concat] is variadic and reports [-1]. *)

val result_is_bool : t -> bool
(** Comparison operators produce [Bool] regardless of operand type. *)

val to_string : t -> string

val spell : (string -> unit) -> (int -> unit) -> t -> unit
(** [to_string]'s spelling as pieces, without building it: literal parts
    go to the first function, bit indices to the second. *)

val code : t -> int
(** A distinct code in [\[0, n_codes)] per operator, or [-1] for a
    [Slice], whose bounds no small code holds. *)

val n_codes : int

val of_code : int -> t
(** The operator with this {!code}, [0 <= c < n_codes]. *)

val equal : t -> t -> bool
