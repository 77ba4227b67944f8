(** Front end for a C subset rich enough to express every code snippet in
    the paper (Figs. 1, 3, 5, 7, 13, 18) and compile it through the flow.

    Accepted language, informally:

    {v
    program   := function*
    function  := type name '(' params ')' '{' stmt* '}'
    params    := (stream '<' type '>' ['&'] name | type name ['[' INT ']'])*
    stmt      := '#pragma' ... | type name ['[' INT ']'] ['=' expr] ';'
               | 'stream' '<' type '>' name ';'
               | lvalue ('=' | '+=') expr ';' | expr ';'
               | 'for' '(' 'int' i '=' INT ';' i '<' INT ';' i '++' ')' block
               | 'if' '(' expr ')' block ['else' block] | 'return' [expr] ';'
    expr      := C expressions with + - * / % & | ^ << >> comparisons
                 && || ! ~ ternary, abs/min/max/log2 calls,
                 s.read() / s.read(&x) / s.write(e), a[i], a[i].field
    v}

    Pragmas: [#pragma HLS pipeline [II=n]] marks the pipelined loop (its
    trip count becomes the kernel's); [#pragma HLS unroll [factor=n]]
    fully unrolls; [#pragma HLS dataflow] marks a network region whose
    body is kernel calls over shared streams.

    Types: [bool], [char]/[short]/[int]/[long] (+ [unsigned]), [float],
    [double], and the aliases [data_t]/[int8_t]/[int16_t]/[int32_t]/
    [uint32_t]/[uint64_t]. Arrays of at least {!Elab.buffer_threshold}
    elements map to BRAM buffers, smaller ones to register files. *)

type error = {
  err_message : string;
  err_line : int option;
}

val pp_error : Format.formatter -> error -> unit

val parse : string -> (Ast.program, error) result
(** Lex + parse. *)

val kernel_of_program : Ast.program -> (Hlsb_ir.Kernel.t, error) result
(** Elaborate an already-parsed program containing exactly one kernel
    function (one without [#pragma HLS dataflow]) to a kernel; any other
    count is an error. Programs produced by {!Hlsb_transform} plans flow
    through here unchanged. *)

val kernel_of_string : string -> (Hlsb_ir.Kernel.t, error) result
(** [parse] + {!kernel_of_program}. *)

val design_of_program : Ast.program -> (Hlsb_ir.Dataflow.t, error) result
(** Elaborate an already-parsed (and possibly transformed) program whose
    top function describes a dataflow network. The top is the one
    [#pragma HLS dataflow] function, else the last function (a single
    kernel function is wrapped into a one-process network); several
    dataflow functions are an error. *)

val design_of_string : string -> (Hlsb_ir.Dataflow.t, error) result
(** [parse] + {!design_of_program}. *)
