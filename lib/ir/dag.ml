module Vec = Hlsb_util.Vec

type node = int

type buffer = {
  b_name : string;
  b_dtype : Dtype.t;
  b_depth : int;
  b_partition : int;
}

type fifo = {
  f_name : string;
  f_dtype : Dtype.t;
  f_depth : int;
}

type kind =
  | Input of string
  | Const of int64
  | Operation of Op.t
  | Load of int
  | Store of int
  | Fifo_read of int
  | Fifo_write of int
  | Output of string

(* Struct-of-arrays store. Node [v]'s [kind_dtype.(v)] packs a kind
   index [k] above its dtype's {!Dtype.code}. Its kind is
   [op_kinds.(-1 - k)] for an operator with an {!Op.code}, shared by all
   DAGs, else [kind_tab.(k)]: one entry per input, constant, output or
   slice node, and one per buffer or fifo that every access to it shares.
   So [kind] and [dtype] never allocate. Its arguments are
   [arg_buf.(arg_off.(v)) .. arg_buf.(arg_off.(v + 1) - 1)]. Every array
   is a growable buffer whose first [n] ([n + 1] for [arg_off],
   [arg_off.(n)] for [arg_buf]) slots are live. *)
type t = {
  mutable n : int;
  mutable kind_dtype : int array;
  mutable arg_off : int array;
  mutable arg_buf : int array;
  mutable kind_tab : kind array;
  mutable n_kinds : int;
  bufs : (buffer * int) Vec.t;  (* with its [Load]'s kind; [Store]'s is next *)
  fifo_decls : (fifo * int) Vec.t;  (* with [Fifo_read]'s; [Fifo_write]'s next *)
  mutable consumers : consumers option;
}

(* The read slots of every node in CSR form: node [v]'s consumers are
   [cons_buf.(cons_off.(v)) .. cons_buf.(cons_off.(v + 1) - 1)], in
   descending id order. *)
and consumers = {
  cons_off : int array;
  cons_buf : int array;
}

let op_kinds = Array.init Op.n_codes (fun c -> Operation (Op.of_code c))

let create () =
  {
    n = 0;
    kind_dtype = [||];
    arg_off = [| 0 |];
    arg_buf = [||];
    kind_tab = [||];
    n_kinds = 0;
    bufs = Vec.create ();
    fifo_decls = Vec.create ();
    consumers = None;
  }

(* [a] with room for [need] elements, new slots holding [fill]: a
   buffer that grows at least doubles. *)
let grow a need fill =
  if need <= Array.length a then a
  else begin
    let b = Array.make (max need (max 8 (2 * Array.length a))) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let add_kind t k =
  let i = t.n_kinds in
  if i = Array.length t.kind_tab then t.kind_tab <- grow t.kind_tab (i + 1) k;
  t.kind_tab.(i) <- k;
  t.n_kinds <- i + 1;
  i

let dtype_code dt =
  Dtype.validate dt;
  Dtype.code dt

(* Dtype codes fit below bit 11; the kind index above is signed. *)
let dtype_bits = 11
let kind_of x = x asr dtype_bits
let dtype_of x = x land ((1 lsl dtype_bits) - 1)

let op_kind t o =
  let c = Op.code o in
  if c >= 0 then -1 - c else add_kind t (Operation o)

let add_buffer t ~name ~dtype ~depth ~partition =
  Dtype.validate dtype;
  if depth <= 0 then invalid_arg "Dag.add_buffer: depth <= 0";
  if partition <= 0 then invalid_arg "Dag.add_buffer: partition <= 0";
  let b = Vec.length t.bufs in
  let load = add_kind t (Load b) in
  ignore (add_kind t (Store b));
  Vec.push t.bufs
    ({ b_name = name; b_dtype = dtype; b_depth = depth; b_partition = partition }, load)

let add_fifo t ~name ~dtype ~depth =
  Dtype.validate dtype;
  if depth <= 0 then invalid_arg "Dag.add_fifo: depth <= 0";
  let f = Vec.length t.fifo_decls in
  let read = add_kind t (Fifo_read f) in
  ignore (add_kind t (Fifo_write f));
  Vec.push t.fifo_decls ({ f_name = name; f_dtype = dtype; f_depth = depth }, read)

let check_node t v =
  if v < 0 || v >= t.n then
    invalid_arg "Dag: node reference out of range (forward reference?)"

(* Appends node [t.n] once its arguments are pushed ([push_arg]): they
   sit past [arg_off.(t.n)] until then. *)
let push_arg t a =
  check_node t a;
  let k = t.arg_off.(t.n + 1) in
  if k = Array.length t.arg_buf then t.arg_buf <- grow t.arg_buf (k + 1) 0;
  t.arg_buf.(k) <- a;
  t.arg_off.(t.n + 1) <- k + 1

let rec push_args t = function
  | [] -> ()
  | a :: rest ->
    push_arg t a;
    push_args t rest

let start_node t =
  let n = t.n in
  if n + 2 > Array.length t.arg_off then t.arg_off <- grow t.arg_off (n + 2) 0;
  t.arg_off.(n + 1) <- t.arg_off.(n)

let finish_node t kind dtype =
  let v = t.n in
  if v = Array.length t.kind_dtype then t.kind_dtype <- grow t.kind_dtype (v + 1) 0;
  t.kind_dtype.(v) <- (kind lsl dtype_bits) lor dtype;
  t.n <- v + 1;
  t.consumers <- None;
  v

(* A node with the given args; the dtype is validated before anything is
   written, so a failed add leaves the DAG as it was. *)
let add_node t kind dtype args =
  let dtype = dtype_code dtype in
  start_node t;
  push_args t args;
  finish_node t kind dtype

let input t ~name ~dtype =
  let dtype = dtype_code dtype in
  start_node t;
  finish_node t (add_kind t (Input name)) dtype

let const t ~dtype v =
  let dtype = dtype_code dtype in
  start_node t;
  finish_node t (add_kind t (Const v)) dtype

let op t o ~dtype args =
  let want = Op.arity o in
  if want >= 0 && List.length args <> want then
    invalid_arg
      (Printf.sprintf "Dag.op: %s expects %d args, got %d" (Op.to_string o)
         want (List.length args));
  if want < 0 && args = [] then invalid_arg "Dag.op: concat of nothing";
  let dtype = dtype_code (if Op.result_is_bool o then Dtype.Bool else dtype) in
  start_node t;
  push_args t args;
  finish_node t (op_kind t o) dtype

let check_buffer t b =
  if b < 0 || b >= Vec.length t.bufs then invalid_arg "Dag: bad buffer id"

let check_fifo t f =
  if f < 0 || f >= Vec.length t.fifo_decls then invalid_arg "Dag: bad fifo id"

let load t ~buffer ~index =
  check_buffer t buffer;
  let b, load = Vec.get t.bufs buffer in
  add_node t load b.b_dtype [ index ]

let store t ~buffer ~index ~value =
  check_buffer t buffer;
  let b, load = Vec.get t.bufs buffer in
  add_node t (load + 1) b.b_dtype [ index; value ]

let fifo_read t ~fifo =
  check_fifo t fifo;
  let f, read = Vec.get t.fifo_decls fifo in
  add_node t read f.f_dtype []

let fifo_write t ~fifo ~value =
  check_fifo t fifo;
  let f, read = Vec.get t.fifo_decls fifo in
  add_node t (read + 1) f.f_dtype [ value ]

let output t ~name ~value =
  check_node t value;
  let dtype = dtype_of t.kind_dtype.(value) in
  start_node t;
  push_arg t value;
  finish_node t (add_kind t (Output name)) dtype

let n_nodes t = t.n

let kind t v =
  check_node t v;
  let k = kind_of t.kind_dtype.(v) in
  if k < 0 then op_kinds.(-1 - k) else t.kind_tab.(k)

let dtype t v =
  check_node t v;
  Dtype.of_code (dtype_of t.kind_dtype.(v))

let n_args t v =
  check_node t v;
  t.arg_off.(v + 1) - t.arg_off.(v)

let arg t v i =
  check_node t v;
  let k = t.arg_off.(v) + i in
  if i < 0 || k >= t.arg_off.(v + 1) then invalid_arg "Dag.arg: slot out of range";
  t.arg_buf.(k)

let args t v =
  check_node t v;
  let rec from k acc =
    if k < t.arg_off.(v) then acc else from (k - 1) (t.arg_buf.(k) :: acc)
  in
  from (t.arg_off.(v + 1) - 1) []

let buffer t b = check_buffer t b; fst (Vec.get t.bufs b)
let fifo t f = check_fifo t f; fst (Vec.get t.fifo_decls f)
let buffers t = Array.init (Vec.length t.bufs) (buffer t)
let fifos t = Array.init (Vec.length t.fifo_decls) (fifo t)

let node_name t v =
  match kind t v with
  | Input s | Output s -> s
  | Const c -> Int64.to_string c
  | Operation o -> Op.to_string o
  | Load b -> (buffer t b).b_name ^ ".load"
  | Store b -> (buffer t b).b_name ^ ".store"
  | Fifo_read f -> (fifo t f).f_name ^ ".read"
  | Fifo_write f -> (fifo t f).f_name ^ ".write"

(* Counting sort of the read slots by the node they read: [off.(a)] starts
   as the end of [a]'s range and is decremented once per slot filled, so
   it ends at the range's start, and slots scanned in ascending consumer
   order land in descending order. *)
let consumer_index t =
  match t.consumers with
  | Some c -> c
  | None ->
    let n = t.n and total = t.arg_off.(t.n) in
    let off = Array.make (n + 1) 0 in
    for k = 0 to total - 1 do
      let a = t.arg_buf.(k) in
      off.(a) <- off.(a) + 1
    done;
    for a = 1 to n - 1 do
      off.(a) <- off.(a) + off.(a - 1)
    done;
    off.(n) <- total;
    let buf = Array.make total 0 in
    for u = 0 to n - 1 do
      for k = t.arg_off.(u) to t.arg_off.(u + 1) - 1 do
        let a = t.arg_buf.(k) in
        let p = off.(a) - 1 in
        off.(a) <- p;
        buf.(p) <- u
      done
    done;
    let c = { cons_off = off; cons_buf = buf } in
    t.consumers <- Some c;
    c

let index_consumers t = ignore (consumer_index t)

let broadcast_factor t v =
  check_node t v;
  let c = consumer_index t in
  c.cons_off.(v + 1) - c.cons_off.(v)

let consumer t v i =
  check_node t v;
  let c = consumer_index t in
  let k = c.cons_off.(v) + i in
  if i < 0 || k >= c.cons_off.(v + 1) then invalid_arg "Dag.consumer: slot out of range";
  c.cons_buf.(k)

let iter t f =
  for v = 0 to t.n - 1 do
    f v
  done

(* Exactly what [Schedule.run] and [Lower] read of a DAG, names and
   constant values aside: per node the kind's variant, the operator, a
   memory access's buffer (id, dtype, depth and partition factor), a fifo
   access's fifo (id and depth), the node's dtype and its arguments. *)
let same_structure a b =
  a == b
  ||
  let n = a.n in
  n = b.n
  && a.arg_off.(n) = b.arg_off.(n)
  &&
  let same_buffer x y =
    x = y
    &&
    let x = buffer a x and y = buffer b y in
    Dtype.equal x.b_dtype y.b_dtype
    && x.b_depth = y.b_depth
    && x.b_partition = y.b_partition
  in
  let same_fifo x y = x = y && (fifo a x).f_depth = (fifo b y).f_depth in
  (* A coded operator's kind is its negated code in both DAGs. *)
  let same_kind ka kb =
    if ka < 0 || kb < 0 then ka = kb
    else
      match (a.kind_tab.(ka), b.kind_tab.(kb)) with
      | Input _, Input _ | Const _, Const _ | Output _, Output _ -> true
      | Fifo_read x, Fifo_read y | Fifo_write x, Fifo_write y -> same_fifo x y
      | Operation o, Operation p -> Op.equal o p
      | Load x, Load y | Store x, Store y -> same_buffer x y
      | ( ( Input _ | Const _ | Operation _ | Load _ | Store _ | Fifo_read _
          | Fifo_write _ | Output _ ),
          _ ) ->
        false
  in
  let rec nodes v =
    v = n
    || a.arg_off.(v) = b.arg_off.(v)
       &&
       let x = a.kind_dtype.(v) and y = b.kind_dtype.(v) in
       dtype_of x = dtype_of y
       && same_kind (kind_of x) (kind_of y)
       && nodes (v + 1)
  in
  let rec args k = k < 0 || (a.arg_buf.(k) = b.arg_buf.(k) && args (k - 1)) in
  nodes 0 && args (a.arg_off.(n) - 1)

let validate t =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  for id = 0 to t.n - 1 do
    let arity = t.arg_off.(id + 1) - t.arg_off.(id) in
    for k = t.arg_off.(id) to t.arg_off.(id + 1) - 1 do
      let a = t.arg_buf.(k) in
      if a < 0 || a >= id then err "node %d: bad arg %d" id a
    done;
    match kind t id with
    | Input _ | Const _ -> if arity <> 0 then err "node %d: source with args" id
    | Operation o ->
      let want = Op.arity o in
      if want >= 0 && arity <> want then err "node %d: %s arity" id (Op.to_string o);
      if Op.result_is_bool o && not (Dtype.equal (dtype t id) Dtype.Bool) then
        err "node %d: comparison result must be bool" id
    | Load b ->
      if b < 0 || b >= Vec.length t.bufs then err "node %d: bad buffer" id;
      if arity <> 1 then err "node %d: load arity" id
    | Store b ->
      if b < 0 || b >= Vec.length t.bufs then err "node %d: bad buffer" id
      else if arity <> 2 then err "node %d: store arity" id
      else begin
        let vw = Dtype.width (dtype t (arg t id 1)) in
        let bw = Dtype.width (buffer t b).b_dtype in
        if vw <> bw then err "node %d: store width %d <> buffer width %d" id vw bw
      end
    | Fifo_read f ->
      if f < 0 || f >= Vec.length t.fifo_decls then err "node %d: bad fifo" id
    | Fifo_write f ->
      if f < 0 || f >= Vec.length t.fifo_decls then err "node %d: bad fifo" id;
      if arity <> 1 then err "node %d: fifo_write arity" id
    | Output _ -> if arity <> 1 then err "node %d: output arity" id
  done;
  match !errors with
  | [] -> Ok ()
  | es -> Error (String.concat "; " (List.rev es))

let pp_node t fmt v =
  let args = args t v |> List.map string_of_int |> String.concat ", " in
  Format.fprintf fmt "%%%d = %s:%s(%s)" v (node_name t v)
    (Dtype.to_string (dtype t v))
    args

let pp fmt t =
  iter t (fun v -> Format.fprintf fmt "%a@." (pp_node t) v)
