module Ast = Hlsb_frontend.Ast
module Elab = Hlsb_frontend.Elab
module Diag = Hlsb_util.Diag

let fail fmt = Diag.fail ~stage:"transform" fmt

type request =
  | Unroll of { u_loop : string option; u_factor : int }
  | Partition of { p_array : string option; p_factor : int }
  | Fission of { f_loop : string option }
  | Fusion of { fu_loop : string option }
  | Stream_insert of { si_array : string option }

let request_to_string = function
  | Unroll { u_loop = None; u_factor } -> Printf.sprintf "unroll=%d" u_factor
  | Unroll { u_loop = Some l; u_factor } ->
    Printf.sprintf "unroll=%s:%d" l u_factor
  | Partition { p_array = None; p_factor } ->
    Printf.sprintf "partition=cyclic:%d" p_factor
  | Partition { p_array = Some a; p_factor } ->
    Printf.sprintf "partition=cyclic:%s:%d" a p_factor
  | Fission { f_loop = None } -> "fission"
  | Fission { f_loop = Some l } -> "fission=" ^ l
  | Fusion { fu_loop = None } -> "fusion"
  | Fusion { fu_loop = Some l } -> "fusion=" ^ l
  | Stream_insert { si_array = None } -> "stream"
  | Stream_insert { si_array = Some a } -> "stream=" ^ a

(* ---- expression/statement utilities ---- *)

(* Bottom-up expression rewrite with a partial function tried at every
   node (children first, so the match sees already-rewritten subtrees). *)
let rec map_expr fe (e : Ast.expr) =
  let e =
    match e with
    | Ast.Int_const _ | Ast.Float_const _ | Ast.Var _ -> e
    | Ast.Field (b, f) -> Ast.Field (map_expr fe b, f)
    | Ast.Index (b, i) -> Ast.Index (map_expr fe b, map_expr fe i)
    | Ast.Binop (op, a, b) -> Ast.Binop (op, map_expr fe a, map_expr fe b)
    | Ast.Unop (op, a) -> Ast.Unop (op, map_expr fe a)
    | Ast.Ternary (c, t, f) ->
      Ast.Ternary (map_expr fe c, map_expr fe t, map_expr fe f)
    | Ast.Call (fn, args) -> Ast.Call (fn, List.map (map_expr fe) args)
    | Ast.Method (obj, m, args) ->
      Ast.Method (obj, m, List.map (map_expr fe) args)
  in
  match fe e with Some e' -> e' | None -> e

let subst_expr v repl =
  map_expr (function Ast.Var name when name = v -> Some repl | _ -> None)

(* Substitute [Var v := repl] through a block, honouring shadowing: a
   redeclaration of [v] hides it for the rest of the block, and a nested
   loop over [v] hides it in that loop's body. *)
let rec subst_stmts v repl stmts =
  match stmts with
  | [] -> []
  | s :: rest ->
    let s' = subst_stmt v repl s in
    let shadowed =
      match s with
      | Ast.Decl (_, n, _, _) | Ast.Stream_decl (_, n) -> n = v
      | _ -> false
    in
    if shadowed then s' :: rest else s' :: subst_stmts v repl rest

and subst_stmt v repl (s : Ast.stmt) : Ast.stmt =
  match s with
  | Ast.Pragma_stmt _ | Ast.Stream_decl _ -> s
  | Ast.Decl (ty, n, sz, init) ->
    Ast.Decl (ty, n, sz, Option.map (subst_expr v repl) init)
  | Ast.Assign (l, r) -> Ast.Assign (subst_expr v repl l, subst_expr v repl r)
  | Ast.Plus_assign (l, r) ->
    Ast.Plus_assign (subst_expr v repl l, subst_expr v repl r)
  | Ast.Expr_stmt e -> Ast.Expr_stmt (subst_expr v repl e)
  | Ast.Return e -> Ast.Return (Option.map (subst_expr v repl) e)
  | Ast.If (c, t, e) ->
    Ast.If (subst_expr v repl c, subst_stmts v repl t, subst_stmts v repl e)
  | Ast.For fl ->
    if fl.Ast.fl_var = v then s
    else Ast.For { fl with Ast.fl_body = subst_stmts v repl fl.Ast.fl_body }

(* Rewrite every loop in the program: [on_for] returns [Some stmts] to
   replace the loop (the replacement is not revisited), or [None] to keep
   it and recurse into its body. *)
let rec rewrite_stmts on_for stmts =
  List.concat_map
    (fun s ->
      match s with
      | Ast.For fl -> (
        match on_for fl with
        | Some repl -> repl
        | None ->
          [ Ast.For { fl with Ast.fl_body = rewrite_stmts on_for fl.Ast.fl_body } ])
      | Ast.If (c, t, e) ->
        [ Ast.If (c, rewrite_stmts on_for t, rewrite_stmts on_for e) ]
      | s -> [ s ])
    stmts

let rewrite_program on_for (p : Ast.program) =
  List.map (fun f -> { f with Ast.f_body = rewrite_stmts on_for f.Ast.f_body }) p

(* ---- dependence summaries (fission / fusion legality) ---- *)

module SS = Set.Make (String)

type usage = {
  defs : SS.t;  (** scalar names written *)
  uses : SS.t;  (** names read *)
  streams : SS.t;  (** streams touched (order-sensitive resources) *)
  writes : SS.t;  (** array roots written *)
  arrays : SS.t;  (** array roots touched at all *)
}

let u_empty =
  {
    defs = SS.empty;
    uses = SS.empty;
    streams = SS.empty;
    writes = SS.empty;
    arrays = SS.empty;
  }

let u_union a b =
  {
    defs = SS.union a.defs b.defs;
    uses = SS.union a.uses b.uses;
    streams = SS.union a.streams b.streams;
    writes = SS.union a.writes b.writes;
    arrays = SS.union a.arrays b.arrays;
  }

let rec expr_root = function
  | Ast.Var v -> v
  | Ast.Field (e, _) | Ast.Index (e, _) -> expr_root e
  | _ -> "?"

let rec expr_usage u (e : Ast.expr) =
  match e with
  | Ast.Int_const _ | Ast.Float_const _ -> u
  | Ast.Var n -> { u with uses = SS.add n u.uses }
  | Ast.Field (b, _) -> expr_usage u b
  | Ast.Index (b, i) ->
    let u = { u with arrays = SS.add (expr_root b) u.arrays } in
    expr_usage (expr_usage u b) i
  | Ast.Binop (_, a, b) -> expr_usage (expr_usage u a) b
  | Ast.Unop (_, a) -> expr_usage u a
  | Ast.Ternary (c, t, f) -> expr_usage (expr_usage (expr_usage u c) t) f
  | Ast.Call (_, args) -> List.fold_left expr_usage u args
  | Ast.Method (obj, meth, args) -> (
    let u = { u with streams = SS.add obj u.streams } in
    match (meth, args) with
    | "read", [ Ast.Unop (Ast.U_addr, Ast.Var t) ] ->
      { u with defs = SS.add t u.defs }
    | _ -> List.fold_left expr_usage u args)

let rec stmt_usage u (s : Ast.stmt) =
  match s with
  | Ast.Pragma_stmt _ -> u
  | Ast.Decl (_, n, _, init) ->
    let u = match init with Some e -> expr_usage u e | None -> u in
    { u with defs = SS.add n u.defs }
  | Ast.Stream_decl (_, n) ->
    { u with defs = SS.add n u.defs; streams = SS.add n u.streams }
  | Ast.Assign (lhs, rhs) | Ast.Plus_assign (lhs, rhs) -> (
    let u = expr_usage u rhs in
    let u =
      match s with Ast.Plus_assign _ -> expr_usage u lhs | _ -> u
    in
    match lhs with
    | Ast.Var n -> { u with defs = SS.add n u.defs }
    | Ast.Index (b, i) ->
      let root = expr_root b in
      let u = expr_usage u i in
      {
        u with
        writes = SS.add root u.writes;
        arrays = SS.add root u.arrays;
      }
    | Ast.Field _ -> { u with defs = SS.add (expr_root lhs) u.defs }
    | lhs ->
      (* unsupported target: be conservative, treat as def+use of root *)
      let root = expr_root lhs in
      { u with defs = SS.add root u.defs; uses = SS.add root u.uses })
  | Ast.Expr_stmt e -> expr_usage u e
  | Ast.Return e ->
    let u = match e with Some e -> expr_usage u e | None -> u in
    (* outputs are emitted in order; keep all returns in one group *)
    { u with streams = SS.add "%return" u.streams }
  | Ast.If (c, t, e) ->
    let u = expr_usage u c in
    let u = List.fold_left stmt_usage u t in
    List.fold_left stmt_usage u e
  | Ast.For fl ->
    let u = List.fold_left stmt_usage u fl.Ast.fl_body in
    { u with defs = SS.add fl.Ast.fl_var u.defs }

let stmts_usage stmts = List.fold_left stmt_usage u_empty stmts

(* Running group [a] entirely before group [b] (fission) — or interleaving
   them per iteration (fusion) — preserves semantics only when neither
   group's effects feed the other. *)
let independent a b =
  SS.is_empty (SS.inter a.defs b.uses)
  && SS.is_empty (SS.inter b.defs a.uses)
  && SS.is_empty (SS.inter a.streams b.streams)
  && SS.is_empty (SS.inter a.writes b.arrays)
  && SS.is_empty (SS.inter b.writes a.arrays)

(* ---- unroll ---- *)

let strip_unroll_pragmas pragmas =
  List.filter (fun p -> not (Elab.pragma_is "unroll" p)) pragmas

let unroll ~loop ~factor program =
  if factor < 2 then fail "unroll factor must be >= 2 (got %d)" factor;
  let applied = ref 0 in
  let on_for (fl : Ast.for_loop) =
    let matches =
      match loop with None -> true | Some v -> v = fl.Ast.fl_var
    in
    if not matches then None
    else begin
      let trips = Int64.to_int (Int64.sub fl.Ast.fl_hi fl.Ast.fl_lo) in
      if trips <= 0 then
        fail "cannot unroll loop over %s: non-positive trip count %d"
          fl.Ast.fl_var trips;
      if factor >= trips then begin
        incr applied;
        Some
          (List.concat
             (List.init trips (fun j ->
                  subst_stmts fl.Ast.fl_var
                    (Ast.Int_const (Int64.add fl.Ast.fl_lo (Int64.of_int j)))
                    fl.Ast.fl_body)))
      end
      else if trips mod factor <> 0 then (
        match loop with
        | Some v ->
          fail "unroll factor %d does not divide the %d trips of loop %s"
            factor trips v
        | None -> None (* not eligible; keep scanning *))
      else begin
        incr applied;
        let body =
          List.concat
            (List.init factor (fun j ->
                 let idx =
                   Ast.Binop
                     ( Ast.B_add,
                       Ast.Binop
                         ( Ast.B_mul,
                           Ast.Var fl.Ast.fl_var,
                           Ast.Int_const (Int64.of_int factor) ),
                       Ast.Int_const (Int64.add fl.Ast.fl_lo (Int64.of_int j))
                     )
                 in
                 subst_stmts fl.Ast.fl_var idx fl.Ast.fl_body))
        in
        Some
          [
            Ast.For
              {
                Ast.fl_var = fl.Ast.fl_var;
                fl_lo = 0L;
                fl_hi = Int64.of_int (trips / factor);
                fl_pragmas = strip_unroll_pragmas fl.Ast.fl_pragmas;
                fl_body = body;
              };
          ]
      end
    end
  in
  let p' = rewrite_program on_for program in
  (if !applied = 0 then
     match loop with
     | Some v -> fail "no loop over %s to unroll" v
     | None -> fail "no loop whose trip count factor %d divides" factor);
  p'

(* ---- cyclic array partitioning ---- *)

let partition ~array ~factor program =
  if factor < 2 then fail "partition factor must be >= 2 (got %d)" factor;
  let rec sized_decls acc stmts =
    List.fold_left
      (fun acc s ->
        match s with
        | Ast.Decl (_, n, Some size, _) -> (n, size) :: acc
        | Ast.For fl -> sized_decls acc fl.Ast.fl_body
        | Ast.If (_, t, e) -> sized_decls (sized_decls acc t) e
        | _ -> acc)
      acc stmts
  in
  let applied = ref 0 in
  let program' =
    List.map
      (fun f ->
        let arrays =
          List.filter_map
            (function Ast.P_array (_, n, s) -> Some (n, s) | _ -> None)
            f.Ast.f_params
          @ sized_decls [] f.Ast.f_body
          |> List.sort_uniq compare
        in
        let targets =
          match array with
          | Some n -> List.filter (fun (a, _) -> a = n) arrays
          | None ->
            List.filter (fun (_, s) -> s >= Elab.buffer_threshold) arrays
        in
        List.iter
          (fun (n, size) ->
            if size < Elab.buffer_threshold then
              fail
                "array %s[%d] is below the BRAM threshold (%d); partitioning \
                 a register file is meaningless"
                n size Elab.buffer_threshold;
            if factor > size then
              fail "partition factor %d exceeds the %d words of %s" factor
                size n)
          targets;
        if targets = [] then f
        else begin
          applied := !applied + List.length targets;
          let target_names = List.map fst targets in
          (* drop stale top-level partition pragmas for the same arrays *)
          let body =
            List.filter
              (function
                | Ast.Pragma_stmt p ->
                  not
                    (Elab.pragma_is "array_partition" p
                    && match Elab.pragma_value_raw "variable" p with
                       | Some v -> List.mem v target_names
                       | None -> false)
                | _ -> true)
              f.Ast.f_body
          in
          let pragmas =
            List.map
              (fun (n, _) ->
                Ast.Pragma_stmt
                  (Printf.sprintf
                     "HLS array_partition variable=%s cyclic factor=%d" n
                     factor))
              targets
          in
          { f with Ast.f_body = pragmas @ body }
        end)
      program
  in
  (if !applied = 0 then
     match array with
     | Some n -> fail "no array named %s to partition" n
     | None ->
       fail "no BRAM-sized array (>= %d words) to partition"
         Elab.buffer_threshold);
  program'

(* ---- loop fission ---- *)

let fission ~loop program =
  let applied = ref 0 in
  let on_for (fl : Ast.for_loop) =
    let matches =
      match loop with None -> true | Some v -> v = fl.Ast.fl_var
    in
    if not matches then None
    else begin
      let stmts = Array.of_list fl.Ast.fl_body in
      let n = Array.length stmts in
      (* named requests report why; anonymous ones keep scanning *)
      if n < 2 then
        if loop = None then None
        else
          fail "loop over %s has fewer than two statements; nothing to fission"
            fl.Ast.fl_var
      else begin
        let pre = Array.make (n + 1) u_empty in
        for i = 0 to n - 1 do
          pre.(i + 1) <- u_union pre.(i) (stmt_usage u_empty stmts.(i))
        done;
        let suf = Array.make (n + 1) u_empty in
        for i = n - 1 downto 0 do
          suf.(i) <- u_union (stmt_usage u_empty stmts.(i)) suf.(i + 1)
        done;
        let boundaries = ref [] in
        for i = n - 1 downto 1 do
          if independent pre.(i) suf.(i) then boundaries := i :: !boundaries
        done;
        match !boundaries with
        | [] ->
          if loop = None then None
          else
            fail
              "fission of loop over %s is blocked by cross-statement \
               dependences"
              fl.Ast.fl_var
        | bs ->
          incr applied;
          let groups = ref [] and cur = ref [] in
          for i = 0 to n - 1 do
            if List.mem i bs then begin
              groups := List.rev !cur :: !groups;
              cur := []
            end;
            cur := stmts.(i) :: !cur
          done;
          groups := List.rev !cur :: !groups;
          Some
            (List.rev_map
               (fun g -> Ast.For { fl with Ast.fl_body = g })
               !groups)
      end
    end
  in
  let p' = rewrite_program on_for program in
  (if !applied = 0 then
     match loop with
     | Some v -> fail "no loop over %s to fission" v
     | None -> fail "no fissionable loop: every loop body carries dependences");
  p'

(* ---- loop fusion ---- *)

let fusion ~loop program =
  let applied = ref 0 in
  let rec fuse_stmts stmts =
    match stmts with
    | Ast.For a :: Ast.For b :: rest
      when (match loop with None -> true | Some v -> v = a.Ast.fl_var)
           && a.Ast.fl_var = b.Ast.fl_var
           && a.Ast.fl_lo = b.Ast.fl_lo
           && a.Ast.fl_hi = b.Ast.fl_hi
           && a.Ast.fl_pragmas = b.Ast.fl_pragmas
           && independent (stmts_usage a.Ast.fl_body)
                (stmts_usage b.Ast.fl_body) ->
      incr applied;
      fuse_stmts
        (Ast.For { a with Ast.fl_body = a.Ast.fl_body @ b.Ast.fl_body }
        :: rest)
    | s :: rest ->
      let s' =
        match s with
        | Ast.For fl -> Ast.For { fl with Ast.fl_body = fuse_stmts fl.Ast.fl_body }
        | Ast.If (c, t, e) -> Ast.If (c, fuse_stmts t, fuse_stmts e)
        | s -> s
      in
      s' :: fuse_stmts rest
    | [] -> []
  in
  let p' =
    List.map (fun f -> { f with Ast.f_body = fuse_stmts f.Ast.f_body }) program
  in
  (if !applied = 0 then
     match loop with
     | Some v -> fail "no fusable adjacent loop pair over %s" v
     | None ->
       fail
         "no fusable adjacent loops (need identical headers and pragmas, \
          and independent bodies)");
  p'

(* ---- stream (FIFO) insertion ---- *)

let rec count_mentions name (e : Ast.expr) =
  match e with
  | Ast.Var n -> if n = name then 1 else 0
  | Ast.Int_const _ | Ast.Float_const _ -> 0
  | Ast.Field (b, _) -> count_mentions name b
  | Ast.Index (b, i) -> count_mentions name b + count_mentions name i
  | Ast.Binop (_, a, b) -> count_mentions name a + count_mentions name b
  | Ast.Unop (_, a) -> count_mentions name a
  | Ast.Ternary (c, t, f) ->
    count_mentions name c + count_mentions name t + count_mentions name f
  | Ast.Call (_, args) ->
    List.fold_left (fun acc a -> acc + count_mentions name a) 0 args
  | Ast.Method (obj, _, args) ->
    (if obj = name then 1 else 0)
    + List.fold_left (fun acc a -> acc + count_mentions name a) 0 args

let rec stmt_mentions name (s : Ast.stmt) =
  match s with
  | Ast.Pragma_stmt _ -> 0
  | Ast.Decl (_, n, _, init) ->
    (if n = name then 1 else 0)
    + (match init with Some e -> count_mentions name e | None -> 0)
  | Ast.Stream_decl (_, n) -> if n = name then 1 else 0
  | Ast.Assign (l, r) | Ast.Plus_assign (l, r) ->
    count_mentions name l + count_mentions name r
  | Ast.Expr_stmt e -> count_mentions name e
  | Ast.Return e -> (
    match e with Some e -> count_mentions name e | None -> 0)
  | Ast.If (c, t, e) ->
    count_mentions name c
    + List.fold_left (fun acc s -> acc + stmt_mentions name s) 0 t
    + List.fold_left (fun acc s -> acc + stmt_mentions name s) 0 e
  | Ast.For fl ->
    List.fold_left (fun acc s -> acc + stmt_mentions name s) 0 fl.Ast.fl_body

let stmts_mentions name stmts =
  List.fold_left (fun acc s -> acc + stmt_mentions name s) 0 stmts

let rec map_stmt_exprs fe (s : Ast.stmt) =
  match s with
  | Ast.Pragma_stmt _ | Ast.Stream_decl _ -> s
  | Ast.Decl (ty, n, sz, init) ->
    Ast.Decl (ty, n, sz, Option.map (map_expr fe) init)
  | Ast.Assign (l, r) -> Ast.Assign (map_expr fe l, map_expr fe r)
  | Ast.Plus_assign (l, r) -> Ast.Plus_assign (map_expr fe l, map_expr fe r)
  | Ast.Expr_stmt e -> Ast.Expr_stmt (map_expr fe e)
  | Ast.Return e -> Ast.Return (Option.map (map_expr fe) e)
  | Ast.If (c, t, e) ->
    Ast.If
      (map_expr fe c, List.map (map_stmt_exprs fe) t,
       List.map (map_stmt_exprs fe) e)
  | Ast.For fl ->
    Ast.For { fl with Ast.fl_body = List.map (map_stmt_exprs fe) fl.Ast.fl_body }

let stream_insert ~array program =
  let applied = ref false in
  let try_block stmts =
    let arr = Array.of_list stmts in
    let n = Array.length arr in
    let found = ref None in
    for j = 0 to n - 2 do
      if !found = None then
        match (arr.(j), arr.(j + 1)) with
        | Ast.For l1, Ast.For l2
          when l1.Ast.fl_lo = l2.Ast.fl_lo && l1.Ast.fl_hi = l2.Ast.fl_hi ->
          for d = 0 to j - 1 do
            if !found = None then
              match arr.(d) with
              | Ast.Decl (ty, a, Some _, None)
                when (match array with None -> true | Some n -> n = a) ->
                (* producer loop: exactly one a[i] = e store, nothing else *)
                let write_ok =
                  stmts_mentions a l1.Ast.fl_body = 1
                  && List.exists
                       (function
                         | Ast.Assign (Ast.Index (Ast.Var a', Ast.Var v), rhs)
                           ->
                           a' = a && v = l1.Ast.fl_var
                           && count_mentions a rhs = 0
                         | _ -> false)
                       l1.Ast.fl_body
                in
                (* consumer loop: exactly one a[i] read *)
                let read_ok =
                  stmts_mentions a l2.Ast.fl_body = 1
                  && List.exists
                       (fun s -> stmt_mentions a s = 1)
                       l2.Ast.fl_body
                in
                (* nowhere else in the block *)
                let elsewhere = ref 0 in
                Array.iteri
                  (fun k s ->
                    if k <> d && k <> j && k <> j + 1 then
                      elsewhere := !elsewhere + stmt_mentions a s)
                  arr;
                if write_ok && read_ok && !elsewhere = 0 then
                  found := Some (d, j, ty, a)
              | _ -> ()
          done
        | _ -> ()
    done;
    match !found with
    | None -> None
    | Some (d, j, ty, a) ->
      let l1 = match arr.(j) with Ast.For l -> l | _ -> assert false in
      let l2 =
        match arr.(j + 1) with Ast.For l -> l | _ -> assert false
      in
      let body1 =
        List.map
          (fun s ->
            match s with
            | Ast.Assign (Ast.Index (Ast.Var a', Ast.Var v), rhs)
              when a' = a && v = l1.Ast.fl_var ->
              Ast.Expr_stmt (Ast.Method (a, "write", [ rhs ]))
            | s -> s)
          l1.Ast.fl_body
      in
      let reads = ref 0 in
      let body2 =
        List.map
          (map_stmt_exprs (function
            | Ast.Index (Ast.Var a', Ast.Var v)
              when a' = a && v = l2.Ast.fl_var ->
              incr reads;
              Some (Ast.Method (a, "read", []))
            | _ -> None))
          l2.Ast.fl_body
      in
      if !reads <> 1 then None
      else begin
        arr.(d) <- Ast.Stream_decl (ty, a);
        arr.(j) <- Ast.For { l1 with Ast.fl_body = body1 };
        arr.(j + 1) <- Ast.For { l2 with Ast.fl_body = body2 };
        Some (Array.to_list arr)
      end
  in
  let program' =
    List.map
      (fun f ->
        if !applied then f
        else
          match try_block f.Ast.f_body with
          | Some body ->
            applied := true;
            { f with Ast.f_body = body }
          | None -> f)
      program
  in
  (if not !applied then
     match array with
     | Some a ->
       fail
         "array %s is not stream-insertable (need a single a[i] store in \
          one loop, a single a[i] read in the next, identical bounds, no \
          other uses)"
         a
     | None -> fail "no stream-insertable intermediate array found");
  program'

(* ---- dispatcher + pragma interpretation ---- *)

let apply r p =
  match r with
  | Unroll { u_loop; u_factor } -> unroll ~loop:u_loop ~factor:u_factor p
  | Partition { p_array; p_factor } ->
    partition ~array:p_array ~factor:p_factor p
  | Fission { f_loop } -> fission ~loop:f_loop p
  | Fusion { fu_loop } -> fusion ~loop:fu_loop p
  | Stream_insert { si_array } -> stream_insert ~array:si_array p

let requests_of_pragmas (p : Ast.program) =
  let reqs = ref [] and warns = ref [] in
  let warn fmt =
    Printf.ksprintf
      (fun m -> warns := Diag.warning ~stage:"transform" m :: !warns)
      fmt
  in
  let note ~loop s =
    if Elab.pragma_is "pipeline" s || Elab.pragma_is "dataflow" s then ()
    else if Elab.pragma_is "unroll" s then (
      match loop with
      | Some (fl : Ast.for_loop) ->
        let trips = Int64.to_int (Int64.sub fl.Ast.fl_hi fl.Ast.fl_lo) in
        let factor = Option.value ~default:trips (Elab.pragma_factor s) in
        reqs := Unroll { u_loop = Some fl.Ast.fl_var; u_factor = factor } :: !reqs
      | None -> warn "unroll pragma outside a loop: #pragma %s" s)
    else if Elab.pragma_is "array_partition" s then (
      match Elab.pragma_factor s with
      | Some f ->
        reqs :=
          Partition { p_array = Elab.pragma_value_raw "variable" s; p_factor = f }
          :: !reqs
      | None -> warn "array_partition pragma without factor=N: #pragma %s" s)
    else warn "unknown pragma (ignored by elaboration): #pragma %s" s
  in
  let rec walk stmts =
    List.iter
      (fun s ->
        match s with
        | Ast.Pragma_stmt s -> note ~loop:None s
        | Ast.For fl ->
          List.iter (note ~loop:(Some fl)) fl.Ast.fl_pragmas;
          walk fl.Ast.fl_body
        | Ast.If (_, t, e) ->
          walk t;
          walk e
        | _ -> ())
      stmts
  in
  List.iter (fun f -> walk f.Ast.f_body) p;
  (List.rev !reqs, List.rev !warns)
