let schema = "hlsb-store/2"
let env_var = "HLSBD_STORE"
let default_root = Filename.concat ".hlsb" "store"

let ambient_root () =
  match Sys.getenv_opt env_var with
  | Some d when d <> "" -> d
  | _ -> default_root

let default_budget_bytes = 256 * 1024 * 1024

type t = {
  t_root : string;
  t_budget : int;
  t_mutex : Mutex.t;  (** guards the counters; disk state is self-locking *)
  mutable t_hits : int;
  mutable t_misses : int;
  mutable t_puts : int;
  mutable t_evictions : int;
  mutable t_approx_bytes : int option;
      (** running estimate maintained by put/evict; [None] until the
          first put reads the disk, so opening a store costs no scan.
          Rescanned whenever an eviction decision is actually taken, so
          drift from other processes only costs a scan, never a wrong
          eviction *)
}

type stats = {
  st_entries : int;
  st_bytes : int;
  st_hits : int;
  st_misses : int;
  st_puts : int;
  st_evictions : int;
}

let root t = t.t_root
let budget_bytes t = t.t_budget

let sanitize_ns ns =
  let mapped =
    String.to_seq ns
    |> Seq.filter_map (fun c ->
         match c with
         | 'A' .. 'Z' -> Some (Char.lowercase_ascii c)
         | 'a' .. 'z' | '0' .. '9' | '-' | '_' -> Some c
         | _ -> None)
    |> String.of_seq
  in
  if mapped = "" then "default" else mapped

let key ~parts =
  Digest.to_hex
    (Digest.string (String.concat "\x00" (schema :: Build_id.digest :: parts)))

(* Every entry file is a fixed-length header line naming the payload's
   MD5, then the payload. Sizes and budgets count payload bytes only. *)
let header digest = schema ^ " " ^ Digest.to_hex digest ^ "\n"

let header_len = String.length (header (Digest.string ""))

let verified file =
  let n = String.length file - header_len in
  if
    n >= 0
    && String.equal
         (header (Digest.substring file header_len n))
         (String.sub file 0 header_len)
  then Some (String.sub file header_len n)
  else None

let entry_path ~root ~ns ~key =
  let ns = sanitize_ns ns in
  let shard = if String.length key >= 2 then String.sub key 0 2 else "00" in
  Filename.concat (Filename.concat (Filename.concat root ns) shard) key

(* An entry file name is a 32-hex-digit MD5; anything else in the tree
   (temp files mid-rename, stray editor droppings) is left alone. *)
let is_entry name =
  String.length name = 32
  && String.for_all
       (function 'a' .. 'f' | '0' .. '9' -> true | _ -> false)
       name

let scan root =
  (* [(path, mtime, bytes)] of every entry under every namespace *)
  let acc = ref [] in
  let dir_entries d =
    match Sys.readdir d with exception Sys_error _ -> [||] | fs -> fs
  in
  Array.iter
    (fun ns ->
      let ns_dir = Filename.concat root ns in
      if (try Sys.is_directory ns_dir with Sys_error _ -> false) then
        Array.iter
          (fun shard ->
            let shard_dir = Filename.concat ns_dir shard in
            if (try Sys.is_directory shard_dir with Sys_error _ -> false) then
              Array.iter
                (fun f ->
                  if is_entry f then
                    let path = Filename.concat shard_dir f in
                    match Unix.stat path with
                    | { Unix.st_kind = Unix.S_REG; st_mtime; st_size; _ } ->
                      acc := (path, st_mtime, max 0 (st_size - header_len)) :: !acc
                    | _ | (exception Unix.Unix_error _) -> ())
                (dir_entries shard_dir))
          (dir_entries ns_dir))
    (dir_entries root);
  !acc

let disk_usage ~root =
  let entries = scan root in
  (List.length entries, List.fold_left (fun a (_, _, b) -> a + b) 0 entries)

let open_ ?(budget_bytes = default_budget_bytes) ~root () =
  Atomic_file.mkdir_p root;
  {
    t_root = root;
    t_budget = budget_bytes;
    t_mutex = Mutex.create ();
    t_hits = 0;
    t_misses = 0;
    t_puts = 0;
    t_evictions = 0;
    t_approx_bytes = None;
  }

let count t f = Mutex.protect t.t_mutex (fun () -> f t)

let miss t =
  count t (fun t -> t.t_misses <- t.t_misses + 1);
  None

let find t ~ns ~key =
  let path = entry_path ~root:t.t_root ~ns ~key in
  match Atomic_file.read path with
  | None -> miss t
  | Some file -> (
    match verified file with
    | Some bytes ->
      (* the read IS the LRU touch: utimes to now *)
      (try Unix.utimes path 0. 0. with Unix.Unix_error _ -> ());
      count t (fun t -> t.t_hits <- t.t_hits + 1);
      Some bytes
    | None ->
      (try Sys.remove path with Sys_error _ -> ());
      prerr_endline
        (Diag.to_string
           (Diag.warning ~stage:"store"
              (Printf.sprintf "evicted %s: truncated or fails its digest check"
                 path)));
      miss t)

(* Oldest-first eviction to budget. [keep] protects the entry a put just
   published from being the victim of its own eviction pass. *)
let evict_to_budget ?keep t =
  let entries =
    scan t.t_root |> List.sort (fun (_, a, _) (_, b, _) -> compare a b)
  in
  let total = List.fold_left (fun a (_, _, b) -> a + b) 0 entries in
  count t (fun t -> t.t_approx_bytes <- Some total);
  let evicted = ref 0 in
  let remaining = ref total in
  List.iter
    (fun (path, _, bytes) ->
      if !remaining > t.t_budget && keep <> Some path then (
        match Sys.remove path with
        | () ->
          remaining := !remaining - bytes;
          incr evicted;
          count t (fun t ->
            t.t_evictions <- t.t_evictions + 1;
            t.t_approx_bytes <- Option.map (fun b -> b - bytes) t.t_approx_bytes)
        | exception Sys_error _ -> () (* another process got there first *)))
    entries;
  !evicted

let put t ~ns ~key bytes =
  let path = entry_path ~root:t.t_root ~ns ~key in
  match Atomic_file.write ~path (header (Digest.string bytes) ^ bytes) with
  | Error _ as e -> e
  | Ok () ->
    let total =
      count t (fun t ->
        t.t_puts <- t.t_puts + 1;
        t.t_approx_bytes <-
          Option.map (fun b -> b + String.length bytes) t.t_approx_bytes;
        t.t_approx_bytes)
    in
    let total =
      match total with
      | Some b -> b
      | None ->
        (* the first put reads the disk, the entry just written included *)
        let _, b = disk_usage ~root:t.t_root in
        count t (fun t -> t.t_approx_bytes <- Some b);
        b
    in
    if total > t.t_budget then ignore (evict_to_budget ~keep:path t);
    Ok ()

let gc t = evict_to_budget t

let clear t =
  let entries = scan t.t_root in
  List.iter
    (fun (path, _, _) -> try Sys.remove path with Sys_error _ -> ())
    entries;
  count t (fun t -> t.t_approx_bytes <- Some 0);
  List.length entries

let hit_rate t =
  Mutex.protect t.t_mutex (fun () ->
    let lookups = t.t_hits + t.t_misses in
    if lookups = 0 then 0. else float_of_int t.t_hits /. float_of_int lookups)

let stats t =
  let entries, bytes = disk_usage ~root:t.t_root in
  count t (fun t -> t.t_approx_bytes <- Some bytes);
  Mutex.protect t.t_mutex (fun () ->
    {
      st_entries = entries;
      st_bytes = bytes;
      st_hits = t.t_hits;
      st_misses = t.t_misses;
      st_puts = t.t_puts;
      st_evictions = t.t_evictions;
    })
