(* Whole-file atomic writes via write-then-rename.

   The temp suffix must differ between any two concurrent writers of the
   same target, across domains AND processes. pid + domain id covers
   every live writer pair except pid reuse after a crash left a stale
   temp file behind; the random component makes that harmless too (the
   stale file is skipped, not appended to: O_EXCL below). *)

let rec mkdir_p dir =
  if
    dir <> "" && dir <> "/" && dir <> "."
    && not (Sys.file_exists dir)
  then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

(* Seeded per process from pid + wall clock: forked children and
   re-executed workers draw distinct sequences. Protected by a mutex so
   concurrent domains do not tear the generator state. *)
let rng = lazy (Random.State.make [| Unix.getpid (); int_of_float (Unix.gettimeofday () *. 1e6) |])
let rng_mutex = Mutex.create ()

let random_bits () =
  Mutex.protect rng_mutex (fun () -> Random.State.bits (Lazy.force rng))

let temp_suffix () =
  Printf.sprintf "%d.%d.%08x" (Unix.getpid ())
    (Domain.self () :> int)
    (random_bits () land 0xffff_ffff)

let read path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))

(* The rename replaces whatever [path] names, so a device or pipe
   (an output path of /dev/stdout, say) is refused, not replaced. *)
let not_regular path =
  match Unix.stat path with
  | { Unix.st_kind = Unix.S_REG; _ } -> false
  | _ -> true
  | exception Unix.Unix_error _ -> false

(* The one call that moves bytes into a temp file; {!with_write} swaps it
   for a test. *)
let write_fn = ref Unix.write

let with_write fn f =
  let saved = !write_fn in
  write_fn := fn;
  Fun.protect ~finally:(fun () -> write_fn := saved) f

let replace ~path contents =
  mkdir_p (Filename.dirname path);
  (* O_EXCL: a leftover temp file from a crashed writer with the same
     suffix (pid reuse) must not be silently overwritten mid-rename by
     someone else — draw a fresh suffix instead. *)
  let rec open_temp attempts =
    let tmp = Printf.sprintf "%s.tmp.%s" path (temp_suffix ()) in
    match
      Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL ] 0o644
    with
    | fd -> Ok (tmp, fd)
    | exception Unix.Unix_error (Unix.EEXIST, _, _) when attempts > 0 ->
      open_temp (attempts - 1)
    | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  in
  match open_temp 8 with
  | Error _ as e -> e
  | Ok (tmp, fd) -> (
    let cleanup () = try Sys.remove tmp with Sys_error _ -> () in
    let written =
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let b = Bytes.unsafe_of_string contents in
          let len = Bytes.length b in
          (* A write that makes no progress is a failure, not a retry. *)
          let rec write_all off =
            if off >= len then Ok ()
            else
              match !write_fn fd b off (len - off) with
              | 0 -> Error "short write: no bytes written"
              | n -> write_all (off + n)
              | exception Unix.Unix_error (e, _, _) ->
                Error (Unix.error_message e)
          in
          write_all 0)
    in
    match written with
    | Error msg ->
      cleanup ();
      Error msg
    | Ok () -> (
      match Sys.rename tmp path with
      | () -> Ok ()
      | exception Sys_error msg ->
        cleanup ();
        Error msg))

let write ~path contents =
  if not_regular path then Error "not a regular file"
  else replace ~path contents

let write_exn ~path contents =
  match write ~path contents with
  | Ok () -> ()
  | Error msg -> raise (Sys_error (Printf.sprintf "%s: %s" path msg))
