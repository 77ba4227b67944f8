(** Crash- and concurrency-safe whole-file writes: the writer under
    {!Store}, the one on-disk store in the tree (compile artifacts and
    calibration curves alike).

    The contract is write-then-rename: the payload goes to a temporary
    file in the destination directory and is renamed over the target, so
    readers only ever observe a complete file. The temporary name embeds
    the process id, the domain id, and a random suffix — two *processes*
    (a daemon and a stray CLI invocation) or two domains writing the
    same target concurrently each use distinct temp paths, so neither
    can publish the other's half-written bytes. (A temp name keyed on
    the domain id alone collides across processes: both sides open the
    same [.tmp.0] file and the slower writer renames a torn mixture into
    place.) *)

val write : path:string -> string -> (unit, string) result
(** Atomically replace [path] with the given bytes (creating parent
    directories as needed). On success the rename has happened; on
    [Error msg] the target is untouched and the temporary file has been
    removed. Concurrent writers of the same [path] serialize at the
    rename: the last rename wins with a complete file either way. A
    [path] that exists but is not a regular file (a device, a pipe, a
    directory) is an [Error], and is left as it is. *)

val with_write :
  (Unix.file_descr -> bytes -> int -> int -> int) -> (unit -> 'a) -> 'a
(** Test only: run the thunk with the given function in place of
    [Unix.write] for this module's writes, then restore it. A test stands
    in for a full disk with a function that writes short and then fails;
    a write that returns 0 counts as failed. *)

val write_exn : path:string -> string -> unit
(** [write], raising [Sys_error] on failure. *)

val mkdir_p : string -> unit
(** Create a directory and its parents; existing directories are fine.
    Races with concurrent creators are benign. *)

val read : string -> string option
(** Whole-file read; [None] if the file cannot be opened. *)

val temp_suffix : unit -> string
(** The collision-resistant suffix used for temp names:
    ["<pid>.<domain>.<random hex>"]. Exposed for the concurrency tests,
    which assert two processes never produce the same suffix. *)
