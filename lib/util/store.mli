(** Persistent content-addressed store: the one on-disk cache in the
    tree. The compile daemon files its result artifacts here, and
    [Hlsb_delay.Calibrate] files its raw characterization curves in a
    store of its own rooted at the calibration directory.

    Every entry is filed under the MD5 of a canonical key string
    ({!key}): the store {!schema}, the {!Build_id.digest} of the library
    sources the program was built from, then the caller's parts (input
    identity, device fingerprint, compile key, curve name and grid...).
    Any source edit, committed or not, changes the build id and so every
    key: a rebuilt program never reads bytes an older program wrote.
    Identical requests from *any* process built from the same sources
    resolve to the same file, and a hit returns the stored bytes
    unchanged.

    Layout: [<root>/<namespace>/<hh>/<hash>] where [hh] is the first two
    hex digits of the hash. Namespaces isolate clients from one another:
    a key only ever hits within the namespace that stored it, so one
    client cannot observe (or evict-by-alias) another's artifacts;
    eviction budgets the store as a whole.

    Each entry file is a one-line header holding the payload's MD5, then
    the payload. {!find} checks it: a truncated, bit-flipped or garbage
    entry is a miss, is removed, and prints one [Diag] warning on
    stderr; its bytes are never returned.

    Writes go through {!Atomic_file} (write-then-rename with a
    pid+domain+random temp suffix), so concurrent processes never
    publish a torn entry, and a temp file left by a killed writer is
    never read as an entry. Reads bump the entry's mtime, which is the
    LRU clock: {!gc} evicts oldest-first until the store fits its byte
    budget. *)

type t

type stats = {
  st_entries : int;  (** artifacts on disk, every namespace *)
  st_bytes : int;  (** payload bytes on disk, headers excluded *)
  st_hits : int;  (** lookups served since {!open_} (this process) *)
  st_misses : int;
  st_puts : int;
  st_evictions : int;  (** entries removed by {!gc} since {!open_} *)
}

val schema : string
(** ["hlsb-store/2"] — heads every key and every entry header. *)

val env_var : string
(** ["HLSBD_STORE"] — overrides the store root directory. *)

val ambient_root : unit -> string
(** [$HLSBD_STORE] when set and non-empty, else [".hlsb/store"]. *)

val default_budget_bytes : int
(** 256 MiB. *)

val open_ : ?budget_bytes:int -> root:string -> unit -> t
(** Open (creating as needed) a store rooted at [root]. Opening reads no
    entries: the byte total is scanned on the first {!put} (or {!gc}).
    The budget is the eviction target, not a hard cap: a put may briefly
    exceed it until the put's own eviction pass runs. *)

val root : t -> string
val budget_bytes : t -> int

val sanitize_ns : string -> string
(** Map an arbitrary client namespace to the directory-safe alphabet
    [[a-z0-9_-]]; empty input becomes ["default"]. Distinct inputs may
    alias only if they differ in stripped characters — acceptable for
    cooperating clients, and the sanitized name is what isolation keys
    on. *)

val key : parts:string list -> string
(** The content address: hex MD5 of [schema], {!Build_id.digest} and the
    parts, ['\x00']-joined. Deterministic across processes built from
    the same sources; any part changing (recipe, plan, tuning, source
    bytes, device, curve grid) or any library source edit changes the
    key. *)

val find : t -> ns:string -> key:string -> string option
(** The stored bytes, or [None]. A hit refreshes the entry's LRU clock
    and counts in {!stats}; a miss counts too. An entry that fails its
    digest check counts as a miss and is removed, with one warning on
    stderr. *)

val put : t -> ns:string -> key:string -> string -> (unit, string) result
(** Atomically publish bytes (behind their digest header) under the
    key, then evict past-budget entries (oldest first, never the one
    just written). Re-putting an existing key rewrites it (the payload
    is the same by construction — keys are content-derived). [Error]
    when the entry cannot be written, e.g. the root is not a
    directory. *)

val gc : t -> int
(** Rescan the root and evict oldest-first until within budget; returns
    the number of entries removed. Safe to run concurrently with other
    processes using the same root (missing files are skipped). *)

val clear : t -> int
(** Remove every artifact in every namespace; returns how many. *)

val stats : t -> stats
(** Disk figures are rescanned on each call (other processes may have
    added or evicted entries); traffic counters are this process's. *)

val hit_rate : t -> float
(** Hits over lookups since {!open_} (0 before the first lookup), from
    the traffic counters alone: no disk scan, cheap enough per request. *)

val disk_usage : root:string -> int * int
(** [(entries, bytes)] for a store root, without opening it — what
    [hlsbd status] reports when no daemon is listening. *)
