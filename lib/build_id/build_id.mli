(** Identity of the library sources this program was built from. *)

val digest : string
(** 32 hex digits: the MD5 of the path and bytes of every [.ml], [.mli]
    and [dune] file under [lib/]. Any edit, committed or not, changes it,
    so every on-disk store entry keyed on it (see {!Hlsb_util.Store.key})
    is orphaned by a rebuild that could change its bytes. *)
