(** Domain-based work pool for independent, deterministic tasks.

    Results come back in input order no matter how work interleaves across
    domains, so [map f a] is observably identical to [Array.map f a] for
    pure [f] at any job count. Job count resolution, in priority order: an
    explicit [?jobs] argument, {!set_default_jobs}, the [HLSB_JOBS]
    environment variable, then [Domain.recommended_domain_count].

    Worker domains are spawned once, kept parked on a condition variable
    between batches, and reused by every subsequent [map]; work is claimed
    in index chunks so contention on the shared cursor is O(jobs), not
    O(n).

    Nested calls (a task that itself calls [map]) run sequentially inside
    the calling worker rather than spawning a second tier of domains, which
    bounds the total domain count at [jobs] regardless of call depth. *)

val env_var : string
(** ["HLSB_JOBS"] — overrides the default job count when set to an integer
    >= 1. A malformed value (non-integer, or < 1) is reported once as a
    diagnostic on stderr and treated as 1. *)

val parse_jobs : string -> (int, string) result
(** Parse a job count as accepted via [HLSB_JOBS]: an integer >= 1,
    surrounding whitespace ignored. The error case carries a
    human-readable reason. *)

val set_default_jobs : int -> unit
(** Process-wide default job count (e.g. from a [--jobs] flag). Takes
    precedence over [HLSB_JOBS]. Raises [Invalid_argument] if [n < 1]. *)

val default_jobs : unit -> int
(** The job count used when [?jobs] is omitted: the requested default
    ({!set_default_jobs}, then [HLSB_JOBS], then the core count), capped at
    [Domain.recommended_domain_count] — OCaml 5 minor collections
    synchronize every running domain, so oversubscribing domains beyond
    cores costs stop-the-world latency per GC with nothing to gain. An
    explicit [?jobs] argument bypasses the cap (tests rely on exercising
    real multi-domain schedules regardless of the machine). *)

val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** Parallel [Array.map] with deterministic, index-ordered results. Runs
    sequentially when [jobs <= 1], the input has fewer than two elements, or
    the call is nested inside another pool task. If any task raises, one of
    the raised exceptions is re-raised after all domains join. *)

val credited_words : unit -> float * float
(** Words that worker domains allocated for the calling domain's maps
    since it started: (minor-heap words, words allocated directly in the
    major heap). [Gc]'s counters see one domain only, so {!map} credits
    each worker's share of a batch to the domain that called it when the
    batch ends; a domain's own allocation plus this account is what its
    maps cost wherever they ran. A map that runs inline (one job, one
    element, nested) credits nothing: the caller's counters already saw
    it. *)

val map_list : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list

val iter : ?jobs:int -> ('a -> unit) -> 'a array -> unit
