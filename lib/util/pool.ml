(* Persistent domain-based work pool for independent, deterministic tasks.

   Results are returned in input order no matter how work is interleaved
   across domains, so [map f a] is observably identical to [Array.map f a]
   for pure [f] at any job count.  Job count resolution, in priority order:
   an explicit [?jobs] argument, [set_default_jobs], the [HLSB_JOBS]
   environment variable, then [Domain.recommended_domain_count].

   Worker domains are spawned once and reused across every [map] call:
   spawn-per-batch scheduling was measurably a pessimization (each spawn
   pays domain setup plus a minor-heap, and a fan-out of small batches pays
   it over and over).  Workers block on a condition variable between
   batches, so an idle pool costs nothing.  Work is handed out in index
   chunks rather than one element at a time, bounding contention on the
   shared cursor to O(jobs) instead of O(n).

   Nested calls (a task that itself calls [map], on a worker or on the
   calling domain while a map is in flight) run sequentially rather than
   deadlocking on the busy workers or spawning a second tier of domains,
   which bounds the total domain count at [jobs] regardless of call
   depth. *)

let env_var = "HLSB_JOBS"

let override : int option Atomic.t = Atomic.make None

let set_default_jobs n =
  if n < 1 then invalid_arg "Pool.set_default_jobs: jobs < 1";
  Atomic.set override (Some n)

let parse_jobs s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> Ok n
  | Some n -> Error (Printf.sprintf "job count must be >= 1, got %d" n)
  | None -> Error (Printf.sprintf "not an integer: %S" s)

(* A malformed HLSB_JOBS must not take the whole run down (it is ambient
   environment, not an explicit flag), and silently guessing a parallel
   job count would be worse: degrade to sequential and say so, once. *)
let env_warned = Atomic.make false

let env_jobs () =
  match Sys.getenv_opt env_var with
  | None -> None
  | Some s -> (
    match parse_jobs s with
    | Ok n -> Some n
    | Error why ->
      if not (Atomic.exchange env_warned true) then
        prerr_endline
          (Diag.to_string
             (Diag.warning ~stage:"pool"
                (Printf.sprintf "ignoring %s=%S (%s); running with 1 job"
                   env_var s why)));
      Some 1)

let hw_jobs () = max 1 (Domain.recommended_domain_count ())

(* The ambient default is capped at the hardware core count: OCaml 5 minor
   collections synchronize every running domain, so oversubscribing domains
   beyond cores pays stop-the-world scheduling latency per GC with no
   parallelism to gain (measured ~1.8x at 2 domains on 1 core). An explicit
   [?jobs] at a call site is taken as an instruction and honored as
   given. *)
let default_jobs () =
  let requested =
    match Atomic.get override with
    | Some n -> n
    | None -> ( match env_jobs () with Some n -> n | None -> hw_jobs ())
  in
  min requested (hw_jobs ())

(* True inside a pool worker domain: used to degrade nested maps to
   sequential execution. *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* True on the calling domain while one of its maps is in flight: a nested
   map from a task running on the caller must not try to reuse the (busy)
   persistent workers. *)
let in_map : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let sequential_map f arr = Array.map f arr

(* ---- words allocated on behalf of a domain ----

   [Gc] counters count the calling domain's allocation only, so a map's
   workers credit the words their tasks allocated to the domain that
   called [map], which adds them to its account here. *)

type account = { mutable minor : float; mutable major : float }

let account : account Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { minor = 0.; major = 0. })

let credited_words () =
  let a = Domain.DLS.get account in
  (a.minor, a.major)

(* Words allocated directly in the major heap: major minus promoted. *)
let direct_major_words () =
  let _, promoted, major = Gc.counters () in
  major -. promoted

(* ---- persistent workers ---- *)

type worker = {
  w_mutex : Mutex.t;
  w_cond : Condition.t;
  mutable w_job : (unit -> unit) option;  (* guarded by [w_mutex] *)
  mutable w_busy : bool;  (* guarded by [w_mutex] *)
  mutable w_quit : bool;  (* guarded by [w_mutex] *)
  mutable w_domain : unit Domain.t option;
}

(* Jobs are wrapped so they never raise (map bodies capture exceptions into
   a shared cell); the [try] here is a last-resort guard that keeps a
   misbehaving job from killing the worker loop. *)
let worker_loop w () =
  Domain.DLS.set in_worker true;
  let rec loop () =
    Mutex.lock w.w_mutex;
    let rec await () =
      if w.w_quit then None
      else
        match w.w_job with
        | Some f -> Some f
        | None ->
          Condition.wait w.w_cond w.w_mutex;
          await ()
    in
    match await () with
    | None -> Mutex.unlock w.w_mutex
    | Some f ->
      w.w_busy <- true;
      Mutex.unlock w.w_mutex;
      (try f () with _ -> ());
      Mutex.lock w.w_mutex;
      w.w_job <- None;
      w.w_busy <- false;
      Condition.broadcast w.w_cond;
      Mutex.unlock w.w_mutex;
      loop ()
  in
  loop ()

let new_worker () =
  let w =
    {
      w_mutex = Mutex.create ();
      w_cond = Condition.create ();
      w_job = None;
      w_busy = false;
      w_quit = false;
      w_domain = None;
    }
  in
  w.w_domain <- Some (Domain.spawn (worker_loop w));
  w

let workers : worker list ref = ref []
let workers_mutex = Mutex.create ()
let shutdown_registered = ref false  (* guarded by [workers_mutex] *)

(* Only one map at a time hands work to the shared workers; a concurrent
   top-level map from another domain falls back to sequential execution
   instead of blocking. *)
let pool_busy = Atomic.make false

let shutdown () =
  Mutex.lock workers_mutex;
  let ws = !workers in
  workers := [];
  Mutex.unlock workers_mutex;
  List.iter
    (fun w ->
      Mutex.lock w.w_mutex;
      w.w_quit <- true;
      Condition.broadcast w.w_cond;
      Mutex.unlock w.w_mutex)
    ws;
  List.iter
    (fun w -> match w.w_domain with Some d -> Domain.join d | None -> ())
    ws

(* Grow the pool to [k] workers and return [k] of them. All returned
   workers are idle: jobs are only ever submitted under [pool_busy], and
   every submitter waits for its workers before releasing it. *)
let acquire k =
  Mutex.lock workers_mutex;
  if not !shutdown_registered then begin
    shutdown_registered := true;
    at_exit shutdown
  end;
  while List.length !workers < k do
    workers := new_worker () :: !workers
  done;
  let ws = List.filteri (fun i _ -> i < k) !workers in
  Mutex.unlock workers_mutex;
  ws

let submit w f =
  Mutex.lock w.w_mutex;
  w.w_job <- Some f;
  Condition.broadcast w.w_cond;
  Mutex.unlock w.w_mutex

let wait_idle w =
  Mutex.lock w.w_mutex;
  while w.w_busy || w.w_job <> None do
    Condition.wait w.w_cond w.w_mutex
  done;
  Mutex.unlock w.w_mutex

(* ---- parallel map ---- *)

(* A few chunks per worker: large enough that the shared cursor is touched
   O(jobs) times, small enough that an unlucky slow chunk still leaves work
   for the other domains to steal. *)
let chunk_for ~n ~jobs = max 1 (n / (jobs * 4))

let map ?jobs f arr =
  let n = Array.length arr in
  let jobs =
    let j = match jobs with Some j -> max 1 j | None -> default_jobs () in
    min j n
  in
  if jobs <= 1 || n <= 1 || Domain.DLS.get in_worker || Domain.DLS.get in_map
  then sequential_map f arr
  else if not (Atomic.compare_and_set pool_busy false true) then
    sequential_map f arr
  else
    Fun.protect
      ~finally:(fun () -> Atomic.set pool_busy false)
      (fun () ->
        Domain.DLS.set in_map true;
        Fun.protect
          ~finally:(fun () -> Domain.DLS.set in_map false)
          (fun () ->
            let results = Array.make n None in
            let error = Atomic.make None in
            let next = Atomic.make 0 in
            let chunk = chunk_for ~n ~jobs in
            let body () =
              let continue = ref true in
              while !continue do
                let start = Atomic.fetch_and_add next chunk in
                if start >= n || Atomic.get error <> None then continue := false
                else begin
                  let stop = min n (start + chunk) in
                  let i = ref start in
                  while !i < stop && Atomic.get error = None do
                    (match f arr.(!i) with
                    | v -> results.(!i) <- Some v
                    | exception e ->
                      ignore (Atomic.compare_and_set error None (Some e)));
                    incr i
                  done
                end
              done
            in
            let ws = acquire (jobs - 1) in
            (* slot [i]: the minor and direct major words of worker [i]'s
               share, read outside its window *)
            let credit = Array.make (2 * (jobs - 1)) 0. in
            List.iteri
              (fun i w ->
                submit w (fun () ->
                  let m0 = direct_major_words () in
                  let w0 = Gc.minor_words () in
                  body ();
                  let minor = Gc.minor_words () -. w0 in
                  credit.(2 * i) <- minor;
                  credit.((2 * i) + 1) <- direct_major_words () -. m0))
              ws;
            (* The calling domain is the [jobs]-th worker; it is not flagged
               as one so a task running here may still see ambient
               per-domain state. *)
            (try body ()
             with e -> ignore (Atomic.compare_and_set error None (Some e)));
            List.iter wait_idle ws;
            let a = Domain.DLS.get account in
            for i = 0 to jobs - 2 do
              a.minor <- a.minor +. credit.(2 * i);
              a.major <- a.major +. credit.((2 * i) + 1)
            done;
            match Atomic.get error with
            | Some e -> raise e
            | None ->
              Array.map (function Some v -> v | None -> assert false) results))

let map_list ?jobs f xs = Array.to_list (map ?jobs f (Array.of_list xs))

let iter ?jobs f arr = ignore (map ?jobs (fun x -> f x) arr)
