(** The iterative target-frequency search at the heart of the explorer:
    compile at a target, read the achieved Fmax back, re-target. One
    call explores one configuration through an opaque oracle
    [target_mhz -> achieved_mhz], so the algorithm is testable on
    synthetic curves without compiling anything.

    The search has two phases. {b Bracket}: probe the starting target
    [t0]; while the achieved frequency keeps up with the target (within
    [tol]), raise the target geometrically until it no longer does —
    [lo] is the last target the design met, [hi] the first it missed.
    If even [t0] is missed, the achieved value itself bounds the
    bracket from below. {b Bisect}: shrink [(lo, hi)] by halving,
    keeping the invariant that [lo] is always met and [hi] never is,
    until the bracket is relatively tighter than [tol] or the probe
    budget runs out.

    Every probe is recorded; the configuration's frequency is the best
    {e achieved} value over all probes (not the converged target), so a
    lucky early probe is never thrown away. *)

type probe = {
  p_target : float;  (** target frequency given to the oracle, MHz *)
  p_achieved : float;  (** Fmax the oracle reported back, MHz *)
}

type outcome = {
  o_probes : probe list;  (** every oracle call, in order *)
  o_brackets : (float * float) list;
      (** the (lo, hi) bracket after each bisection step, in order — lo
          never decreases, hi never increases (tests assert this) *)
  o_best_target : float;  (** the target whose probe achieved [o_best] *)
  o_best_achieved : float;  (** best achieved Fmax over all probes *)
  o_converged : bool;  (** bracket tightened within [tol] in budget *)
}

val run :
  ?t0:float ->
  ?tol:float ->
  ?max_probes:int ->
  (float -> float) ->
  outcome
(** [run oracle] searches the target bracket. Defaults: [t0] = 300 MHz
    (the pipeline's schedule default, so the first probe of an untuned
    configuration reproduces the static compile), [tol] = 0.02,
    [max_probes] = 5. The bracket phase stops raising targets past
    1200 MHz, beyond any device's reach. The oracle is called between 1 and
    [max_probes] times. Deterministic: same oracle, same sequence. *)
