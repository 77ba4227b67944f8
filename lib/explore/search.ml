type probe = {
  p_target : float;
  p_achieved : float;
}

type outcome = {
  o_probes : probe list;
  o_brackets : (float * float) list;
  o_best_target : float;
  o_best_achieved : float;
  o_converged : bool;
}

(* Stop raising targets past any device's reach. *)
let hi_cap = 1200.

let run ?(t0 = 300.) ?(tol = 0.02) ?(max_probes = 5) oracle =
  if t0 <= 0. then invalid_arg "Search.run: t0 <= 0";
  if tol <= 0. then invalid_arg "Search.run: tol <= 0";
  if max_probes < 1 then invalid_arg "Search.run: max_probes < 1";
  let probes = ref [] in
  let brackets = ref [] in
  let best = ref (t0, neg_infinity) in
  let n = ref 0 in
  let probe t =
    incr n;
    let a = oracle t in
    probes := { p_target = t; p_achieved = a } :: !probes;
    if a > snd !best then best := (t, a);
    a
  in
  (* "met" within the relative tolerance: re-targeting below this margin
     cannot move the schedule meaningfully. *)
  let meets t a = a >= t *. (1. -. tol) in
  let a0 = probe t0 in
  let lo0, hi0 =
    if meets t0 a0 then begin
      (* Walk the target up geometrically until the design misses it. *)
      let rec up lo t =
        if !n >= max_probes || t > hi_cap then (lo, lo)
        else
          let a = probe t in
          if meets t a then up t (t *. 1.6) else (lo, t)
      in
      up t0 (t0 *. 1.6)
    end
    else
      (* Even t0 is out of reach: the achieved value bounds what is
         realistic, the failed target bounds it from above. *)
      (Float.min a0 t0, t0)
  in
  let lo = ref lo0 and hi = ref hi0 in
  while !hi -. !lo > tol *. !lo && !n < max_probes do
    let mid = 0.5 *. (!lo +. !hi) in
    let a = probe mid in
    if meets mid a then lo := mid else hi := mid;
    brackets := (!lo, !hi) :: !brackets
  done;
  {
    o_probes = List.rev !probes;
    o_brackets = List.rev !brackets;
    o_best_target = fst !best;
    o_best_achieved = snd !best;
    o_converged = !hi -. !lo <= tol *. !lo;
  }
