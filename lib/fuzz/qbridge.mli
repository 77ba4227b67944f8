(** QCheck bridge: expose the fuzz generators, printers, and shrinker as
    [QCheck] arbitraries so the differential oracles run under
    [dune runtest] alongside the hand-written unit tests.

    The qcheck shrinker reuses {!Shrink.candidates}, so a failing
    property reports the same local minimum the standalone campaign
    would. *)

val arbitrary : Gen.kind -> Gen.t QCheck.arbitrary
(** Cases of the given shape, seeded from qcheck's [Random.State]. *)

val oracle_test : ?count:int -> Oracle.name -> QCheck.Test.t
(** A qcheck property asserting the oracle passes on every generated
    case of its kind. [count] defaults to 30. *)
