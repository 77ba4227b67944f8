module Rng = Hlsb_util.Rng

let arbitrary kind =
  QCheck.make
    ~print:Gen.to_string
    ~shrink:(fun case -> QCheck.Iter.of_list (Shrink.candidates case))
    (fun st -> Gen.generate kind (Rng.create (Random.State.bits st)))

let oracle_test ?(count = 30) name =
  QCheck.Test.make ~count
    ~name:(Printf.sprintf "oracle:%s" (Oracle.to_string name))
    (arbitrary (Oracle.kind name))
    (fun case ->
      match Oracle.check name case with
      | Oracle.Pass -> true
      | Oracle.Fail msg -> QCheck.Test.fail_report msg)
