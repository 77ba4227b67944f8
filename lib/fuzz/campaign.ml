module Rng = Hlsb_util.Rng
module Json = Hlsb_telemetry.Json
module Atomic_file = Hlsb_util.Atomic_file
module Metrics = Hlsb_telemetry.Metrics

type failure = {
  fl_oracle : Oracle.name;
  fl_seed : int;
  fl_index : int;
  fl_original : Gen.t;
  fl_case : Gen.t;
  fl_message : string;
  fl_shrink_steps : int;
}

type report = {
  rp_seed : int;
  rp_runs : int;
  rp_oracles : Oracle.name list;
  rp_counts : (Oracle.name * int) list;
  rp_failures : failure list;
}

let run ?(oracles = Oracle.all) ?(log = fun _ -> ()) ~seed ~runs () =
  if runs < 1 then invalid_arg "Campaign.run: runs < 1";
  if oracles = [] then invalid_arg "Campaign.run: no oracles selected";
  let oracle_arr = Array.of_list oracles in
  let n_oracles = Array.length oracle_arr in
  let counts = Array.make n_oracles 0 in
  let failures = ref [] in
  let campaign_rng = Rng.create seed in
  for i = 0 to runs - 1 do
    let oracle = oracle_arr.(i mod n_oracles) in
    let rng = Rng.split campaign_rng in
    let case = Gen.generate (Oracle.kind oracle) rng in
    counts.(i mod n_oracles) <- counts.(i mod n_oracles) + 1;
    Metrics.incr "fuzz.runs";
    Metrics.incr ("fuzz.runs." ^ Oracle.to_string oracle);
    match Oracle.check oracle case with
    | Oracle.Pass -> ()
    | Oracle.Fail _ ->
      Metrics.incr "fuzz.failures";
      let minimized, message, steps =
        Shrink.minimize ~check:(Oracle.check oracle) case
      in
      Metrics.incr ~by:steps "fuzz.shrink_steps";
      let fl =
        {
          fl_oracle = oracle;
          fl_seed = seed;
          fl_index = i;
          fl_original = case;
          fl_case = minimized;
          fl_message = message;
          fl_shrink_steps = steps;
        }
      in
      failures := fl :: !failures;
      log
        (Printf.sprintf "[%s] run %d: %s\n  minimized (%d steps): %s"
           (Oracle.to_string oracle) i message steps
           (Gen.to_string minimized))
  done;
  {
    rp_seed = seed;
    rp_runs = runs;
    rp_oracles = oracles;
    rp_counts = List.mapi (fun i o -> (o, counts.(i))) oracles;
    rp_failures = List.rev !failures;
  }

let summary r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "fuzz campaign: seed %d, %d runs over %d oracle(s)\n"
       r.rp_seed r.rp_runs (List.length r.rp_oracles));
  List.iter
    (fun (o, n) ->
      Buffer.add_string b
        (Printf.sprintf "  %-12s %4d run(s)  %s\n" (Oracle.to_string o) n
           (Oracle.describe o)))
    r.rp_counts;
  (match r.rp_failures with
  | [] -> Buffer.add_string b "no oracle violations\n"
  | fls ->
    Buffer.add_string b
      (Printf.sprintf "%d oracle violation(s):\n" (List.length fls));
    List.iter
      (fun fl ->
        Buffer.add_string b
          (Printf.sprintf "  [%s] run %d (%d shrink steps): %s\n    case: %s\n"
             (Oracle.to_string fl.fl_oracle)
             fl.fl_index fl.fl_shrink_steps fl.fl_message
             (Gen.to_string fl.fl_case)))
      fls);
  Buffer.contents b

(* ---------------- reproducers ---------------- *)

let schema = "hlsb-fuzz-repro/1"

let failure_to_json fl =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("oracle", Json.Str (Oracle.to_string fl.fl_oracle));
      ("seed", Json.Int fl.fl_seed);
      ("index", Json.Int fl.fl_index);
      ("message", Json.Str fl.fl_message);
      ("shrink_steps", Json.Int fl.fl_shrink_steps);
      ("case", Gen.to_json fl.fl_case);
      ("original_case", Gen.to_json fl.fl_original);
    ]

let ( let* ) r f =
  match r with
  | Ok v -> f v
  | Error _ as e -> e

let failure_of_json j =
  let* () =
    match Json.member "schema" j with
    | Some (Json.Str s) when s = schema -> Ok ()
    | Some (Json.Str s) -> Error (Printf.sprintf "unknown schema %S" s)
    | _ -> Error "missing schema field"
  in
  let* fl_oracle =
    match Json.member "oracle" j with
    | Some (Json.Str s) -> (
      match Oracle.of_string s with
      | Some o -> Ok o
      | None -> Error (Printf.sprintf "unknown oracle %S" s))
    | _ -> Error "missing oracle field"
  in
  let* fl_seed = Json.int_field "seed" j in
  let* fl_index = Json.int_field "index" j in
  let* fl_shrink_steps = Json.int_field "shrink_steps" j in
  let* fl_message = Json.str_field "message" j in
  let* fl_case =
    match Json.member "case" j with
    | Some c -> Gen.of_json c
    | None -> Error "missing case field"
  in
  let* fl_original =
    match Json.member "original_case" j with
    | Some c -> Gen.of_json c
    | None -> Ok fl_case
  in
  Ok
    {
      fl_oracle;
      fl_seed;
      fl_index;
      fl_original;
      fl_case;
      fl_message;
      fl_shrink_steps;
    }

let write_repros ~dir report =
  List.mapi
    (fun i fl ->
      let path =
        if i = 0 then Filename.concat dir (Printf.sprintf "repro-%d.json" fl.fl_seed)
        else
          Filename.concat dir
            (Printf.sprintf "repro-%d-%d.json" fl.fl_seed fl.fl_index)
      in
      Atomic_file.write_exn ~path
        (Json.to_string ~minify:false (failure_to_json fl) ^ "\n");
      path)
    report.rp_failures

let replay_file path =
  let* text =
    Option.to_result ~none:(Printf.sprintf "cannot read %s" path)
      (Atomic_file.read path)
  in
  let* j = Json.of_string text in
  let* fl = failure_of_json j in
  Ok (fl, Oracle.check fl.fl_oracle fl.fl_case)
