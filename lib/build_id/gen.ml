(* Writes build_id.ml to Sys.argv.(2) for the source tree rooted at
   Sys.argv.(1): the MD5 of each .ml, .mli and dune file's relative path
   and bytes, in sorted path order. The tree is walked before the target
   is opened, so the output never digests itself. Run by the ocaml
   toplevel from this directory's dune rule. *)

let keep name =
  name = "dune"
  || Filename.check_suffix name ".ml"
  || Filename.check_suffix name ".mli"

let rec files dir rel =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
       let path = Filename.concat dir name and rel = rel ^ "/" ^ name in
       if Sys.is_directory path then files path rel
       else if keep name then [ (rel, path) ]
       else [])

let () =
  let parts =
    List.map
      (fun (rel, path) -> rel ^ "\x00" ^ Digest.to_hex (Digest.file path))
      (files Sys.argv.(1) "lib")
  in
  let oc = open_out_bin Sys.argv.(2) in
  Printf.fprintf oc "let digest = %S\n"
    (Digest.to_hex (Digest.string (String.concat "\x00" parts)));
  close_out oc
