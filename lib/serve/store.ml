(* The store under its compile-service name, for hlsbd and its clients. *)
include Hlsb_util.Store
