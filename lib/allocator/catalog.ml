open Qos_core

type requirement = { units : int; config_words : int }

module Int_map = Map.Make (Int)

(* Keyed by type, then variant: a lookup compares ints and builds no
   key tuple. *)
type t = requirement Int_map.t Int_map.t

let empty = Int_map.empty

let variants t type_id =
  Option.value (Int_map.find_opt type_id t) ~default:Int_map.empty

let put ~type_id ~impl_id req t =
  Int_map.add type_id (Int_map.add impl_id req (variants t type_id)) t

let add ~type_id ~impl_id req t =
  if req.units <= 0 then
    Error
      (Printf.sprintf "impl (%d, %d): units must be positive" type_id impl_id)
  else if Int_map.mem impl_id (variants t type_id) then
    Error (Printf.sprintf "duplicate catalog entry (%d, %d)" type_id impl_id)
  else Ok (put ~type_id ~impl_id req t)

let find t ~type_id ~impl_id =
  match Int_map.find impl_id (Int_map.find type_id t) with
  | req -> Some req
  | exception Not_found -> None

(* Synthetic but deterministic footprints: the richer the variant (more
   attributes) and the more hardware-ish the target, the bigger the
   area and configuration data. *)
let default_requirement (impl : Impl.t) =
  let richness = 1 + Impl.attr_count impl in
  match impl.target with
  | Target.Fpga ->
      { units = 80 + (24 * richness); config_words = 4096 + (512 * richness) }
  | Target.Dsp -> { units = 1 + (richness / 8); config_words = 512 + (64 * richness) }
  | Target.Gpp -> { units = 1; config_words = 256 + (32 * richness) }
  | Target.Asic -> { units = 1; config_words = 16 }
  | Target.Custom _ -> { units = 1; config_words = 256 }

let of_casebase_default (cb : Casebase.t) =
  List.fold_left
    (fun acc (ft : Ftype.t) ->
      List.fold_left
        (fun acc (impl : Impl.t) ->
          put ~type_id:ft.id ~impl_id:impl.id (default_requirement impl) acc)
        acc ft.impls)
    empty cb.ftypes

let cardinal t = Int_map.fold (fun _ impls n -> n + Int_map.cardinal impls) t 0
