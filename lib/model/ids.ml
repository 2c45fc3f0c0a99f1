module type ID = sig
  type t

  val make : int -> t

  val to_int : t -> int

  val compare : t -> t -> int

  val equal : t -> t -> bool

  val hash : t -> int

  val pp : Format.formatter -> t -> unit

  val to_string : t -> string

  module Map : Map.S with type key = t

  module Set : Set.S with type elt = t

  module Tbl : Hashtbl.S with type key = t
end

module Make (Prefix : sig
  val prefix : string
end) : ID = struct
  type t = int

  let make i =
    if i < 0 then invalid_arg (Prefix.prefix ^ " id: negative");
    i

  let to_int i = i

  let compare = Int.compare

  let equal = Int.equal

  let hash = Lla_stdx.Int_tbl.hash

  let to_string i = Prefix.prefix ^ string_of_int i

  let pp ppf i = Format.pp_print_string ppf (to_string i)

  module Key = struct
    type nonrec t = t

    let compare = compare

    let equal = equal

    let hash = hash
  end

  module Map = Map.Make (Key)
  module Set = Set.Make (Key)
  module Tbl = Hashtbl.Make (Key)
end

module Task_id = Make (struct
  let prefix = "T"
end)

module Subtask_id = Make (struct
  let prefix = "s"
end)

module Resource_id = Make (struct
  let prefix = "r"
end)

module Path_id = Make (struct
  let prefix = "p"
end)
