(** Resources: nodes provide CPU, links provide network bandwidth (§2).

    All time quantities in this repository are in milliseconds. *)

type kind =
  | Cpu
  | Link

type t = {
  id : Ids.Resource_id.t;
  name : string;
  kind : kind;
  availability : float;
      (** [B_r] in [\[0, 1\]]: fraction of the resource available to the
          competing tasks (Eq. 3). The rest is reserved, e.g. for the
          garbage collector in the paper's prototype. *)
  lag : float;
      (** [l_r] >= 0, in ms: scheduling lag of the proportional-share
          scheduler (Eq. 10). *)
}

val make :
  ?name:string -> ?kind:kind -> ?availability:float -> ?lag:float -> int -> t
(** [make i] is resource [i] with defaults: CPU, availability 1.0, lag 0.
    @raise Invalid_argument when availability is outside [\[0, 1\]] or lag
    is negative. *)

val kind_to_string : kind -> string
