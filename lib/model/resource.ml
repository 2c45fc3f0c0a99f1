type kind =
  | Cpu
  | Link

type t = {
  id : Ids.Resource_id.t;
  name : string;
  kind : kind;
  availability : float;
  lag : float;
}

let kind_to_string = function Cpu -> "cpu" | Link -> "link"

let make ?name ?(kind = Cpu) ?(availability = 1.0) ?(lag = 0.0) i =
  if availability < 0. || availability > 1. then
    invalid_arg "Resource.make: availability outside [0, 1]";
  if lag < 0. then invalid_arg "Resource.make: negative lag";
  let id = Ids.Resource_id.make i in
  let name =
    match name with Some n -> n | None -> Ids.Resource_id.to_string id
  in
  { id; name; kind; availability; lag }
