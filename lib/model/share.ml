type spec =
  | Reciprocal
  | Power of { exponent : float }

type t = {
  name : string;
  eval : float -> float;
  deval : float -> float;
  inverse : float -> float;
  lat_min : float;
}

let spec_to_string = function
  | Reciprocal -> "reciprocal"
  | Power { exponent } -> Printf.sprintf "power(%.2f)" exponent

let instantiate spec ~exec ~lag =
  if exec <= 0. then invalid_arg "Share.instantiate: exec <= 0";
  if lag < 0. then invalid_arg "Share.instantiate: negative lag";
  let work = exec +. lag in
  (* Each family's three functions are defined together, so they share
     one closure block and one copy of their free variables. *)
  match spec with
  | Reciprocal ->
    let[@warning "-39"] rec eval lat = work /. lat
    and deval lat = -.work /. (lat *. lat)
    and inverse share = work /. share in
    { name = "reciprocal"; eval; deval; inverse; lat_min = work }
  | Power { exponent } ->
    if exponent < 1. then invalid_arg "Share.instantiate: power exponent < 1";
    let[@warning "-39"] rec eval lat = (work /. lat) ** exponent
    and deval lat = -.exponent /. lat *. ((work /. lat) ** exponent)
    and inverse share = work /. (share ** (1. /. exponent)) in
    { name = spec_to_string spec; eval; deval; inverse; lat_min = work }
