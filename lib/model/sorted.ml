let sort (a : int array) = Array.stable_sort Int.compare a

let of_list key l =
  let a = Array.of_list (List.map key l) in
  sort a;
  a

let has_duplicate (a : int array) =
  let rec scan k = k < Array.length a && (a.(k - 1) = a.(k) || scan (k + 1)) in
  scan 1

let rec search (a : int array) x lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    if a.(mid) = x then mid else if a.(mid) < x then search a x (mid + 1) hi else search a x lo mid

let find a x = search a x 0 (Array.length a)

let mem a x = find a x >= 0
